package main

import (
	"math"

	"repro/internal/core"
)

// checkRec is one verdict a checked stream delivered, with the sample
// it answered (seq < 0: a hold-last verdict that answered none).
type checkRec struct {
	seq int64
	v   core.Verdict
}

// sampleSpan is one traced sample's layer timestamps (mono ns).
type sampleSpan struct {
	seq, due, rel, read, verdict, end int64
}

// checkLog collects a checked stream's verdicts (and, traced, its
// spans). Only the stream's owning shard or reader appends; it is read
// after the run has stopped.
type checkLog struct {
	idx   int64
	id    string
	recs  []checkRec
	spans []sampleSpan
}

// replay is the correctness gate: it feeds a fresh sibling of the
// reference replica the same (stream, seq) readings through
// FallbackChain.Observe and compares every delivered verdict bit for
// bit. It returns how many verdicts differ (an out-of-order or repeated
// sample counts as a mismatch too).
func replay(ref *core.FallbackChain, rd *readings, idx int64, recs []checkRec) (mismatches int64) {
	chain := ref.NewSibling()
	buf := make([]uint64, sampleWidth)
	last := int64(-1)
	for _, r := range recs {
		var want core.Verdict
		if r.seq < 0 {
			want = chain.ObserveLost()
		} else {
			if r.seq <= last {
				mismatches++
			}
			last = r.seq
			var err error
			if want, err = chain.Observe(rd.fill(idx, r.seq, buf)); err != nil {
				mismatches++
				continue
			}
		}
		if want.Interval != r.v.Interval || want.Malware != r.v.Malware ||
			math.Float64bits(want.Score) != math.Float64bits(r.v.Score) {
			mismatches++
		}
	}
	return mismatches
}
