package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
)

// timeLoop calls f until dur has passed and returns ns per unit of
// work, f returning how many units one call did.
func timeLoop(dur time.Duration, f func() int) float64 {
	for i := 0; i < 16; i++ {
		f()
	}
	n := 0
	start := mono()
	end := start + int64(dur)
	for {
		for i := 0; i < 64; i++ {
			n += f()
		}
		if now := mono(); now >= end {
			return float64(now-start) / float64(n)
		}
	}
}

// microbench times the core and ingest layers' public functions on the
// run's own chain: Batcher.ScoreBatch per stage at the batch size the
// fleet actually formed, FallbackChain.Observe (the single-threaded
// sequential baseline), and the batch frame codecs at width 4.
func microbench(res *result, chain *core.FallbackChain, rd *readings, batchRows float64, dur time.Duration) error {
	replicate, err := core.NewChainReplicator(chain)
	if err != nil {
		return err
	}
	rep, err := replicate()
	if err != nil {
		return err
	}
	// Sinks keep the measured calls' results live.
	var (
		sinkF float64
		sinkV core.Verdict
		sinkN int
	)
	defer func() { runtime.KeepAlive(sinkF); runtime.KeepAlive(sinkV); runtime.KeepAlive(sinkN) }()
	samples := make([][]uint64, 1024)
	for i := range samples {
		samples[i] = rd.fill(int64(i), int64(i), make([]uint64, sampleWidth))
	}

	rows := max(1, int(math.Round(batchRows)))
	for s, d := range rep.Detectors() {
		// A narrower stage's events are a prefix of the primary's.
		b := d.NewTierBatcher(core.TierCompiled)
		xs := make([][]float64, rows)
		for i := range xs {
			xs[i] = make([]float64, d.HPCs())
			for j := range xs[i] {
				xs[i][j] = float64(samples[i%len(samples)][j])
			}
		}
		out := make([]float64, rows)
		ns := timeLoop(dur, func() int {
			b.ScoreBatch(xs, out)
			sinkF += out[0]
			return rows
		})
		res.set(fmt.Sprintf("core.score_ns_per_row.s%d", s), ns, "ns")
	}

	seq := rep.NewSibling()
	i := 0
	res.set("core.observe_ns", timeLoop(dur, func() int {
		v, err := seq.Observe(samples[i%len(samples)])
		if err == nil {
			sinkV = v
		}
		i++
		return 1
	}), "ns")

	for _, n := range []int{1, 32} {
		seqs := make([]uint32, n)
		vals := make([]uint64, 0, n*sampleWidth)
		verdicts := make([]ingest.Verdict, n)
		for k := range seqs {
			seqs[k] = uint32(k)
			vals = append(vals, samples[k]...)
			verdicts[k] = ingest.Verdict{Seq: uint32(k), Interval: uint32(k), Score: 0.25, Malware: k%2 == 0}
		}
		var sbuf, vbuf []byte
		res.set(fmt.Sprintf("ingest.encode_ns_per_record.b%d", n), timeLoop(dur, func() int {
			sbuf = ingest.AppendSampleBatch(sbuf[:0], seqs, vals, sampleWidth)
			vbuf = ingest.AppendVerdictBatch(vbuf[:0], verdicts)
			return 2 * n
		}), "ns")
		// Frame bodies: past the 4-byte header, before the CRC trailer.
		sbody, vbody := sbuf[4:len(sbuf)-4], vbuf[4:len(vbuf)-4]
		dst := make([]uint64, sampleWidth)
		var derr error
		res.set(fmt.Sprintf("ingest.decode_ns_per_record.b%d", n), timeLoop(dur, func() int {
			sb, err := ingest.ParseSampleBatch(sbody, sampleWidth)
			if err != nil {
				derr = err
				return 1
			}
			for {
				_, v, ok := sb.Next(dst)
				if !ok {
					break
				}
				sinkN += int(v[0])
			}
			vb, err := ingest.ParseVerdictBatch(vbody)
			if err != nil {
				derr = err
				return 1
			}
			for {
				v, ok := vb.Next()
				if !ok {
					break
				}
				sinkN += int(v.Seq)
			}
			return 2 * n
		}), "ns")
		if derr != nil {
			return fmt.Errorf("decoding batch of %d: %w", n, derr)
		}
	}
	return nil
}
