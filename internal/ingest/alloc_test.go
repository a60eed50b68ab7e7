package ingest

import (
	"testing"
)

// TestBatchPathZeroAlloc gates the steady-state wire path at zero
// allocations per sample, batch framing included: encoding into a
// recycled buffer and decoding through the record iterators must never
// touch the heap once buffers are warm. This is the ingest counterpart
// of the fleet/core AllocsPerRun gates.
func TestBatchPathZeroAlloc(t *testing.T) {
	const width = 4
	const n = 32
	seqs := make([]uint32, n)
	vals := make([]uint64, n*width)
	for i := range seqs {
		seqs[i] = uint32(i)
	}
	for i := range vals {
		vals[i] = uint64(i) * 3
	}
	verdicts := make([]Verdict, n)
	for i := range verdicts {
		verdicts[i] = Verdict{Seq: uint32(i), Interval: uint32(i), Score: 0.5}
	}

	wbuf := make([]byte, 0, MaxFrameBytes)
	vbuf := make([]uint64, width)

	if a := testing.AllocsPerRun(100, func() {
		wbuf = AppendSampleBatch(wbuf[:0], seqs[:1], vals[:width], width)
	}); a != 0 {
		t.Errorf("AppendSampleBatch (batch of one): %.1f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		wbuf = AppendSampleBatch(wbuf[:0], seqs, vals, width)
	}); a != 0 {
		t.Errorf("AppendSampleBatch: %.1f allocs/op, want 0", a)
	}

	wbuf = AppendSampleBatch(wbuf[:0], seqs, vals, width)
	body := wbuf[headerSize : len(wbuf)-crcSize]
	if a := testing.AllocsPerRun(100, func() {
		it, err := ParseSampleBatch(body, width)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, _, ok := it.Next(vbuf); !ok {
				break
			}
		}
	}); a != 0 {
		t.Errorf("sample batch decode: %.1f allocs/op, want 0", a)
	}

	if a := testing.AllocsPerRun(100, func() {
		wbuf = AppendVerdictBatch(wbuf[:0], verdicts)
	}); a != 0 {
		t.Errorf("AppendVerdictBatch: %.1f allocs/op, want 0", a)
	}
	wbuf = AppendVerdictBatch(wbuf[:0], verdicts)
	body = wbuf[headerSize : len(wbuf)-crcSize]
	if a := testing.AllocsPerRun(100, func() {
		it, err := ParseVerdictBatch(body)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}); a != 0 {
		t.Errorf("verdict batch decode: %.1f allocs/op, want 0", a)
	}
}
