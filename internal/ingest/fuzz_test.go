package ingest

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzFrameDecode drives the whole decode surface — framing, checksum,
// and every per-type parser — with arbitrary bytes. The decoder guards
// the process against whatever a hostile or broken client can put on a
// socket, so the bar is: never panic, never over-read, and never accept
// a frame whose checksum does not hold.
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendHello(nil, Hello{Version: ProtoVersion, Width: 4, Horizon: 100, Tenant: "acme", Stream: "s0"}))
	f.Add(AppendSampleBatch(nil, []uint32{3}, []uint64{1, 2, 3, 4}, 4))
	f.Add(AppendHelloOK(nil, HelloOK{Resume: 7, Window: 64, Width: 4}))
	f.Add(AppendVerdictBatch(nil, []Verdict{{Seq: 1, Interval: 1, Score: 0.5, Malware: true}}))
	f.Add(AppendShed(nil, Shed{Count: 2, LastSeq: 9}))
	f.Add(AppendRetry(nil, Retry{AfterMillis: 100, Reason: "quota"}))
	f.Add(AppendDrain(nil, "draining"))
	f.Add(AppendError(nil, "boom"))
	f.Add(AppendFrame(nil, FrameBye, nil))
	// Two valid frames back to back: stream decoding must resync on
	// frame boundaries, not just handle single frames.
	f.Add(AppendSampleBatch(AppendSampleBatch(nil, []uint32{1}, []uint64{5, 6, 7, 8}, 4), []uint32{2}, []uint64{9, 10, 11, 12}, 4))
	// A frame whose CRC was stomped.
	bad := AppendSampleBatch(nil, []uint32{3}, []uint64{1, 2, 3, 4}, 4)
	bad[len(bad)-1] ^= 0xFF
	f.Add(bad)

	// Batch frames: empty (malformed: the parsers must reject it),
	// small, and max-count batches.
	f.Add(AppendSampleBatch(nil, nil, nil, 4))
	f.Add(AppendSampleBatch(nil, []uint32{1, 2}, []uint64{1, 2, 3, 4, 5, 6, 7, 8}, 4))
	maxSeqs := make([]uint32, MaxBatchRecords)
	maxVals := make([]uint64, MaxBatchRecords)
	for i := range maxSeqs {
		maxSeqs[i] = uint32(i)
		maxVals[i] = uint64(i) * 3
	}
	f.Add(AppendSampleBatch(nil, maxSeqs, maxVals, 1))
	f.Add(AppendVerdictBatch(nil, nil))
	f.Add(AppendVerdictBatch(nil, []Verdict{{Seq: 1, Interval: 1, Score: 0.25}, {Seq: 2, Interval: 2, Score: 0.75, Malware: true}}))
	// The retired protocol-2 HELLO_OK with its trailing flags byte.
	f.Add(AppendFrame(nil, FrameHelloOK, []byte{0, 0, 0, 7, 0, 64, 0, 4, 1}))
	// CRC-valid batch frames whose bodies lie: a count promising more
	// records than the body carries, and a body torn mid-record. The
	// framing layer accepts them; the batch parsers must not.
	overlong := []byte{0, 10, 0, 0, 0, 1} // count=10, one truncated record
	f.Add(AppendFrame(nil, FrameSampleBatch, overlong))
	f.Add(AppendFrame(nil, FrameVerdictBatch, overlong))
	torn := AppendSampleBatch(nil, []uint32{1, 2}, []uint64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	tornBody := torn[headerSize : len(torn)-crcSize]
	f.Add(AppendFrame(nil, FrameSampleBatch, tornBody[:len(tornBody)-5]))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			typ, body, nbuf, err := ReadFrame(br, 0, buf)
			buf = nbuf
			if err != nil {
				break
			}
			// A frame that passed its CRC gets handed to the typed
			// parsers; none may panic, whatever the type byte claims.
			switch typ {
			case FrameHello:
				if h, err := ParseHello(body); err == nil {
					// Anything the parser accepts must re-encode to a
					// frame the parser accepts identically.
					_, rt := mustReadOne(t, AppendHello(nil, h))
					h2, err := ParseHello(rt)
					if err != nil || h2 != h {
						t.Fatalf("hello round-trip diverged: %+v -> %+v (%v)", h, h2, err)
					}
				}
			case FrameHelloOK:
				ParseHelloOK(body)
			case FrameSampleBatch:
				for w := 1; w <= 8; w++ {
					if it, err := ParseSampleBatch(body, w); err == nil {
						drainSampleBatch(t, &it, w)
					}
				}
			case FrameVerdictBatch:
				if it, err := ParseVerdictBatch(body); err == nil {
					drainVerdictBatch(t, &it)
				}
			case FrameShed:
				ParseShed(body)
			case FrameRetry:
				ParseRetry(body)
			case FrameDrain:
				ParseDrain(body)
			case FrameError:
				ParseError(body)
			}
		}
	})
}

// drainSampleBatch iterates a validated batch to exhaustion, checking
// the iterator honours its declared count exactly.
func drainSampleBatch(t *testing.T, it *SampleBatch, w int) {
	t.Helper()
	want := it.Len()
	buf := make([]uint64, w)
	got := 0
	for {
		_, vals, ok := it.Next(buf)
		if !ok {
			break
		}
		if len(vals) != w {
			t.Fatalf("sample batch record width %d, want %d", len(vals), w)
		}
		got++
	}
	if got != want {
		t.Fatalf("sample batch yielded %d records, declared %d", got, want)
	}
}

func drainVerdictBatch(t *testing.T, it *VerdictBatch) {
	t.Helper()
	want := it.Len()
	got := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		got++
	}
	if got != want {
		t.Fatalf("verdict batch yielded %d records, declared %d", got, want)
	}
}

// FuzzBatchIterators feeds raw bodies (no framing) straight to the
// batch record iterators — the surface the read loop trusts after CRC
// — so structural lies (overlong counts, mid-record truncation) can
// never panic or over-read regardless of how the bytes arrived.
func FuzzBatchIterators(f *testing.F) {
	f.Add([]byte{}, 4)
	f.Add([]byte{0, 0}, 4) // zero records: rejected
	f.Add([]byte{0, 10, 0, 0, 0, 1}, 4)
	full := AppendSampleBatch(nil, []uint32{1, 2}, []uint64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	f.Add(append([]byte(nil), full[headerSize:len(full)-crcSize]...), 4)
	vb := AppendVerdictBatch(nil, []Verdict{{Seq: 9, Interval: 9, Score: 1}})
	f.Add(append([]byte(nil), vb[headerSize:len(vb)-crcSize]...), 1)
	f.Fuzz(func(t *testing.T, body []byte, width int) {
		if width < 1 || width > MaxWidth {
			width = 1 + (width&0x7fffffff)%8
		}
		if it, err := ParseSampleBatch(body, width); err == nil {
			drainSampleBatch(t, &it, width)
		}
		if it, err := ParseVerdictBatch(body); err == nil {
			drainVerdictBatch(t, &it)
		}
	})
}

func mustReadOne(t *testing.T, wire []byte) (byte, []byte) {
	t.Helper()
	typ, body, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(wire)), 0, nil)
	if err != nil {
		t.Fatalf("re-encoded frame failed to decode: %v", err)
	}
	return typ, body
}
