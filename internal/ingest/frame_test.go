package ingest

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

func readOne(t *testing.T, wire []byte) (byte, []byte) {
	t.Helper()
	typ, body, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(wire)), 0, nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return typ, body
}

func TestFrameRoundTrips(t *testing.T) {
	t.Run("hello", func(t *testing.T) {
		in := Hello{Version: ProtoVersion, Width: 4, Horizon: 1000, Tenant: "acme", Stream: "web-7"}
		typ, body := readOne(t, AppendHello(nil, in))
		if typ != FrameHello {
			t.Fatalf("type %#x", typ)
		}
		got, err := ParseHello(body)
		if err != nil || got != in {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("hello-ok", func(t *testing.T) {
		in := HelloOK{Resume: 12345, Window: 64, Width: 4}
		typ, body := readOne(t, AppendHelloOK(nil, in))
		if typ != FrameHelloOK {
			t.Fatalf("type %#x", typ)
		}
		got, err := ParseHelloOK(body)
		if err != nil || got != in {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("sample", func(t *testing.T) {
		// A single sample travels as a SAMPLE_BATCH of one.
		vals := []uint64{1, 1 << 40, math.MaxUint64, 0}
		typ, body := readOne(t, AppendSampleBatch(nil, []uint32{77}, vals, 4))
		if typ != FrameSampleBatch {
			t.Fatalf("type %#x", typ)
		}
		it, err := ParseSampleBatch(body, 4)
		if err != nil || it.Len() != 1 {
			t.Fatalf("len %d err %v", it.Len(), err)
		}
		seq, got, ok := it.Next(make([]uint64, 4))
		if !ok || seq != 77 {
			t.Fatalf("seq %d ok %v", seq, ok)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("val %d: %d != %d", i, got[i], vals[i])
			}
		}
		if _, err := ParseSampleBatch(body, 5); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("width mismatch must be ErrBadFrame, got %v", err)
		}
	})
	t.Run("verdict", func(t *testing.T) {
		// A single verdict travels as a VERDICT_BATCH of one, bit for
		// bit (the score's float bits included).
		in := Verdict{Seq: 9, Interval: 11, Score: 0.875, Malware: true}
		typ, body := readOne(t, AppendVerdictBatch(nil, []Verdict{in}))
		if typ != FrameVerdictBatch {
			t.Fatalf("type %#x", typ)
		}
		it, err := ParseVerdictBatch(body)
		if err != nil || it.Len() != 1 {
			t.Fatalf("len %d err %v", it.Len(), err)
		}
		got, ok := it.Next()
		if !ok || got != in || math.Float64bits(got.Score) != math.Float64bits(in.Score) {
			t.Fatalf("got %+v ok %v", got, ok)
		}
	})
	t.Run("shed", func(t *testing.T) {
		in := Shed{Count: 3, LastSeq: 41}
		_, body := readOne(t, AppendShed(nil, in))
		got, err := ParseShed(body)
		if err != nil || got != in {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("retry", func(t *testing.T) {
		in := Retry{AfterMillis: 1500, Reason: "tenant stream limit"}
		_, body := readOne(t, AppendRetry(nil, in))
		got, err := ParseRetry(body)
		if err != nil || got != in {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("drain-error", func(t *testing.T) {
		_, body := readOne(t, AppendDrain(nil, "maintenance"))
		if r, err := ParseDrain(body); err != nil || r != "maintenance" {
			t.Fatalf("drain %q err %v", r, err)
		}
		_, body = readOne(t, AppendError(nil, "bad width"))
		if m, err := ParseError(body); err != nil || m != "bad width" {
			t.Fatalf("error %q err %v", m, err)
		}
	})
}

func TestBatchFrameRoundTrips(t *testing.T) {
	t.Run("sample-batch", func(t *testing.T) {
		const width = 4
		seqs := []uint32{10, 11, 12}
		vals := make([]uint64, len(seqs)*width)
		for i := range vals {
			vals[i] = uint64(i)*7 + 1
		}
		typ, body := readOne(t, AppendSampleBatch(nil, seqs, vals, width))
		if typ != FrameSampleBatch {
			t.Fatalf("type %#x", typ)
		}
		it, err := ParseSampleBatch(body, width)
		if err != nil {
			t.Fatal(err)
		}
		if it.Len() != len(seqs) {
			t.Fatalf("len %d, want %d", it.Len(), len(seqs))
		}
		buf := make([]uint64, width)
		for i, want := range seqs {
			seq, got, ok := it.Next(buf)
			if !ok || seq != want {
				t.Fatalf("record %d: seq %d ok %v, want %d", i, seq, ok, want)
			}
			for j := range got {
				if got[j] != vals[i*width+j] {
					t.Fatalf("record %d val %d: %d != %d", i, j, got[j], vals[i*width+j])
				}
			}
		}
		if _, _, ok := it.Next(buf); ok {
			t.Fatal("iterator yielded past its count")
		}
	})
	t.Run("verdict-batch", func(t *testing.T) {
		in := []Verdict{
			{Seq: 1, Interval: 1, Score: 0.25},
			{Seq: 2, Interval: 2, Score: 0.75, Malware: true},
			{Seq: 3, Interval: 5, Score: math.Inf(1)},
		}
		typ, body := readOne(t, AppendVerdictBatch(nil, in))
		if typ != FrameVerdictBatch {
			t.Fatalf("type %#x", typ)
		}
		it, err := ParseVerdictBatch(body)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range in {
			got, ok := it.Next()
			if !ok || got != want {
				t.Fatalf("record %d: %+v ok %v, want %+v", i, got, ok, want)
			}
		}
		if _, ok := it.Next(); ok {
			t.Fatal("iterator yielded past its count")
		}
	})
	t.Run("empty", func(t *testing.T) {
		// No sender emits a zero-record batch, so one on the wire is
		// malformed.
		_, body := readOne(t, AppendSampleBatch(nil, nil, nil, 4))
		if _, err := ParseSampleBatch(body, 4); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("empty sample batch: got %v, want ErrBadFrame", err)
		}
		_, body = readOne(t, AppendVerdictBatch(nil, nil))
		if _, err := ParseVerdictBatch(body); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("empty verdict batch: got %v, want ErrBadFrame", err)
		}
	})
}

func TestBatchParseRejects(t *testing.T) {
	// A count field promising more records than the body carries must
	// be rejected even though the frame CRC holds.
	overlong := []byte{0, 10, 0, 0, 0, 1}
	if _, err := ParseSampleBatch(overlong, 4); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("overlong sample count: got %v", err)
	}
	if _, err := ParseVerdictBatch(overlong); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("overlong verdict count: got %v", err)
	}
	// A body torn mid-record.
	full := AppendSampleBatch(nil, []uint32{1, 2}, []uint64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	body := full[headerSize : len(full)-crcSize]
	if _, err := ParseSampleBatch(body[:len(body)-5], 4); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn sample record: got %v", err)
	}
	// Width mismatch shifts every record boundary.
	if _, err := ParseSampleBatch(body, 5); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("width mismatch: got %v", err)
	}
	// A count beyond MaxBatchRecords, body sized to match.
	count := MaxBatchRecords + 1
	big := make([]byte, 2+count*12)
	big[0] = byte(count >> 8)
	big[1] = byte(count)
	if _, err := ParseSampleBatch(big, 1); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("count beyond MaxBatchRecords: got %v", err)
	}
}

// TestHelloOKBatchingFlag pins the flag byte's retirement: HELLO_OK is
// a fixed 8-byte body, and the 9-byte form that carried the protocol-2
// batching flag is malformed.
func TestHelloOKBatchingFlag(t *testing.T) {
	_, body := readOne(t, AppendHelloOK(nil, HelloOK{Resume: 5, Window: 32, Width: 4}))
	if len(body) != 8 {
		t.Fatalf("HELLO_OK body %d bytes, want 8", len(body))
	}
	flagged := append(append([]byte(nil), body...), 0x01)
	if _, err := ParseHelloOK(flagged); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("flagged 9-byte HELLO_OK: got %v, want ErrBadFrame", err)
	}
}

func TestParseHelloVersions(t *testing.T) {
	_, body := readOne(t, AppendHello(nil, Hello{Version: ProtoVersion, Width: 4, Tenant: "t", Stream: "s"}))
	if h, err := ParseHello(body); err != nil || h.Version != ProtoVersion {
		t.Fatalf("version %d: %+v err %v", ProtoVersion, h, err)
	}
	for _, v := range []byte{0, 1, 2, ProtoVersion + 1} {
		_, body := readOne(t, AppendHello(nil, Hello{Version: v, Width: 4, Tenant: "t", Stream: "s"}))
		if _, err := ParseHello(body); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d: got %v, want ErrBadVersion", v, err)
		}
	}
}

func TestSampleBatchLimit(t *testing.T) {
	if got := SampleBatchLimit(4); got != MaxBatchRecords {
		t.Fatalf("width 4 limit %d, want %d", got, MaxBatchRecords)
	}
	// Very wide vectors shrink the limit to what fits one frame.
	limit := SampleBatchLimit(MaxWidth)
	if limit < 1 || limit*(4+8*MaxWidth)+2+crcSize > MaxFrameBytes {
		t.Fatalf("width %d limit %d does not fit a frame", MaxWidth, limit)
	}
}

func TestFrameChecksumRejectsDamage(t *testing.T) {
	wires := [][]byte{
		AppendSampleBatch(nil, []uint32{5}, []uint64{1, 2, 3, 4}, 4),
		// One CRC covers every record of a batch: damage anywhere in
		// the frame is detected, however many records it carries.
		AppendSampleBatch(nil, []uint32{5, 6}, []uint64{1, 2, 3, 4, 5, 6, 7, 8}, 4),
		AppendVerdictBatch(nil, []Verdict{{Seq: 1, Interval: 1, Score: 0.5}, {Seq: 2, Interval: 2, Score: 1}}),
	}
	for wi, wire := range wires {
		for pos := 0; pos < len(wire); pos++ {
			bad := append([]byte(nil), wire...)
			bad[pos] ^= 0x40
			_, _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(bad)), 0, nil)
			if err == nil {
				t.Fatalf("wire %d: bit flip at byte %d went undetected", wi, pos)
			}
		}
	}
}

func TestFrameTornAndOversized(t *testing.T) {
	wire := AppendSampleBatch(nil, []uint32{5}, []uint64{1, 2, 3, 4}, 4)
	for cut := 1; cut < len(wire); cut++ {
		_, _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(wire[:cut])), 0, nil)
		if err == nil {
			t.Fatalf("torn frame at %d/%d bytes went undetected", cut, len(wire))
		}
		if cut >= headerSize && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("torn payload should surface the underlying read error, got %v", err)
		}
	}

	huge := []byte{FrameSampleBatch, 0xFF, 0xFF, 0xFF}
	_, _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(huge)), 0, nil)
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized length prefix: got %v", err)
	}

	runt := []byte{FrameBye, 0, 0, 2, 0, 0}
	_, _, _, err = ReadFrame(bufio.NewReader(bytes.NewReader(runt)), 0, nil)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("sub-CRC payload: got %v", err)
	}
}

func TestParseHelloRejects(t *testing.T) {
	cases := map[string]Hello{
		"bad version":  {Version: 99, Width: 4, Tenant: "t", Stream: "s"},
		"zero width":   {Version: ProtoVersion, Width: 0, Tenant: "t", Stream: "s"},
		"empty tenant": {Version: ProtoVersion, Width: 4, Stream: "s"},
		"empty stream": {Version: ProtoVersion, Width: 4, Tenant: "t"},
	}
	for name, h := range cases {
		_, body := readOne(t, AppendHello(nil, h))
		if _, err := ParseHello(body); err == nil {
			t.Fatalf("%s: ParseHello accepted %+v", name, h)
		}
	}
	// Oversized width is rejected even though it fits the u16.
	_, body := readOne(t, AppendHello(nil, Hello{Version: ProtoVersion, Width: MaxWidth + 1, Tenant: "t", Stream: "s"}))
	if _, err := ParseHello(body); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("width beyond MaxWidth: got %v", err)
	}
}

func TestReadFrameBufferReuse(t *testing.T) {
	var wire []byte
	wire = AppendSampleBatch(wire, []uint32{1}, []uint64{1, 2, 3, 4}, 4)
	wire = AppendSampleBatch(wire, []uint32{2}, []uint64{5, 6, 7, 8}, 4)
	br := bufio.NewReader(bytes.NewReader(wire))
	_, _, buf, err := ReadFrame(br, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, body, buf2, err := ReadFrame(br, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &buf[0] != &buf2[0] {
		t.Fatal("equal-size frames should reuse the recycled buffer")
	}
	it, err := ParseSampleBatch(body, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq, _, ok := it.Next(make([]uint64, 4)); !ok || seq != 2 {
		t.Fatalf("second frame: seq %d ok %v", seq, ok)
	}
}
