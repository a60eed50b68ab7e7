// Package ingest is the network front door of the detection fleet: it
// accepts HPC feature vectors from remote clients over a compact
// length-prefixed binary framing on TCP and feeds them to the fleet
// engine through the unified source.Source interface, so a network
// stream rides the exact same zero-alloc scoring path as a simulated or
// replayed one. Samples and verdicts travel only in batch frames
// (SAMPLE_BATCH / VERDICT_BATCH); a single sample or verdict is a batch
// of one.
//
// Robustness is the design centre, because the front door is where
// hostile run-time conditions arrive first:
//
//   - Admission control: per-tenant token-bucket quotas on stream
//     admission and sample throughput, connection caps, and explicit
//     RETRY_AFTER frames — an over-quota client is told to back off,
//     never silently ignored.
//   - Deadline-aware reads: every frame must arrive within a read
//     deadline, so a slowloris client (bytes trickled forever) is
//     evicted instead of pinning a connection.
//   - Bounded inflight: each stream buffers at most a window of
//     samples; overload maps onto the fleet's drop-oldest shed
//     machinery and clients see SHED frames with exact counts.
//   - Wire fault tolerance: every frame carries a CRC32-C; torn or
//     corrupted frames evict the connection (the framing layer cannot
//     be trusted after a desync) but never the stream — a reconnecting
//     client re-attaches and resumes from the server's authoritative
//     position.
//   - Graceful drain: DRAIN frames tell clients to go away, the fleet
//     engine finishes buffered work, and chain states are checkpointed
//     so a restarted process resumes every verdict timeline.
package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// ProtoVersion is the one framing protocol version this code speaks:
// HELLO and JOIN must carry exactly it. Version 3 is batch-only; older
// peers, which may send single SAMPLE frames, are refused at the
// handshake with ErrBadVersion rather than part-way through a stream.
const ProtoVersion = 3

// Frame types. Client-to-server types have the high bit clear,
// server-to-client types have it set.
const (
	// FrameHello opens a stream: tenant, stream ID, vector width,
	// optional horizon. Must be the first frame on a connection.
	FrameHello byte = 0x01
	// FrameBye announces a clean end of stream: buffered samples are
	// still scored, then the stream finishes.
	FrameBye byte = 0x03
	// FrameSampleBatch carries N >= 1 contiguous sample records, each
	// one interval's counter vector, behind one header and one CRC.
	FrameSampleBatch byte = 0x04

	// FrameHelloOK admits the stream and tells the client where to
	// resume and how many samples it may keep in flight.
	FrameHelloOK byte = 0x81
	// FrameVerdict is not a wire frame: it is the Event.Type that
	// Client.Next reports for each record unpacked from a
	// VERDICT_BATCH.
	FrameVerdict byte = 0x82
	// FrameShed reports samples dropped by the inflight window —
	// explicit shed accounting, never silent loss.
	FrameShed byte = 0x83
	// FrameRetry rejects admission or throttles samples, with a
	// back-off hint in milliseconds.
	FrameRetry byte = 0x84
	// FrameDrain announces the server is draining (or the stream
	// finished): stop sending and reconnect elsewhere/later.
	FrameDrain byte = 0x85
	// FrameError reports a protocol violation; the connection closes
	// after it.
	FrameError byte = 0x86
	// FrameVerdictBatch carries N >= 1 contiguous verdict records, each
	// one scored sample's verdict, behind one header and one CRC.
	FrameVerdictBatch byte = 0x87
)

// Framing limits.
const (
	headerSize = 4
	crcSize    = 4
	// MaxFrameBytes is the hard cap on a frame's payload (body + CRC):
	// wide enough for any sane vector width, narrow enough that a
	// hostile length prefix cannot balloon server memory.
	MaxFrameBytes = 1 << 16
	// MaxStringLen caps tenant/stream/reason strings.
	MaxStringLen = 255
	// MaxWidth caps the declared vector width.
	MaxWidth = 1024
	// MaxBatchRecords caps the record count in one batch frame — deep
	// enough to amortize the per-frame syscall and CRC to noise, small
	// enough that one torn batch loses at most a window's worth of
	// samples (resume replays them like any other lost frame).
	MaxBatchRecords = 256
)

// Framing sentinels. Decoders wrap these with %w so transport code can
// classify failures with errors.Is.
var (
	// ErrBadFrame marks any structurally malformed frame.
	ErrBadFrame = errors.New("ingest: malformed frame")
	// ErrFrameTooBig marks a length prefix beyond MaxFrameBytes.
	ErrFrameTooBig = errors.New("ingest: frame exceeds size limit")
	// ErrChecksum marks a frame whose CRC32-C failed: bytes were
	// damaged in flight, the framing layer can no longer be trusted.
	ErrChecksum = errors.New("ingest: frame checksum mismatch")
	// ErrBadVersion marks a HELLO or JOIN whose version is not
	// ProtoVersion.
	ErrBadVersion = errors.New("ingest: unsupported protocol version")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one framed message (header, body, CRC32-C
// trailer) to dst and returns the extended slice. The CRC covers the
// type byte and the body, so a frame whose header was bit-flipped into
// another type also fails verification.
func AppendFrame(dst []byte, typ byte, body []byte) []byte {
	n := len(body) + crcSize
	dst = append(dst, typ, byte(n>>16), byte(n>>8), byte(n))
	dst = append(dst, body...)
	crc := crc32.Update(crc32.Checksum([]byte{typ}, crcTable), crcTable, body)
	return binary.BigEndian.AppendUint32(dst, crc)
}

// ReadFrame reads one frame from br, verifies its checksum and returns
// the type and body. buf is recycled storage for the payload (grown as
// needed); the returned body aliases it and is valid until the next
// call. max caps the payload length (0 means MaxFrameBytes). Errors
// wrap ErrFrameTooBig, ErrChecksum or the underlying I/O error; any
// error other than a clean io.EOF before the first header byte means
// the connection is desynced and must be closed.
func ReadFrame(br *bufio.Reader, max int, buf []byte) (typ byte, body, bufOut []byte, err error) {
	if max <= 0 {
		max = MaxFrameBytes
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	typ = hdr[0]
	n := int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	if n > max {
		return typ, nil, buf, fmt.Errorf("%w: %d bytes (max %d)", ErrFrameTooBig, n, max)
	}
	if n < crcSize {
		return typ, nil, buf, fmt.Errorf("%w: payload %d bytes, below CRC size", ErrBadFrame, n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		if err == io.EOF {
			// A header with no payload is still a torn frame, not a
			// clean end of stream.
			err = io.ErrUnexpectedEOF
		}
		return typ, nil, buf, fmt.Errorf("ingest: torn frame: %w", err)
	}
	body = buf[:n-crcSize]
	want := binary.BigEndian.Uint32(buf[n-crcSize:])
	got := crc32.Update(crc32.Checksum([]byte{typ}, crcTable), crcTable, body)
	if got != want {
		return typ, nil, buf, fmt.Errorf("%w: got %08x want %08x", ErrChecksum, got, want)
	}
	return typ, body, buf, nil
}

// Hello is the stream-opening handshake.
type Hello struct {
	Version byte
	// Width is the counter vector width every sample must carry; it
	// must match the serving chain's event width.
	Width int
	// Horizon, when positive, bounds the stream to that many samples.
	Horizon int
	// Tenant is the quota-accounting principal; Stream names the stream
	// within the tenant. Both are required, at most MaxStringLen bytes.
	Tenant string
	Stream string
}

// AppendHello appends a HELLO frame.
func AppendHello(dst []byte, h Hello) []byte {
	body := make([]byte, 0, 16+len(h.Tenant)+len(h.Stream))
	body = append(body, h.Version)
	body = binary.BigEndian.AppendUint16(body, uint16(h.Width))
	body = binary.BigEndian.AppendUint32(body, uint32(h.Horizon))
	body = appendString(body, h.Tenant)
	body = appendString(body, h.Stream)
	return AppendFrame(dst, FrameHello, body)
}

// ParseHello decodes a HELLO body.
func ParseHello(body []byte) (Hello, error) {
	var h Hello
	if len(body) < 7 {
		return h, fmt.Errorf("%w: hello body %d bytes", ErrBadFrame, len(body))
	}
	h.Version = body[0]
	if h.Version != ProtoVersion {
		return h, fmt.Errorf("%w: %d", ErrBadVersion, h.Version)
	}
	h.Width = int(binary.BigEndian.Uint16(body[1:3]))
	h.Horizon = int(binary.BigEndian.Uint32(body[3:7]))
	rest := body[7:]
	var err error
	if h.Tenant, rest, err = parseString(rest); err != nil {
		return h, fmt.Errorf("%w: hello tenant", errors.Unwrap(err))
	}
	if h.Stream, rest, err = parseString(rest); err != nil {
		return h, fmt.Errorf("%w: hello stream", errors.Unwrap(err))
	}
	if len(rest) != 0 {
		return h, fmt.Errorf("%w: %d trailing hello bytes", ErrBadFrame, len(rest))
	}
	if h.Tenant == "" || h.Stream == "" {
		return h, fmt.Errorf("%w: empty tenant or stream", ErrBadFrame)
	}
	if h.Width < 1 || h.Width > MaxWidth {
		return h, fmt.Errorf("%w: width %d", ErrBadFrame, h.Width)
	}
	return h, nil
}

// HelloOK is the admission reply.
type HelloOK struct {
	// Resume is the next sample index the server expects: 0 for a fresh
	// stream, the checkpointed verdict-timeline position after a
	// drain/restart, or one past the last admitted sample on re-attach.
	Resume int
	// Window is the per-stream inflight cap: samples the client may
	// have outstanding (sent but not yet verdict-ed) without risking
	// shed.
	Window int
	// Width echoes the serving chain's vector width.
	Width int
}

// AppendHelloOK appends a HELLO_OK frame (fixed 8-byte body).
func AppendHelloOK(dst []byte, ok HelloOK) []byte {
	var body [8]byte
	binary.BigEndian.PutUint32(body[0:4], uint32(ok.Resume))
	binary.BigEndian.PutUint16(body[4:6], uint16(ok.Window))
	binary.BigEndian.PutUint16(body[6:8], uint16(ok.Width))
	return AppendFrame(dst, FrameHelloOK, body[:])
}

// ParseHelloOK decodes a HELLO_OK body.
func ParseHelloOK(body []byte) (HelloOK, error) {
	if len(body) != 8 {
		return HelloOK{}, fmt.Errorf("%w: hello-ok body %d bytes", ErrBadFrame, len(body))
	}
	return HelloOK{
		Resume: int(binary.BigEndian.Uint32(body[0:4])),
		Window: int(binary.BigEndian.Uint16(body[4:6])),
		Width:  int(binary.BigEndian.Uint16(body[6:8])),
	}, nil
}

// finishFrame closes a frame whose header placeholder and body were
// appended in place at dst[start:] — it patches the length prefix and
// appends the CRC32-C over type + body. Building the body directly in
// dst is what keeps the batch encoders allocation-free.
func finishFrame(dst []byte, start int) []byte {
	n := len(dst) - start - headerSize + crcSize
	dst[start+1], dst[start+2], dst[start+3] = byte(n>>16), byte(n>>8), byte(n)
	crc := crc32.Update(crc32.Checksum(dst[start:start+1], crcTable), crcTable, dst[start+headerSize:])
	return binary.BigEndian.AppendUint32(dst, crc)
}

// SampleBatchLimit is the most sample records one SAMPLE_BATCH frame
// can carry at the given vector width: MaxBatchRecords, shrunk when
// wide vectors would overflow the frame size cap.
func SampleBatchLimit(width int) int {
	limit := (MaxFrameBytes - crcSize - 2) / (4 + 8*width)
	if limit > MaxBatchRecords {
		limit = MaxBatchRecords
	}
	if limit < 1 {
		limit = 1
	}
	return limit
}

// VerdictBatchLimit is the most verdict records one VERDICT_BATCH
// frame can carry.
const VerdictBatchLimit = MaxBatchRecords

// AppendSampleBatch appends one SAMPLE_BATCH frame: a u16 record count
// followed by len(seqs) contiguous sample records (seq u32 + width
// values), all behind a single header and CRC. vals holds the vectors
// back to back (len(seqs)*width values). The caller bounds len(seqs)
// by SampleBatchLimit(width); the body is built in place so a recycled
// dst makes the encode allocation-free.
func AppendSampleBatch(dst []byte, seqs []uint32, vals []uint64, width int) []byte {
	start := len(dst)
	dst = append(dst, FrameSampleBatch, 0, 0, 0)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(seqs)))
	for i, seq := range seqs {
		dst = binary.BigEndian.AppendUint32(dst, seq)
		for _, v := range vals[i*width : (i+1)*width] {
			dst = binary.BigEndian.AppendUint64(dst, v)
		}
	}
	return finishFrame(dst, start)
}

// SampleBatch iterates the records of a SAMPLE_BATCH body without
// allocating; it remains valid only as long as the body's backing
// buffer (typically until the next ReadFrame).
type SampleBatch struct {
	body  []byte
	width int
	n     int
}

// ParseSampleBatch validates a SAMPLE_BATCH body for the given width
// and returns its record iterator. The declared count must be at least
// one and match the body length exactly: a CRC-valid frame that is
// empty, whose count field promises more records than it carries, or
// that ends mid-record is malformed.
func ParseSampleBatch(body []byte, width int) (SampleBatch, error) {
	if len(body) < 2 {
		return SampleBatch{}, fmt.Errorf("%w: sample batch body %d bytes", ErrBadFrame, len(body))
	}
	n := int(binary.BigEndian.Uint16(body[:2]))
	if n == 0 || n > MaxBatchRecords {
		return SampleBatch{}, fmt.Errorf("%w: sample batch count %d (want 1..%d)", ErrBadFrame, n, MaxBatchRecords)
	}
	rec := 4 + 8*width
	if len(body)-2 != n*rec {
		return SampleBatch{}, fmt.Errorf("%w: sample batch %d bytes, want %d for %d records of width %d",
			ErrBadFrame, len(body)-2, n*rec, n, width)
	}
	return SampleBatch{body: body[2:], width: width, n: n}, nil
}

// Len returns how many records remain.
func (b *SampleBatch) Len() int { return b.n }

// Next decodes the next record into buf (capacity >= width, no
// allocation) and reports whether one was available.
func (b *SampleBatch) Next(buf []uint64) (seq uint32, vals []uint64, ok bool) {
	if b.n == 0 {
		return 0, nil, false
	}
	seq = binary.BigEndian.Uint32(b.body[:4])
	if cap(buf) < b.width {
		buf = make([]uint64, b.width)
	}
	vals = buf[:b.width]
	for i := range vals {
		vals[i] = binary.BigEndian.Uint64(b.body[4+8*i:])
	}
	b.body = b.body[4+8*b.width:]
	b.n--
	return seq, vals, true
}

// Verdict is one scored sample's result, echoed to the client.
type Verdict struct {
	// Seq is the client's sequence number for the scored sample.
	Seq uint32
	// Interval is the engine-side verdict-timeline position. Under
	// lossless operation Seq == Interval; after shed they diverge.
	Interval uint32
	// Score is the windowed malware score; Malware the thresholded
	// decision.
	Score   float64
	Malware bool
}

// appendVerdictRecord appends one fixed 17-byte verdict record.
func appendVerdictRecord(dst []byte, v Verdict) []byte {
	dst = binary.BigEndian.AppendUint32(dst, v.Seq)
	dst = binary.BigEndian.AppendUint32(dst, v.Interval)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Score))
	if v.Malware {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendVerdictBatch appends one VERDICT_BATCH frame: a u16 record
// count followed by len(vs) contiguous 17-byte verdict records behind
// a single header and CRC. The caller bounds len(vs) by
// VerdictBatchLimit; the body is built in place (allocation-free with
// a recycled dst).
func AppendVerdictBatch(dst []byte, vs []Verdict) []byte {
	start := len(dst)
	dst = append(dst, FrameVerdictBatch, 0, 0, 0)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(vs)))
	for _, v := range vs {
		dst = appendVerdictRecord(dst, v)
	}
	return finishFrame(dst, start)
}

// VerdictBatch iterates the records of a VERDICT_BATCH body without
// allocating; valid only while the body's backing buffer is.
type VerdictBatch struct {
	body []byte
	n    int
}

// ParseVerdictBatch validates a VERDICT_BATCH body and returns its
// record iterator; the declared count must be at least one and match
// the body length exactly.
func ParseVerdictBatch(body []byte) (VerdictBatch, error) {
	if len(body) < 2 {
		return VerdictBatch{}, fmt.Errorf("%w: verdict batch body %d bytes", ErrBadFrame, len(body))
	}
	n := int(binary.BigEndian.Uint16(body[:2]))
	if n == 0 || n > MaxBatchRecords {
		return VerdictBatch{}, fmt.Errorf("%w: verdict batch count %d (want 1..%d)", ErrBadFrame, n, MaxBatchRecords)
	}
	if len(body)-2 != n*17 {
		return VerdictBatch{}, fmt.Errorf("%w: verdict batch %d bytes, want %d for %d records",
			ErrBadFrame, len(body)-2, n*17, n)
	}
	return VerdictBatch{body: body[2:], n: n}, nil
}

// Len returns how many records remain.
func (b *VerdictBatch) Len() int { return b.n }

// Next decodes the next verdict record and reports whether one was
// available.
func (b *VerdictBatch) Next() (Verdict, bool) {
	if b.n == 0 {
		return Verdict{}, false
	}
	v := Verdict{
		Seq:      binary.BigEndian.Uint32(b.body[0:4]),
		Interval: binary.BigEndian.Uint32(b.body[4:8]),
		Score:    math.Float64frombits(binary.BigEndian.Uint64(b.body[8:16])),
		Malware:  b.body[16]&1 != 0,
	}
	b.body = b.body[17:]
	b.n--
	return v, true
}

// Shed reports inflight-window drops since the last notice.
type Shed struct {
	// Count is how many samples were dropped; LastSeq the sequence
	// number of the most recently dropped one.
	Count   uint32
	LastSeq uint32
}

// AppendShed appends a SHED frame.
func AppendShed(dst []byte, s Shed) []byte {
	var body [8]byte
	binary.BigEndian.PutUint32(body[0:4], s.Count)
	binary.BigEndian.PutUint32(body[4:8], s.LastSeq)
	return AppendFrame(dst, FrameShed, body[:])
}

// ParseShed decodes a SHED body.
func ParseShed(body []byte) (Shed, error) {
	if len(body) != 8 {
		return Shed{}, fmt.Errorf("%w: shed body %d bytes", ErrBadFrame, len(body))
	}
	return Shed{
		Count:   binary.BigEndian.Uint32(body[0:4]),
		LastSeq: binary.BigEndian.Uint32(body[4:8]),
	}, nil
}

// Retry is an admission rejection or throttle notice.
type Retry struct {
	// AfterMillis is the back-off hint.
	AfterMillis uint32
	Reason      string
}

// AppendRetry appends a RETRY frame.
func AppendRetry(dst []byte, r Retry) []byte {
	body := make([]byte, 0, 5+len(r.Reason))
	body = binary.BigEndian.AppendUint32(body, r.AfterMillis)
	body = appendString(body, r.Reason)
	return AppendFrame(dst, FrameRetry, body)
}

// ParseRetry decodes a RETRY body.
func ParseRetry(body []byte) (Retry, error) {
	if len(body) < 5 {
		return Retry{}, fmt.Errorf("%w: retry body %d bytes", ErrBadFrame, len(body))
	}
	reason, rest, err := parseString(body[4:])
	if err != nil || len(rest) != 0 {
		return Retry{}, fmt.Errorf("%w: retry reason", ErrBadFrame)
	}
	return Retry{AfterMillis: binary.BigEndian.Uint32(body[:4]), Reason: reason}, nil
}

// AppendDrain appends a DRAIN frame with the given reason.
func AppendDrain(dst []byte, reason string) []byte {
	return AppendFrame(dst, FrameDrain, appendString(nil, reason))
}

// ParseDrain decodes a DRAIN body.
func ParseDrain(body []byte) (string, error) {
	reason, rest, err := parseString(body)
	if err != nil || len(rest) != 0 {
		return "", fmt.Errorf("%w: drain reason", ErrBadFrame)
	}
	return reason, nil
}

// AppendError appends an ERROR frame with the given message.
func AppendError(dst []byte, msg string) []byte {
	if len(msg) > MaxStringLen {
		msg = msg[:MaxStringLen]
	}
	return AppendFrame(dst, FrameError, appendString(nil, msg))
}

// ParseError decodes an ERROR body.
func ParseError(body []byte) (string, error) {
	msg, rest, err := parseString(body)
	if err != nil || len(rest) != 0 {
		return "", fmt.Errorf("%w: error message", ErrBadFrame)
	}
	return msg, nil
}

// appendString appends a length-prefixed string (u8 length).
func appendString(dst []byte, s string) []byte {
	if len(s) > MaxStringLen {
		s = s[:MaxStringLen]
	}
	dst = append(dst, byte(len(s)))
	return append(dst, s...)
}

// parseString decodes a length-prefixed string, returning the rest.
func parseString(b []byte) (s string, rest []byte, err error) {
	if len(b) < 1 {
		return "", b, fmt.Errorf("%w: missing string length", ErrBadFrame)
	}
	n := int(b[0])
	if len(b) < 1+n {
		return "", b, fmt.Errorf("%w: string of %d bytes in %d", ErrBadFrame, n, len(b)-1)
	}
	return string(b[1 : 1+n]), b[1+n:], nil
}
