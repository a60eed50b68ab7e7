package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

// TestIngestBatchedRoundTrip drives the batch path end to end:
// Queue/Flush packs many samples behind one header + CRC, the server
// decodes the batch, and every verdict comes back in order — with the
// client spending far fewer Write calls than samples.
func TestIngestBatchedRoundTrip(t *testing.T) {
	h := startHarness(t, nil)
	c := dialStream(t, h.addr, "t", "s0", 0)
	const n = 48
	for seq := uint32(0); seq < n; seq++ {
		if err := c.Queue(seq, sampleVals(seq)); err != nil {
			t.Fatal(err)
		}
		if seq%16 == 15 {
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	vs := collectVerdicts(t, c, n)
	for i, v := range vs {
		if v.Seq != uint32(i) || v.Interval != uint32(i) {
			t.Fatalf("verdict %d out of order: %+v", i, v)
		}
	}
	st := h.srv.StatsSnapshot(false)
	if st.SampleBatches == 0 {
		t.Fatal("no SAMPLE_BATCH frames decoded despite batched client")
	}
	if w := c.WriteCalls(); w >= n {
		t.Fatalf("client spent %d writes for %d samples — batching bought nothing", w, n)
	}
	if st.WriteSyscalls == 0 {
		t.Fatal("server write syscall counter never moved")
	}
}

// TestIngestVersionNegotiation pins the one-version contract: a HELLO
// carrying any version but ProtoVersion — including the retired
// versions 1 and 2, which may send single SAMPLE frames — is refused
// at the handshake with an ERROR naming ErrBadVersion, and counted as
// a protocol error.
func TestIngestVersionNegotiation(t *testing.T) {
	h := startHarness(t, nil)
	for i, v := range []byte{1, 2, ProtoVersion + 1} {
		_, err := Dial(ClientConfig{
			Addr:  h.addr,
			Hello: Hello{Version: v, Width: testWidth, Tenant: "t", Stream: "s0"},
		})
		var rej *RejectedError
		if !errors.As(err, &rej) || rej.Event.Type != FrameError {
			t.Fatalf("version %d: got %v, want an ERROR rejection", v, err)
		}
		if !strings.Contains(rej.Event.Reason, ErrBadVersion.Error()) {
			t.Fatalf("version %d: ERROR %q does not name %v", v, rej.Event.Reason, ErrBadVersion)
		}
		if got := h.srv.StatsSnapshot(false).ProtoErrors; got != int64(i+1) {
			t.Fatalf("version %d: ProtoErrors %d, want %d", v, got, i+1)
		}
	}
	if st := h.srv.StatsSnapshot(false); st.Admissions != 0 {
		t.Fatalf("a refused version was admitted: %+v", st)
	}
}

// TestIngestRetiredSampleFrameRejected: a single SAMPLE frame (type
// 0x02, retired with protocol version 3) after admission is an
// unexpected frame — answered with ERROR and a close, counted as a
// protocol error, never decoded as a sample.
func TestIngestRetiredSampleFrameRejected(t *testing.T) {
	h := startHarness(t, nil)
	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	hello := AppendHello(nil, Hello{Version: ProtoVersion, Width: testWidth, Tenant: "t", Stream: "s0"})
	if _, err := nc.Write(hello); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err := ReadFrame(br, 0, nil)
	if err != nil || typ != FrameHelloOK {
		t.Fatalf("handshake: type %#x err %v", typ, err)
	}
	// A CRC-valid frame in the retired single-sample layout: seq u32
	// followed by the vector.
	body := binary.BigEndian.AppendUint32(nil, 0)
	for _, v := range sampleVals(0) {
		body = binary.BigEndian.AppendUint64(body, v)
	}
	if _, err := nc.Write(AppendFrame(nil, 0x02, body)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	sawError := false
	for {
		typ, body, _, err := ReadFrame(br, 0, nil)
		if err != nil {
			break // server closed the conn after the ERROR
		}
		if typ == FrameError {
			if msg, perr := ParseError(body); perr == nil && msg != "" {
				sawError = true
			}
		}
	}
	if !sawError {
		t.Fatal("retired SAMPLE frame drew no ERROR")
	}
	waitFor(t, "proto error accounting", func() bool {
		return h.srv.StatsSnapshot(false).ProtoErrors > 0
	})
	if st := h.srv.stream("t", "s0").stats(); st.Accepted != 0 {
		t.Fatalf("retired frame admitted %d samples", st.Accepted)
	}
}

// TestIngestBatchedShedAccounting mirrors TestIngestShedIsExplicit on
// the batch path: overload under SAMPLE_BATCH ingestion still surfaces
// as SHED frames whose counts reconcile exactly with the server's drop
// ledger — batching changes framing, never accounting.
func TestIngestBatchedShedAccounting(t *testing.T) {
	h := startHarness(t, func(fc *fleet.Config, sc *Config) {
		fc.Interval = 50 * time.Millisecond // slow wheel: the window fills
		sc.Window = 2
	})
	c := dialStream(t, h.addr, "t", "s0", 0)
	const n = 10
	for seq := uint32(0); seq < n; seq++ {
		if err := c.Queue(seq, sampleVals(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := h.srv.stream("t", "s0").stats()
		if st.Pending == 0 && st.Accepted == n && st.Attributed+st.RingShed == n {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := h.srv.stream("t", "s0").stats()
	if st.RingShed == 0 {
		t.Fatal("no shed despite window overload")
	}
	if st.Attributed+st.RingShed != st.Accepted {
		t.Fatalf("accounting leak: attributed %d + shed %d != accepted %d", st.Attributed, st.RingShed, st.Accepted)
	}
	var shed uint32
	for {
		ev, err := c.Next()
		if err != nil {
			break
		}
		if ev.Type == FrameShed {
			shed += ev.Shed.Count
		}
		if int64(shed) == st.RingShed {
			break
		}
	}
	if int64(shed) != st.RingShed {
		t.Fatalf("client saw %d shed, server dropped %d", shed, st.RingShed)
	}
}

// TestIngestBatchedByeFlushes: BYE after queued-but-unflushed samples
// must flush them first, and the server's soft close must deliver every
// verdict before the DRAIN("finished") notice.
func TestIngestBatchedByeFlushes(t *testing.T) {
	h := startHarness(t, nil)
	c := dialStream(t, h.addr, "t", "s0", 3)
	for seq := uint32(0); seq < 3; seq++ {
		if err := c.Queue(seq, sampleVals(seq)); err != nil {
			t.Fatal(err)
		}
	}
	// No explicit Flush: Bye is responsible for the stragglers.
	if err := c.Bye(); err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		ev, err := c.Next()
		if err != nil {
			t.Fatalf("after %d verdicts: %v", got, err)
		}
		if ev.Type == FrameVerdict {
			got++
			continue
		}
		if ev.Type == FrameDrain {
			if ev.Reason != "finished" {
				t.Fatalf("drain reason %q", ev.Reason)
			}
			break
		}
	}
	if got != 3 {
		t.Fatalf("DRAIN overtook verdicts: saw %d of 3", got)
	}
}

// --- writer coalescing unit tests ------------------------------------
//
// These drive conn's writer directly over a net.Pipe (synchronous, no
// kernel buffer), where flush timing is deterministic: a Write blocks
// until the test reads, so "mid-coalesce" states can be pinned exactly.

func newPipeConn(s *Server, nc net.Conn, depth int) *conn {
	return &conn{
		srv:      s,
		nc:       nc,
		out:      make(chan []byte, depth),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		vq:       make([]Verdict, depth),
		vscratch: make([]Verdict, 0, depth),
	}
}

func pipeServer() *Server {
	return &Server{cfg: Config{WriteTimeout: 5 * time.Second}, now: time.Now}
}

// readFrames reads frames off the pipe until wantEOF or n frames.
func readFrames(t *testing.T, nc net.Conn, n int) [][2][]byte {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(nc)
	var out [][2][]byte
	for len(out) < n {
		typ, body, _, err := ReadFrame(br, 0, nil)
		if err != nil {
			t.Fatalf("after %d frames: %v", len(out), err)
		}
		out = append(out, [2][]byte{{typ}, append([]byte(nil), body...)})
	}
	return out
}

// TestWriterCoalescesVerdictBatch: verdicts queued before the writer's
// wakeup leave as ONE VERDICT_BATCH frame in ONE Write.
func TestWriterCoalescesVerdictBatch(t *testing.T) {
	s := pipeServer()
	sp, cp := net.Pipe()
	defer cp.Close()
	c := newPipeConn(s, sp, 8)
	for i := 0; i < 5; i++ {
		if !c.sendVerdict(Verdict{Seq: uint32(i), Interval: uint32(i), Score: 0.5}) {
			t.Fatalf("sendVerdict %d refused", i)
		}
	}
	go c.writer()
	fs := readFrames(t, cp, 1)
	if fs[0][0][0] != FrameVerdictBatch {
		t.Fatalf("frame type %#x, want VERDICT_BATCH", fs[0][0][0])
	}
	it, err := ParseVerdictBatch(fs[0][1])
	if err != nil {
		t.Fatal(err)
	}
	if it.Len() != 5 {
		t.Fatalf("batch carried %d verdicts, want 5", it.Len())
	}
	for i := 0; ; i++ {
		v, ok := it.Next()
		if !ok {
			break
		}
		if v.Seq != uint32(i) {
			t.Fatalf("verdict %d reordered: %+v", i, v)
		}
	}
	if got := s.writeCalls.Load(); got != 1 {
		t.Fatalf("coalesced flush took %d writes, want 1", got)
	}
	if s.verdictBatches.Load() != 1 {
		t.Fatalf("verdictBatches %d, want 1", s.verdictBatches.Load())
	}
	c.close(true)
}

// TestWriterLegacyCoalescesSingles: verdicts handed to the conn one at
// a time — the traffic older clients received as single VERDICT frames
// — still coalesce: three queued before the wakeup leave as one
// VERDICT_BATCH in one Write, and a lone verdict after that flush
// leaves as a batch of one in its own Write. No single-verdict frame
// is ever emitted.
func TestWriterLegacyCoalescesSingles(t *testing.T) {
	s := pipeServer()
	sp, cp := net.Pipe()
	defer cp.Close()
	c := newPipeConn(s, sp, 8)
	for i := 0; i < 3; i++ {
		c.sendVerdict(Verdict{Seq: uint32(i), Interval: uint32(i)})
	}
	go c.writer()
	br := bufio.NewReader(cp)
	want := uint32(0)
	for round, n := range []int{3, 1} {
		if round == 1 {
			c.sendVerdict(Verdict{Seq: 3, Interval: 3})
		}
		typ, body, _, err := ReadFrame(br, 0, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if typ != FrameVerdictBatch {
			t.Fatalf("round %d: frame type %#x, want VERDICT_BATCH", round, typ)
		}
		it, err := ParseVerdictBatch(body)
		if err != nil || it.Len() != n {
			t.Fatalf("round %d: batch len %d err %v, want %d verdicts", round, it.Len(), err, n)
		}
		for v, ok := it.Next(); ok; v, ok = it.Next() {
			if v.Seq != want {
				t.Fatalf("round %d: verdict %+v, want seq %d", round, v, want)
			}
			want++
		}
		if got := s.writeCalls.Load(); got != int64(round+1) {
			t.Fatalf("round %d: %d writes, want %d", round, got, round+1)
		}
	}
	if s.verdictBatches.Load() != 2 {
		t.Fatalf("verdictBatches %d, want 2", s.verdictBatches.Load())
	}
	c.close(true)
}

// TestWriterSoftCloseFlushesPartialCoalesce: a soft close with both a
// half-built verdict batch and a queued control frame still flushes
// everything — verdicts first, then the control frame — before the
// socket closes.
func TestWriterSoftCloseFlushesPartialCoalesce(t *testing.T) {
	s := pipeServer()
	sp, cp := net.Pipe()
	defer cp.Close()
	c := newPipeConn(s, sp, 8)
	for i := 0; i < 3; i++ {
		c.sendVerdict(Verdict{Seq: uint32(i), Interval: uint32(i)})
	}
	if !c.trySend(AppendDrain(s.getBuf(), "finished")) {
		t.Fatal("trySend refused with room in the outbox")
	}
	c.close(false) // soft: the writer must drain, then close
	go c.writer()
	fs := readFrames(t, cp, 2)
	if fs[0][0][0] != FrameVerdictBatch {
		t.Fatalf("first frame %#x, want VERDICT_BATCH (DRAIN overtook verdicts)", fs[0][0][0])
	}
	if it, err := ParseVerdictBatch(fs[0][1]); err != nil || it.Len() != 3 {
		t.Fatalf("batch: %v len %d", err, it.Len())
	}
	if fs[1][0][0] != FrameDrain {
		t.Fatalf("second frame %#x, want DRAIN", fs[1][0][0])
	}
	if reason, err := ParseDrain(fs[1][1]); err != nil || reason != "finished" {
		t.Fatalf("drain: %q %v", reason, err)
	}
	// After the drain flush the writer closes the socket itself.
	cp.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bufio.NewReader(cp).ReadByte(); err == nil {
		t.Fatal("socket stayed open after soft-close drain")
	}
}

// blockingConn wraps a net.Conn and announces each Write entry, so a
// test can know the writer is wedged inside flush before poking at the
// queues — the "mid-coalesce" window made deterministic.
type blockingConn struct {
	net.Conn
	entered chan struct{}
}

func (b *blockingConn) Write(p []byte) (int, error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	return b.Conn.Write(p)
}

// TestWriterSlowEvictMidCoalesce: the verdict queue filling while the
// writer is blocked inside a flush must evict the connection exactly
// like the old outbox-full path — the bound survives coalescing.
func TestWriterSlowEvictMidCoalesce(t *testing.T) {
	s := pipeServer()
	sp, cp := net.Pipe()
	defer cp.Close()
	const depth = 2
	bc := &blockingConn{Conn: sp, entered: make(chan struct{}, 1)}
	c := newPipeConn(s, bc, depth)
	go c.writer()
	c.sendVerdict(Verdict{Seq: 0})
	select {
	case <-bc.entered: // writer is now blocked in Write: nobody reads cp
	case <-time.After(5 * time.Second):
		t.Fatal("writer never reached Write")
	}
	for i := 0; i < depth; i++ {
		if !c.sendVerdict(Verdict{Seq: uint32(i + 1)}) {
			t.Fatalf("fill %d refused before the queue was full", i)
		}
	}
	if c.sendVerdict(Verdict{Seq: 99}) {
		t.Fatal("send into a full verdict queue succeeded")
	}
	if !c.evicted.Load() {
		t.Fatal("queue overflow did not evict")
	}
	if got := s.slowReaders.Load(); got != 1 {
		t.Fatalf("slowReaders %d, want 1", got)
	}
	// Eviction hard-closes the socket, which unblocks the wedged Write
	// and terminates the writer; further sends stay refused.
	if c.sendVerdict(Verdict{Seq: 100}) {
		t.Fatal("send after eviction succeeded")
	}
}
