package ingest

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/source"
)

// netStream adapts one remote client's sample feed to the fleet
// engine's unified source contract. It implements source.BufferedSource
// (the shard reads buffered samples allocation-free) and source.Queued
// (the wheel only harvests it when a sample is pending, so a
// client-paced stream never fabricates readings and finishes once its
// producer hangs up and the buffer drains).
//
// The stream outlives any single connection: a disconnect — clean,
// crashed, or evicted for wire damage — leaves the stream and its chain
// state intact, and a reconnecting client re-attaches and resumes from
// the server's authoritative next sequence number. That separation is
// what makes mid-stream disconnects and torn frames survivable without
// perturbing the verdict timeline.
//
// Verdict attribution: the owning shard strictly alternates, per
// stream, between reading a sample (ReadInto) and emitting its verdict
// (onVerdict) on one goroutine, so a tiny FIFO of sequence stamps —
// pushed on pop, consumed on verdict — pairs each wire verdict with the
// exact sample that produced it. A verdict arriving with no stamp is a
// hold-last repair (breaker open, shed harvest, no sample read); those
// are counted, not echoed, since they answer no client sample.
type netStream struct {
	key    string // tenant/stream, the engine stream ID
	tenant string
	name   string
	width  int
	srv    *Server
	ring   *sampleRing

	// Stamp FIFO, owned by the shard goroutine (see type comment).
	stamps []uint32
	sHead  int
	sN     int

	mu      sync.Mutex
	cur     *conn  // attached connection, nil while detached
	nextSeq uint32 // next sample sequence the server accepts

	finished atomic.Bool

	accepted    atomic.Int64 // samples admitted into the ring
	dups        atomic.Int64 // samples rejected as replays (seq < next)
	throttled   atomic.Int64 // samples rejected by the tenant rate quota
	scored      atomic.Int64 // verdicts emitted by the engine
	attributed  atomic.Int64 // verdicts paired with a client sample
	held        atomic.Int64 // hold-last verdicts (no sample consumed)
	undelivered atomic.Int64 // attributed verdicts with no conn to echo to
	reattaches  atomic.Int64
}

func newNetStream(srv *Server, tenant, name string, width, window int) *netStream {
	return &netStream{
		key:    tenant + "/" + name,
		tenant: tenant,
		name:   name,
		width:  width,
		srv:    srv,
		ring:   newSampleRing(window, width),
		stamps: make([]uint32, window+1),
	}
}

// --- source contract (shard + wheel side) ---

// Read implements source.Source (allocating fallback path).
func (ns *netStream) Read(ctx context.Context, interval int) ([]uint64, error) {
	return ns.ReadInto(ctx, interval, make([]uint64, ns.width))
}

// ReadInto implements source.BufferedSource: it pops the oldest
// buffered sample into buf and stamps its sequence number for verdict
// attribution. Called only from the owning shard's goroutine.
func (ns *netStream) ReadInto(ctx context.Context, interval int, buf []uint64) ([]uint64, error) {
	if cap(buf) < ns.width {
		buf = make([]uint64, ns.width)
	}
	buf = buf[:ns.width]
	seq, ok := ns.ring.pop(buf)
	if !ok {
		// Harvested with nothing buffered (a shed window raced the
		// client): repair the interval, keep the timeline gap-free.
		return nil, source.ErrSampleLost
	}
	ns.pushStamp(seq)
	return buf, nil
}

// Pending implements source.Queued (wheel-poll, engine-lock hot).
func (ns *netStream) Pending() int { return ns.ring.Pending() }

// Closed implements source.Queued: true once the client said BYE (or
// the server force-closed the stream); buffered samples still score.
func (ns *netStream) Closed() bool { return ns.ring.Closed() }

func (ns *netStream) pushStamp(seq uint32) {
	if ns.sN == len(ns.stamps) {
		// Cannot happen in steady state (reads and verdicts alternate);
		// guard against overwrite anyway by dropping the oldest stamp.
		ns.sHead = (ns.sHead + 1) % len(ns.stamps)
		ns.sN--
	}
	ns.stamps[(ns.sHead+ns.sN)%len(ns.stamps)] = seq
	ns.sN++
}

func (ns *netStream) popStamp() uint32 {
	seq := ns.stamps[ns.sHead]
	ns.sHead = (ns.sHead + 1) % len(ns.stamps)
	ns.sN--
	return seq
}

// onVerdict is the engine's per-verdict callback (shard goroutine).
func (ns *netStream) onVerdict(v core.Verdict) {
	ns.scored.Add(1)
	if ns.sN == 0 {
		ns.held.Add(1)
		return
	}
	wire := Verdict{
		Seq:      ns.popStamp(),
		Interval: uint32(v.Interval),
		Score:    v.Score,
		Malware:  v.Malware,
	}
	ns.attributed.Add(1)
	ns.srv.deliverVerdict(ns, wire)
}

// onFinish is the engine's stream-finished callback. It may run under
// the engine's internal lock, so it only flips local state and pokes
// the attached connection's (non-blocking) outbox.
func (ns *netStream) onFinish() {
	ns.finished.Store(true)
	ns.srv.streamFinished(ns)
}

// --- connection side ---

// attach makes c the stream's delivery target, returning the resume
// position for HELLO_OK and any previously attached connection (which
// the caller evicts: latest attach wins).
func (ns *netStream) attach(c *conn) (resume uint32, old *conn) {
	ns.mu.Lock()
	old = ns.cur
	ns.cur = c
	resume = ns.nextSeq
	ns.mu.Unlock()
	if old != nil {
		ns.reattaches.Add(1)
	}
	return resume, old
}

// detach clears the delivery target if c still owns it.
func (ns *netStream) detach(c *conn) {
	ns.mu.Lock()
	if ns.cur == c {
		ns.cur = nil
	}
	ns.mu.Unlock()
}

// attachedConn returns the current delivery target.
func (ns *netStream) attachedConn() *conn {
	ns.mu.Lock()
	c := ns.cur
	ns.mu.Unlock()
	return c
}

// admitResult classifies one sample's admission.
type admitResult struct {
	dup     bool
	shed    bool
	shedSeq uint32
}

// admit validates and buffers one sample from the wire. Replays of
// already-admitted sequence numbers (a client's naive retry layer, or a
// duplicated frame injected on the wire) are dropped idempotently. The
// ring push happens under the stream lock so two connections racing a
// re-attach cannot interleave samples out of order.
func (ns *netStream) admit(seq uint32, vals []uint64) admitResult {
	ns.mu.Lock()
	if seq < ns.nextSeq {
		ns.mu.Unlock()
		ns.dups.Add(1)
		return admitResult{dup: true}
	}
	ns.nextSeq = seq + 1
	dropSeq, dropped := ns.ring.push(seq, vals)
	ns.mu.Unlock()
	ns.accepted.Add(1)
	return admitResult{shed: dropped, shedSeq: dropSeq}
}

// StreamStats is the externally visible state of one ingest stream.
type StreamStats struct {
	Key      string
	Tenant   string
	Width    int
	Attached bool
	Finished bool
	// NextSeq is the authoritative resume position; Pending the buffered
	// inflight depth.
	NextSeq uint32
	Pending int
	// Accepted samples entered the ring; Dups/Throttled were rejected at
	// admission; RingShed were evicted by the inflight window.
	Accepted  int64
	Dups      int64
	Throttled int64
	RingShed  int64
	// Verdicts is the engine timeline length; Attributed of those were
	// paired with a client sample (and echoed), Held were hold-last
	// repairs, Undelivered had no connection to echo to.
	Verdicts    int64
	Attributed  int64
	Held        int64
	Undelivered int64
	Reattaches  int64
}

func (ns *netStream) stats() StreamStats {
	ns.mu.Lock()
	next := ns.nextSeq
	attached := ns.cur != nil
	ns.mu.Unlock()
	return StreamStats{
		Key:         ns.key,
		Tenant:      ns.tenant,
		Width:       ns.width,
		Attached:    attached,
		Finished:    ns.finished.Load(),
		NextSeq:     next,
		Pending:     ns.ring.Pending(),
		Accepted:    ns.accepted.Load(),
		Dups:        ns.dups.Load(),
		Throttled:   ns.throttled.Load(),
		RingShed:    ns.ring.Dropped(),
		Verdicts:    ns.scored.Load(),
		Attributed:  ns.attributed.Load(),
		Held:        ns.held.Load(),
		Undelivered: ns.undelivered.Load(),
		Reattaches:  ns.reattaches.Load(),
	}
}
