package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
)

// ErrServerClosed reports that Serve returned because Close was called
// — the ingest counterpart of net/http's sentinel, matched with
// errors.Is.
var ErrServerClosed = errors.New("ingest: server closed")

// Config parameterises an ingest server.
type Config struct {
	// Engine is the fleet engine streams are fed into. Required.
	Engine *fleet.Engine
	// Width is the serving chain's counter vector width; every HELLO
	// must declare it exactly. Required.
	Width int
	// Window is the per-stream inflight cap — the sample ring depth
	// between a connection and the stream's shard (<=0 means 64).
	Window int

	// HelloTimeout bounds how long a fresh connection may take to
	// produce a complete HELLO (<=0 means 2s).
	HelloTimeout time.Duration
	// ReadTimeout is the per-frame read deadline after the handshake: a
	// connection that cannot deliver a complete frame within it — the
	// slowloris shape, bytes trickling forever — is evicted (<=0 means
	// 10s).
	ReadTimeout time.Duration
	// WriteTimeout bounds each outbound frame write (<=0 means 5s).
	WriteTimeout time.Duration
	// OutboxDepth is the per-connection outbound frame queue (<=0 means
	// 128). A client that cannot keep up with its own verdict echo is
	// evicted when the queue fills.
	OutboxDepth int

	// MaxConns caps concurrent connections across all tenants (<=0
	// means 1024).
	MaxConns int
	// RetryMillis is the back-off hint carried in RETRY frames (<=0
	// means 1000).
	RetryMillis int
	// Quotas is the default per-tenant quota set; TenantQuotas
	// overrides it for named tenants.
	Quotas       Quotas
	TenantQuotas map[string]Quotas

	// Placement, when set, is consulted for every HELLO naming a stream
	// not already live on this server: it returns the owning node's
	// advertised ingest address and whether this server is that owner.
	// A non-local stream is answered with a REDIRECT frame carrying the
	// owner's address and the connection closes — clients follow the
	// cluster's placement instead of growing streams on the wrong node.
	// Streams already live here are served regardless (ownership moves
	// only through drain or failover, never under an attached client).
	// Nil means every stream is local (standalone server).
	Placement func(key string) (addr string, local bool)

	// Clock overrides time.Now for the quota buckets (tests).
	Clock func() time.Time
	// Logf, when set, receives one line per eviction/rejection.
	Logf func(format string, args ...any)
}

func (c Config) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return 64
}

func (c Config) helloTimeout() time.Duration {
	if c.HelloTimeout > 0 {
		return c.HelloTimeout
	}
	return 2 * time.Second
}

func (c Config) readTimeout() time.Duration {
	if c.ReadTimeout > 0 {
		return c.ReadTimeout
	}
	return 10 * time.Second
}

func (c Config) writeTimeout() time.Duration {
	if c.WriteTimeout > 0 {
		return c.WriteTimeout
	}
	return 5 * time.Second
}

func (c Config) outboxDepth() int {
	if c.OutboxDepth > 0 {
		return c.OutboxDepth
	}
	return 128
}

func (c Config) maxConns() int {
	if c.MaxConns > 0 {
		return c.MaxConns
	}
	return 1024
}

func (c Config) retryMillis() uint32 {
	if c.RetryMillis > 0 {
		return uint32(c.RetryMillis)
	}
	return 1000
}

// Server is the TCP front door: it admits client streams subject to
// per-tenant quotas, bridges their samples into the fleet engine, and
// echoes verdicts back. One Server serves many listeners; streams
// outlive connections.
type Server struct {
	cfg     Config
	eng     *fleet.Engine
	quotaOf func(tenant string) Quotas
	now     func() time.Time

	bufPool sync.Pool // outbound frame buffers

	mu      sync.Mutex
	lns     map[net.Listener]struct{}
	conns   map[*conn]struct{}
	streams map[string]*netStream
	tenants map[string]*tenant
	closed  bool

	draining  atomic.Bool
	connCount atomic.Int64
	wg        sync.WaitGroup

	connsAccepted atomic.Int64
	connsEvicted  atomic.Int64
	slowloris     atomic.Int64
	slowReaders   atomic.Int64
	wireErrors    atomic.Int64
	protoErrors   atomic.Int64
	admissions    atomic.Int64
	reattaches    atomic.Int64
	drainRejects  atomic.Int64
	widthRejects  atomic.Int64
	capRejects    atomic.Int64
	redirects     atomic.Int64

	writeCalls     atomic.Int64 // socket Write invocations (syscall proxy)
	sampleBatches  atomic.Int64 // SAMPLE_BATCH frames decoded
	verdictBatches atomic.Int64 // VERDICT_BATCH frames emitted
}

// NewServer validates cfg and builds a server. The engine is borrowed,
// not owned: the caller runs and stops it.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("ingest: config needs a fleet engine")
	}
	if cfg.Width < 1 || cfg.Width > MaxWidth {
		return nil, fmt.Errorf("ingest: invalid vector width %d", cfg.Width)
	}
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	s := &Server{
		cfg:     cfg,
		eng:     cfg.Engine,
		now:     now,
		lns:     make(map[net.Listener]struct{}),
		conns:   make(map[*conn]struct{}),
		streams: make(map[string]*netStream),
		tenants: make(map[string]*tenant),
	}
	s.quotaOf = func(name string) Quotas {
		if q, ok := cfg.TenantQuotas[name]; ok {
			return q
		}
		return cfg.Quotas
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until the listener fails or Close is
// called (then it returns ErrServerClosed). A draining server still
// accepts — rejecting with an explicit DRAIN frame beats a silent
// connection refusal.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return ErrServerClosed
			}
			return fmt.Errorf("ingest: accept: %w", err)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(nc)
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Drain moves the server (and its engine) into drain mode: new
// admissions are refused with DRAIN frames, attached clients are told
// to stop, and the engine finishes every stream's buffered work so the
// final checkpoint captures a complete, gap-free timeline per stream.
func (s *Server) Drain(reason string) {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	s.eng.Drain()
	frame := AppendDrain(nil, reason)
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.trySend(append([]byte(nil), frame...))
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the listeners and hard-closes every connection. Streams
// and the engine are left to the caller (use Drain for the graceful
// path).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns := make([]net.Listener, 0, len(s.lns))
	for ln := range s.lns {
		lns = append(lns, ln)
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.close(true)
	}
	s.wg.Wait()
	return nil
}

func (s *Server) getBuf() []byte {
	if v := s.bufPool.Get(); v != nil {
		return v.([]byte)
	}
	return make([]byte, 0, 128)
}

func (s *Server) putBuf(b []byte) {
	if cap(b) <= MaxFrameBytes {
		s.bufPool.Put(b[:0]) //nolint:staticcheck // []byte values are fine here
	}
}

// deliverVerdict echoes one attributed verdict to the stream's attached
// connection (shard goroutine). No connection means the client is
// between attaches; the verdict is counted, not queued — the
// authoritative timeline lives server-side.
func (s *Server) deliverVerdict(ns *netStream, v Verdict) {
	c := ns.attachedConn()
	if c == nil {
		ns.undelivered.Add(1)
		return
	}
	c.sendVerdict(v)
}

// streamFinished reacts to the engine finishing a stream: the tenant's
// stream slot frees, and the attached client (if any) gets a DRAIN
// notice and a flush-then-close. May run under the engine's internal
// lock — everything here is non-blocking.
func (s *Server) streamFinished(ns *netStream) {
	s.mu.Lock()
	t := s.tenants[ns.tenant]
	s.mu.Unlock()
	if t != nil {
		t.releaseStream()
	}
	if c := ns.attachedConn(); c != nil {
		c.trySend(AppendDrain(s.getBuf(), "finished"))
		c.close(false)
	}
}

// slowEvict drops a connection whose outbox filled: it cannot keep up
// with its own verdict stream, and an unbounded queue would let one
// slow reader hold server memory hostage.
func (s *Server) slowEvict(c *conn) {
	if c.evicted.CompareAndSwap(false, true) {
		s.slowReaders.Add(1)
		s.connsEvicted.Add(1)
		s.logf("ingest: evicting %s: slow reader (outbox full)", c.name())
		c.close(true)
	}
}

// conn is one TCP connection's state: the reader loop runs in
// handleConn, a writer goroutine coalesces and flushes everything
// outbound, and done coordinates shutdown without ever closing out
// (senders race detach).
//
// Outbound traffic splits into two bounded queues the writer drains
// per wakeup: verdicts land in vq as structs (the writer encodes them
// into VERDICT_BATCH frames) and control frames (SHED, RETRY, DRAIN,
// ERROR) ride out pre-framed. Either queue filling means the client
// cannot keep up with its own verdict stream — vq-full evicts exactly
// like the old outbox-full path.
type conn struct {
	srv  *Server
	nc   net.Conn
	ns   *netStream
	ten  *tenant
	out  chan []byte
	wake chan struct{}
	done chan struct{}

	vmu         sync.Mutex
	vq          []Verdict // verdict ring buffer, capacity == OutboxDepth
	vqHead, vqN int
	vscratch    []Verdict // writer-owned drain scratch, capacity == len(vq)

	closeOnce sync.Once
	evicted   atomic.Bool
}

func (c *conn) name() string {
	if c.ns != nil {
		return c.ns.key
	}
	return c.nc.RemoteAddr().String()
}

// close shuts the connection down. hard closes the socket immediately
// (evictions); soft lets the writer flush queued frames first (the
// DRAIN-on-finish path), after which it closes the socket itself.
func (c *conn) close(hard bool) {
	c.closeOnce.Do(func() { close(c.done) })
	if hard {
		c.nc.Close()
	}
}

// sendVerdict queues one verdict for the writer to encode, evicting
// the connection when the verdict queue is full (slow verdict reader —
// the same bound the pre-batching outbox enforced).
func (c *conn) sendVerdict(v Verdict) bool {
	c.vmu.Lock()
	if c.vqN == len(c.vq) {
		c.vmu.Unlock()
		c.srv.slowEvict(c)
		return false
	}
	c.vq[(c.vqHead+c.vqN)%len(c.vq)] = v
	c.vqN++
	c.vmu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
	return true
}

// takeVerdicts drains the verdict queue into the writer's scratch
// slice (writer goroutine only; scratch capacity equals the queue's,
// so one call empties it).
func (c *conn) takeVerdicts() []Verdict {
	c.vmu.Lock()
	vs := c.vscratch[:0]
	for c.vqN > 0 {
		vs = append(vs, c.vq[c.vqHead])
		c.vqHead = (c.vqHead + 1) % len(c.vq)
		c.vqN--
	}
	c.vmu.Unlock()
	return vs
}

// trySend queues a control frame best-effort: dropped (not evicting)
// when the outbox is full, so shed/retry notices under storm conditions
// cannot amplify into eviction churn.
func (c *conn) trySend(f []byte) bool {
	select {
	case c.out <- f:
		select {
		case c.wake <- struct{}{}:
		default:
		}
		return true
	case <-c.done:
		c.srv.putBuf(f)
		return false
	default:
		c.srv.putBuf(f)
		return false
	}
}

// writeNow writes one frame synchronously — handshake replies, before
// the writer goroutine exists.
func (c *conn) writeNow(f []byte) error {
	defer c.srv.putBuf(f)
	if err := c.nc.SetWriteDeadline(c.srv.now().Add(c.srv.cfg.writeTimeout())); err != nil {
		return err
	}
	c.srv.writeCalls.Add(1)
	_, err := c.nc.Write(f)
	return err
}

// appendVerdicts encodes drained verdicts into buf as VERDICT_BATCH
// frames of at most VerdictBatchLimit records each; nothing drained
// means nothing appended, so no batch is ever empty.
func (c *conn) appendVerdicts(buf []byte, vs []Verdict) []byte {
	for len(vs) > 0 {
		n := min(len(vs), VerdictBatchLimit)
		buf = AppendVerdictBatch(buf, vs[:n])
		c.srv.verdictBatches.Add(1)
		vs = vs[n:]
	}
	return buf
}

// gather coalesces everything currently outbound into buf: queued
// verdicts first (encoded as VERDICT_BATCH frames), then every
// control frame waiting in the outbox. Verdicts-first matters — a
// DRAIN("finished") queued after a stream's last verdict must never
// overtake it onto the wire.
func (c *conn) gather(buf []byte) []byte {
	buf = c.appendVerdicts(buf, c.takeVerdicts())
	for {
		select {
		case f := <-c.out:
			buf = append(buf, f...)
			c.srv.putBuf(f)
		default:
			return buf
		}
	}
}

// flush writes the coalesced buffer with one deadline and one Write
// call. A deadline or write failure closes the socket and reports
// false (the writer exits).
func (c *conn) flush(buf []byte) bool {
	if err := c.nc.SetWriteDeadline(c.srv.now().Add(c.srv.cfg.writeTimeout())); err != nil {
		c.nc.Close()
		return false
	}
	c.srv.writeCalls.Add(1)
	if _, err := c.nc.Write(buf); err != nil {
		c.nc.Close()
		return false
	}
	return true
}

// writer coalesces outbound traffic: each wakeup greedily drains the
// verdict queue and the control outbox into one buffer and flushes it
// with a single SetWriteDeadline + Write — wire cost O(flush), not
// O(frame). On done it flushes whatever is queued (soft close: a
// partially coalesced buffer still reaches the client), then closes
// the socket.
func (c *conn) writer() {
	wbuf := make([]byte, 0, 4096)
	for {
		select {
		case <-c.wake:
		case f := <-c.out:
			// Verdicts queued before this control frame must hit the
			// wire first (see gather).
			wbuf = c.appendVerdicts(wbuf[:0], c.takeVerdicts())
			wbuf = append(wbuf, f...)
			c.srv.putBuf(f)
			wbuf = c.gather(wbuf)
			if !c.flush(wbuf) {
				return
			}
			continue
		case <-c.done:
			for {
				wbuf = c.gather(wbuf[:0])
				if len(wbuf) == 0 {
					c.nc.Close()
					return
				}
				if !c.flush(wbuf) {
					return
				}
			}
		}
		wbuf = c.gather(wbuf[:0])
		if len(wbuf) == 0 {
			continue
		}
		if !c.flush(wbuf) {
			return
		}
	}
}

// handleConn owns one connection end to end: handshake, admission,
// read loop, cleanup.
func (s *Server) handleConn(nc net.Conn) {
	s.connsAccepted.Add(1)
	depth := s.cfg.outboxDepth()
	c := &conn{
		srv:      s,
		nc:       nc,
		out:      make(chan []byte, depth),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		vq:       make([]Verdict, depth),
		vscratch: make([]Verdict, 0, depth),
	}

	if n := s.connCount.Add(1); n > int64(s.cfg.maxConns()) {
		s.connCount.Add(-1)
		s.capRejects.Add(1)
		c.writeNow(AppendRetry(s.getBuf(), Retry{AfterMillis: s.cfg.retryMillis(), Reason: "server connection limit"}))
		nc.Close()
		return
	}
	defer s.connCount.Add(-1)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	admitted := false
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		if c.ns != nil {
			c.ns.detach(c)
		}
		if c.ten != nil {
			c.ten.releaseConn()
		}
		// Soft close: the writer flushes queued frames (an ERROR notice
		// racing an eviction must still reach the client) and then
		// closes the socket itself. With no writer started yet, close
		// directly.
		c.close(false)
		if !admitted {
			nc.Close()
		}
	}()

	br := bufio.NewReaderSize(nc, 4096)
	if !s.handshake(c, br) {
		return
	}

	admitted = true
	go c.writer()
	s.readLoop(c, br)
}

// handshake reads and answers the HELLO, performing every admission
// check. It reports whether the connection was admitted (reader loop
// should start).
func (s *Server) handshake(c *conn, br *bufio.Reader) bool {
	nc := c.nc
	nc.SetReadDeadline(s.now().Add(s.cfg.helloTimeout()))
	typ, body, _, err := ReadFrame(br, MaxFrameBytes, nil)
	if err != nil {
		s.wireErrors.Add(1)
		s.logf("ingest: %s: handshake read: %v", nc.RemoteAddr(), err)
		return false
	}
	if typ != FrameHello {
		s.protoErrors.Add(1)
		c.writeNow(AppendError(s.getBuf(), "expected HELLO"))
		return false
	}
	h, err := ParseHello(body)
	if err != nil {
		s.protoErrors.Add(1)
		c.writeNow(AppendError(s.getBuf(), err.Error()))
		return false
	}
	if s.draining.Load() {
		s.drainRejects.Add(1)
		c.writeNow(AppendDrain(s.getBuf(), "draining"))
		return false
	}
	if h.Width != s.cfg.Width {
		s.widthRejects.Add(1)
		c.writeNow(AppendError(s.getBuf(), fmt.Sprintf("width %d, serving chain wants %d", h.Width, s.cfg.Width)))
		return false
	}

	s.mu.Lock()
	t := s.tenants[h.Tenant]
	if t == nil {
		t = newTenant(h.Tenant, s.quotaOf(h.Tenant), s.now)
		s.tenants[h.Tenant] = t
	}
	s.mu.Unlock()
	if !t.admitConn() {
		c.writeNow(AppendRetry(s.getBuf(), Retry{AfterMillis: s.cfg.retryMillis(), Reason: "tenant connection limit"}))
		return false
	}
	c.ten = t

	key := h.Tenant + "/" + h.Stream
	s.mu.Lock()
	ns := s.streams[key]
	s.mu.Unlock()

	if ns != nil {
		// Re-attach: the stream survived a disconnect (or another
		// connection claims it — latest wins). Not charged against the
		// admission bucket.
		if ns.finished.Load() {
			c.writeNow(AppendError(s.getBuf(), "stream finished (IDs are not reusable)"))
			return false
		}
		resume, old := ns.attach(c)
		if old != nil {
			old.evicted.Store(true)
			s.connsEvicted.Add(1)
			old.close(true)
		}
		c.ns = ns
		s.reattaches.Add(1)
		if err := c.writeNow(AppendHelloOK(s.getBuf(), HelloOK{Resume: int(resume), Window: s.cfg.window(), Width: s.cfg.Width})); err != nil {
			return false
		}
		return true
	}

	// New stream: honour cluster placement before charging any quota.
	// Re-attaches above bypass this on purpose — a live local stream is
	// served until the cluster drains or fails this node over.
	if s.cfg.Placement != nil {
		if addr, local := s.cfg.Placement(key); !local {
			s.redirects.Add(1)
			c.writeNow(AppendRedirect(s.getBuf(), Redirect{Addr: addr, Reason: "stream placement"}))
			return false
		}
	}

	ok, overRate := t.admitStream()
	if !ok {
		reason := "tenant stream limit"
		if overRate {
			reason = "tenant admission rate"
		}
		c.writeNow(AppendRetry(s.getBuf(), Retry{AfterMillis: s.cfg.retryMillis(), Reason: reason}))
		return false
	}

	ns = newNetStream(s, h.Tenant, h.Stream, s.cfg.Width, s.cfg.window())
	// A checkpointed chain state waiting under this ID fixes the resume
	// position: the client continues the verdict timeline where the
	// previous process left it.
	if iv, restored := s.eng.RestoredInterval(key); restored {
		ns.nextSeq = uint32(iv)
	}
	err = s.eng.Add(fleet.StreamConfig{
		ID:        key,
		Source:    ns,
		Intervals: h.Horizon,
		OnVerdict: ns.onVerdict,
		OnFinish:  ns.onFinish,
	})
	if err != nil {
		t.releaseStream()
		switch {
		case errors.Is(err, fleet.ErrDraining):
			s.drainRejects.Add(1)
			c.writeNow(AppendDrain(s.getBuf(), "draining"))
		default:
			s.protoErrors.Add(1)
			c.writeNow(AppendError(s.getBuf(), err.Error()))
		}
		return false
	}
	resume, _ := ns.attach(c)
	c.ns = ns
	s.mu.Lock()
	s.streams[key] = ns
	s.mu.Unlock()
	s.admissions.Add(1)
	if err := c.writeNow(AppendHelloOK(s.getBuf(), HelloOK{Resume: int(resume), Window: s.cfg.window(), Width: s.cfg.Width})); err != nil {
		return false
	}
	return true
}

// readLoop pumps frames until disconnect or eviction. Every frame must
// arrive whole within ReadTimeout; wire damage of any kind evicts the
// connection (the framing layer cannot be trusted after a desync) but
// never the stream.
func (s *Server) readLoop(c *conn, br *bufio.Reader) {
	ns := c.ns
	t := c.ten
	var (
		rbuf []byte
		vbuf = make([]uint64, s.cfg.Width)
	)
	for {
		c.nc.SetReadDeadline(s.now().Add(s.cfg.readTimeout()))
		typ, body, nbuf, err := ReadFrame(br, MaxFrameBytes, rbuf)
		rbuf = nbuf
		if err != nil {
			var ne net.Error
			switch {
			case errors.As(err, &ne) && ne.Timeout():
				s.slowloris.Add(1)
				s.connsEvicted.Add(1)
				s.logf("ingest: evicting %s: no complete frame within %v", c.name(), s.cfg.readTimeout())
			case errors.Is(err, ErrChecksum), errors.Is(err, ErrBadFrame), errors.Is(err, ErrFrameTooBig):
				s.wireErrors.Add(1)
				s.connsEvicted.Add(1)
				c.trySend(AppendError(s.getBuf(), err.Error()))
				s.logf("ingest: evicting %s: %v", c.name(), err)
			default:
				// EOF / reset / torn frame: plain disconnect. The stream
				// stays; the client may re-attach.
				if !errors.Is(err, net.ErrClosed) {
					s.logf("ingest: %s disconnected: %v", c.name(), err)
				}
			}
			c.close(false)
			return
		}
		switch typ {
		case FrameSampleBatch:
			it, perr := ParseSampleBatch(body, s.cfg.Width)
			if perr != nil {
				s.wireErrors.Add(1)
				s.connsEvicted.Add(1)
				c.trySend(AppendError(s.getBuf(), perr.Error()))
				c.close(false)
				return
			}
			s.sampleBatches.Add(1)
			// Admission is per record; shed and throttle notices
			// aggregate to one frame per batch so notice traffic stays
			// O(batch).
			var (
				shed      Shed
				throttled int
			)
			for {
				seq, vals, ok := it.Next(vbuf)
				if !ok {
					break
				}
				if !t.admitSample() {
					ns.throttled.Add(1)
					throttled++
					continue
				}
				if res := ns.admit(seq, vals); res.shed {
					shed.Count++
					shed.LastSeq = res.shedSeq
				}
			}
			if throttled > 0 {
				c.trySend(AppendRetry(s.getBuf(), Retry{AfterMillis: s.cfg.retryMillis(), Reason: "tenant sample rate"}))
			}
			if shed.Count > 0 {
				c.trySend(AppendShed(s.getBuf(), shed))
			}
		case FrameBye:
			// Clean end of stream: buffered samples still score; the
			// engine's finish path sends DRAIN("finished") and closes.
			ns.ring.Close()
		case FrameHello:
			s.protoErrors.Add(1)
			c.trySend(AppendError(s.getBuf(), "duplicate HELLO"))
			c.close(false)
			return
		default:
			s.protoErrors.Add(1)
			c.trySend(AppendError(s.getBuf(), fmt.Sprintf("unexpected frame type 0x%02x", typ)))
			c.close(false)
			return
		}
	}
}

// Stats is a point-in-time snapshot of the ingest plane.
type Stats struct {
	Draining bool
	// Conns is the current connection count; Streams how many streams
	// the server has ever admitted (finished ones included).
	Conns   int
	Streams int

	ConnsAccepted       int64
	ConnsEvicted        int64
	SlowlorisEvictions  int64
	SlowReaderEvictions int64
	WireErrors          int64
	ProtoErrors         int64

	Admissions   int64
	Reattaches   int64
	DrainRejects int64
	WidthRejects int64
	CapRejects   int64
	Redirects    int64

	SamplesAccepted  int64
	SamplesDup       int64
	SamplesThrottled int64
	SamplesShed      int64

	Verdicts            int64
	VerdictsAttributed  int64
	VerdictsHeld        int64
	VerdictsUndelivered int64

	// WriteSyscalls counts socket Write invocations (coalesced flushes
	// and handshake replies). SampleBatches/VerdictBatches count batch
	// frames decoded/emitted.
	WriteSyscalls  int64
	SampleBatches  int64
	VerdictBatches int64

	Tenants   []TenantStats
	PerStream []StreamStats `json:",omitempty"`
}

// StatsSnapshot builds the snapshot; includeStreams adds the O(streams)
// per-stream breakdown.
func (s *Server) StatsSnapshot(includeStreams bool) Stats {
	st := Stats{
		Draining:            s.draining.Load(),
		Conns:               int(s.connCount.Load()),
		ConnsAccepted:       s.connsAccepted.Load(),
		ConnsEvicted:        s.connsEvicted.Load(),
		SlowlorisEvictions:  s.slowloris.Load(),
		SlowReaderEvictions: s.slowReaders.Load(),
		WireErrors:          s.wireErrors.Load(),
		ProtoErrors:         s.protoErrors.Load(),
		Admissions:          s.admissions.Load(),
		Reattaches:          s.reattaches.Load(),
		DrainRejects:        s.drainRejects.Load(),
		WidthRejects:        s.widthRejects.Load(),
		CapRejects:          s.capRejects.Load(),
		Redirects:           s.redirects.Load(),
		WriteSyscalls:       s.writeCalls.Load(),
		SampleBatches:       s.sampleBatches.Load(),
		VerdictBatches:      s.verdictBatches.Load(),
	}
	s.mu.Lock()
	st.Streams = len(s.streams)
	streams := make([]*netStream, 0, len(s.streams))
	for _, ns := range s.streams {
		streams = append(streams, ns)
	}
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()
	for _, ns := range streams {
		ss := ns.stats()
		st.SamplesAccepted += ss.Accepted
		st.SamplesDup += ss.Dups
		st.SamplesThrottled += ss.Throttled
		st.SamplesShed += ss.RingShed
		st.Verdicts += ss.Verdicts
		st.VerdictsAttributed += ss.Attributed
		st.VerdictsHeld += ss.Held
		st.VerdictsUndelivered += ss.Undelivered
		if includeStreams {
			st.PerStream = append(st.PerStream, ss)
		}
	}
	for _, t := range tenants {
		st.Tenants = append(st.Tenants, t.stats())
	}
	return st
}

// NodeStatsSnapshot condenses the server's counters into the compact
// per-node aggregate that cluster heartbeats carry.
func (s *Server) NodeStatsSnapshot() NodeStats {
	st := s.StatsSnapshot(false)
	return NodeStats{
		Streams:    uint64(st.Streams),
		Accepted:   uint64(st.SamplesAccepted),
		Shed:       uint64(st.SamplesShed),
		Verdicts:   uint64(st.Verdicts),
		Attributed: uint64(st.VerdictsAttributed),
		Held:       uint64(st.VerdictsHeld),
	}
}
