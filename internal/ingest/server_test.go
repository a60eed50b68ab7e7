package ingest

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/micro"
	"repro/internal/supervise"
)

// stubModel is a fixed-score classifier (mirrors the fleet tests):
// enough to exercise the serving path without training anything.
type stubModel struct{ score float64 }

func (m stubModel) Distribution(x []float64) []float64 {
	return []float64{1 - m.score, m.score}
}

func (m stubModel) DistributionInto(x []float64, out []float64) {
	out[0], out[1] = 1-m.score, m.score
}

func stubChainFactory() func() (*core.FallbackChain, error) {
	return func() (*core.FallbackChain, error) {
		evs := micro.AllEvents()
		d4 := &core.Detector{BaseName: "Stub", Events: evs[:4], Model: stubModel{score: 0.8}}
		d2 := &core.Detector{BaseName: "Stub", Events: evs[:2], Model: stubModel{score: 0.6}}
		return core.NewFallbackChain([]*core.Detector{d4, d2},
			core.ChainConfig{Window: 3, PriorScore: 0.3})
	}
}

const testWidth = 4

// harness wires a stub fleet engine to a loopback ingest server.
type harness struct {
	t    *testing.T
	eng  *fleet.Engine
	srv  *Server
	addr string
	stop context.CancelFunc
	run  chan error
}

func startHarness(t *testing.T, mut func(*fleet.Config, *Config)) *harness {
	t.Helper()
	fcfg := fleet.Config{
		NewChain:   stubChainFactory(),
		Shards:     2,
		WheelSlots: 4,
		Interval:   2 * time.Millisecond,
		Policy:     supervise.Block,
	}
	scfg := Config{
		Width:        testWidth,
		HelloTimeout: 2 * time.Second,
		ReadTimeout:  2 * time.Second,
	}
	if mut != nil {
		mut(&fcfg, &scfg)
	}
	eng, err := fleet.New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Engine = eng
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	ctx, cancel := context.WithCancel(context.Background())
	h := &harness{t: t, eng: eng, srv: srv, addr: ln.Addr().String(), stop: cancel, run: make(chan error, 1)}
	go func() { h.run <- eng.Run(ctx) }()
	t.Cleanup(func() {
		srv.Close()
		cancel()
		<-h.run
	})
	return h
}

func sampleVals(seq uint32) []uint64 {
	return []uint64{uint64(seq)*4 + 1, uint64(seq)*4 + 2, uint64(seq)*4 + 3, uint64(seq)*4 + 4}
}

// sampleFrame encodes one sample as a SAMPLE_BATCH of one.
func sampleFrame(seq uint32) []byte {
	return AppendSampleBatch(nil, []uint32{seq}, sampleVals(seq), testWidth)
}

// stream returns the server's netStream for tenant/name, if admitted.
func (s *Server) stream(tenant, name string) *netStream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[tenant+"/"+name]
}

func dialStream(t *testing.T, addr, tenant, stream string, horizon int) *Client {
	t.Helper()
	c, err := Dial(ClientConfig{
		Addr:  addr,
		Hello: Hello{Width: testWidth, Horizon: horizon, Tenant: tenant, Stream: stream},
	})
	if err != nil {
		t.Fatalf("dial %s/%s: %v", tenant, stream, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// collectVerdicts reads events until n verdicts arrived (tolerating
// interleaved shed/retry notices) or the client times out.
func collectVerdicts(t *testing.T, c *Client, n int) []Verdict {
	t.Helper()
	var out []Verdict
	for len(out) < n {
		ev, err := c.Next()
		if err != nil {
			t.Fatalf("after %d/%d verdicts: %v", len(out), n, err)
		}
		if ev.Type == FrameVerdict {
			out = append(out, ev.Verdict)
		}
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestIngestRoundTrip(t *testing.T) {
	h := startHarness(t, nil)
	const n = 10
	c := dialStream(t, h.addr, "acme", "s0", n)
	if c.Admitted.Resume != 0 || c.Admitted.Width != testWidth {
		t.Fatalf("admitted %+v", c.Admitted)
	}
	for seq := uint32(0); seq < n; seq++ {
		if err := c.Send(seq, sampleVals(seq)); err != nil {
			t.Fatal(err)
		}
	}
	vs := collectVerdicts(t, c, n)
	for i, v := range vs {
		if v.Seq != uint32(i) || v.Interval != uint32(i) {
			t.Fatalf("verdict %d: seq %d interval %d", i, v.Seq, v.Interval)
		}
	}
	// Horizon reached: the server announces the finished stream.
	waitForDrain(t, c, "finished")

	st := h.srv.StatsSnapshot(true)
	if st.SamplesAccepted != n || st.VerdictsAttributed != n || st.SamplesShed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func waitForDrain(t *testing.T, c *Client, want string) {
	t.Helper()
	for {
		ev, err := c.Next()
		if err != nil {
			t.Fatalf("waiting for DRAIN %q: %v", want, err)
		}
		if ev.Type == FrameDrain && ev.Reason == want {
			return
		}
	}
}

func TestIngestByeFlushesThenFinishes(t *testing.T) {
	h := startHarness(t, nil)
	c := dialStream(t, h.addr, "acme", "s0", 0)
	for seq := uint32(0); seq < 5; seq++ {
		if err := c.Send(seq, sampleVals(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Bye(); err != nil {
		t.Fatal(err)
	}
	// Every buffered sample still scores before the finish notice.
	vs := collectVerdicts(t, c, 5)
	if vs[4].Seq != 4 {
		t.Fatalf("last verdict %+v", vs[4])
	}
	waitForDrain(t, c, "finished")
	waitFor(t, "stream finished", func() bool {
		return h.srv.stream("acme", "s0").finished.Load()
	})
}

func TestIngestReattachResumes(t *testing.T) {
	h := startHarness(t, nil)
	c1 := dialStream(t, h.addr, "acme", "s0", 0)
	for seq := uint32(0); seq < 5; seq++ {
		if err := c1.Send(seq, sampleVals(seq)); err != nil {
			t.Fatal(err)
		}
	}
	collectVerdicts(t, c1, 5)
	c1.Close() // crash, no BYE

	c2 := dialStream(t, h.addr, "acme", "s0", 0)
	if c2.Admitted.Resume != 5 {
		t.Fatalf("resume %d, want 5 (server's authoritative position)", c2.Admitted.Resume)
	}
	for seq := uint32(5); seq < 10; seq++ {
		if err := c2.Send(seq, sampleVals(seq)); err != nil {
			t.Fatal(err)
		}
	}
	vs := collectVerdicts(t, c2, 5)
	for i, v := range vs {
		if v.Seq != uint32(5+i) || v.Interval != uint32(5+i) {
			t.Fatalf("post-reattach verdict %d: %+v", i, v)
		}
	}
	if st := h.srv.StatsSnapshot(false); st.Reattaches != 1 {
		t.Fatalf("reattaches %d", st.Reattaches)
	}
}

func TestIngestTornFrameThenReconnect(t *testing.T) {
	h := startHarness(t, nil)
	c1 := dialStream(t, h.addr, "acme", "s0", 0)
	if err := c1.Send(0, sampleVals(0)); err != nil {
		t.Fatal(err)
	}
	collectVerdicts(t, c1, 1)

	// Arm a truncate-everything injector: the next send tears the frame
	// mid-write and hangs up, like a client crash.
	c1.cfg.Injector = faults.WirePlan{Seed: 7, Rate: 1, Kinds: []faults.WireKind{faults.TruncateFrame}}.ForConn("t/s0/c1")
	if err := c1.Send(1, sampleVals(1)); !errors.Is(err, ErrConnDropped) {
		t.Fatalf("torn send: %v", err)
	}

	// The stream survived; the torn sample was never admitted, so the
	// server tells the reconnecting client to resend from 1.
	c2 := dialStream(t, h.addr, "acme", "s0", 0)
	if c2.Admitted.Resume != 1 {
		t.Fatalf("resume %d, want 1", c2.Admitted.Resume)
	}
	if err := c2.Send(1, sampleVals(1)); err != nil {
		t.Fatal(err)
	}
	vs := collectVerdicts(t, c2, 1)
	if vs[0].Seq != 1 || vs[0].Interval != 1 {
		t.Fatalf("verdict after reconnect: %+v", vs[0])
	}
}

func TestIngestCorruptFrameEvictsConnNotStream(t *testing.T) {
	h := startHarness(t, nil)
	c1 := dialStream(t, h.addr, "acme", "s0", 0)
	if err := c1.Send(0, sampleVals(0)); err != nil {
		t.Fatal(err)
	}
	collectVerdicts(t, c1, 1)

	// Hand-craft a frame whose CRC is stomped (payload damage only, so
	// the framing stays parseable and the checksum is what catches it).
	bad := sampleFrame(1)
	bad[len(bad)-6] ^= 0x01
	if _, err := c1.nc.Write(bad); err != nil {
		t.Fatal(err)
	}
	// The server answers with ERROR and evicts the connection.
	sawError := false
	for {
		ev, err := c1.Next()
		if err != nil {
			break
		}
		if ev.Type == FrameError {
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("no ERROR frame before eviction")
	}
	waitFor(t, "wire error accounted", func() bool {
		return h.srv.StatsSnapshot(false).WireErrors >= 1
	})

	c2 := dialStream(t, h.addr, "acme", "s0", 0)
	if c2.Admitted.Resume != 1 {
		t.Fatalf("resume %d, want 1 (corrupt sample must not be admitted)", c2.Admitted.Resume)
	}
}

func TestIngestSlowlorisEviction(t *testing.T) {
	h := startHarness(t, func(fc *fleet.Config, sc *Config) {
		sc.ReadTimeout = 100 * time.Millisecond
	})
	c := dialStream(t, h.addr, "acme", "s0", 0)
	// Trickle half a frame and stall. A server without per-frame read
	// deadlines would pin this connection forever.
	frame := sampleFrame(0)
	if _, err := c.nc.Write(frame[:5]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "slowloris eviction", func() bool {
		return h.srv.StatsSnapshot(false).SlowlorisEvictions >= 1
	})
	// The eviction closed the socket under the client.
	c.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := bufio.NewReader(c.nc).ReadByte(); err == nil {
		t.Fatal("connection still open after slowloris eviction")
	}
}

func TestIngestQuotas(t *testing.T) {
	h := startHarness(t, func(fc *fleet.Config, sc *Config) {
		sc.TenantQuotas = map[string]Quotas{
			"caps":  {MaxStreams: 1},
			"small": {MaxStreams: 2, MaxConns: 2},
		}
	})

	// Stream cap: a second stream for the tenant is told to back off.
	dialStream(t, h.addr, "caps", "s0", 0)
	_, err := Dial(ClientConfig{Addr: h.addr, Hello: Hello{Width: testWidth, Tenant: "caps", Stream: "s1"}})
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Event.Type != FrameRetry {
		t.Fatalf("second stream: %v", err)
	}
	if rej.Event.Retry.AfterMillis == 0 || rej.Event.Retry.Reason != "tenant stream limit" {
		t.Fatalf("retry frame %+v", rej.Event.Retry)
	}

	// Other tenants are unaffected by caps's quota.
	dialStream(t, h.addr, "big", "s0", 0)

	// Conn cap: with both of small's slots held, a third concurrent
	// connection is refused before any stream logic runs.
	dialStream(t, h.addr, "small", "s0", 0)
	dialStream(t, h.addr, "small", "s1", 0)
	_, err = Dial(ClientConfig{Addr: h.addr, Hello: Hello{Width: testWidth, Tenant: "small", Stream: "s2"}})
	if !errors.As(err, &rej) || rej.Event.Type != FrameRetry || rej.Event.Retry.Reason != "tenant connection limit" {
		t.Fatalf("conn cap: %v", err)
	}
}

func TestIngestAdmissionRateQuota(t *testing.T) {
	h := startHarness(t, func(fc *fleet.Config, sc *Config) {
		sc.Quotas = Quotas{AdmitPerSec: 0.0001, AdmitBurst: 2}
	})
	dialStream(t, h.addr, "t", "s0", 0)
	dialStream(t, h.addr, "t", "s1", 0)
	_, err := Dial(ClientConfig{Addr: h.addr, Hello: Hello{Width: testWidth, Tenant: "t", Stream: "s2"}})
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Event.Retry.Reason != "tenant admission rate" {
		t.Fatalf("admission storm: %v", err)
	}
	// Re-attaching an admitted stream is never charged against the
	// admission bucket: a reconnecting client must not be locked out.
	c, err := Dial(ClientConfig{Addr: h.addr, Hello: Hello{Width: testWidth, Tenant: "t", Stream: "s0"}})
	if err != nil {
		t.Fatalf("re-attach during admission storm: %v", err)
	}
	c.Close()
}

func TestIngestSampleThrottle(t *testing.T) {
	h := startHarness(t, func(fc *fleet.Config, sc *Config) {
		sc.Quotas = Quotas{SamplesPerSec: 0.0001, SampleBurst: 3}
	})
	c := dialStream(t, h.addr, "t", "s0", 0)
	for seq := uint32(0); seq < 10; seq++ {
		if err := c.Send(seq, sampleVals(seq)); err != nil {
			t.Fatal(err)
		}
	}
	// Exactly the burst's worth of samples scores; the rest answered
	// with RETRY, not silently dropped.
	verdicts, retries := 0, 0
	for verdicts < 3 || retries == 0 {
		ev, err := c.Next()
		if err != nil {
			t.Fatalf("after %d verdicts, %d retries: %v", verdicts, retries, err)
		}
		switch {
		case ev.Type == FrameVerdict:
			verdicts++
		case ev.Type == FrameRetry && ev.Retry.Reason == "tenant sample rate":
			retries++
		}
	}
	waitFor(t, "throttle accounting", func() bool {
		st := h.srv.StatsSnapshot(false)
		return st.SamplesThrottled == 7 && st.SamplesAccepted == 3
	})
}

func TestIngestShedIsExplicit(t *testing.T) {
	h := startHarness(t, func(fc *fleet.Config, sc *Config) {
		fc.Interval = 50 * time.Millisecond // slow wheel: the window fills
		sc.Window = 2
	})
	c := dialStream(t, h.addr, "t", "s0", 0)
	if c.Admitted.Window != 2 {
		t.Fatalf("window %d", c.Admitted.Window)
	}
	const n = 10
	for seq := uint32(0); seq < n; seq++ {
		if err := c.Send(seq, sampleVals(seq)); err != nil {
			t.Fatal(err)
		}
	}
	// Overload must surface as SHED frames with exact drop accounting.
	var shed uint32
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

func TestIngestWidthMismatchRejected(t *testing.T) {
	h := startHarness(t, nil)
	_, err := Dial(ClientConfig{Addr: h.addr, Hello: Hello{Width: 2, Tenant: "t", Stream: "s0"}})
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Event.Type != FrameError {
		t.Fatalf("width mismatch: %v", err)
	}
}

func TestIngestDrainRefusesAndFinishes(t *testing.T) {
	dir := t.TempDir()
	store, err := core.NewCheckpointStore(dir, "fleet", fleet.StateVersion)
	if err != nil {
		t.Fatal(err)
	}
	h := startHarness(t, func(fc *fleet.Config, sc *Config) {
		fc.Checkpoint = store
	})
	c := dialStream(t, h.addr, "t", "s0", 0)
	const n = 5
	for seq := uint32(0); seq < n; seq++ {
		if err := c.Send(seq, sampleVals(seq)); err != nil {
			t.Fatal(err)
		}
	}
	collectVerdicts(t, c, n)

	h.srv.Drain("maintenance")
	// Attached clients are told; new admissions are refused with DRAIN.
	waitForDrain(t, c, "maintenance")
	_, err = Dial(ClientConfig{Addr: h.addr, Hello: Hello{Width: testWidth, Tenant: "t", Stream: "s1"}})
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Event.Type != FrameDrain {
		t.Fatalf("admission while draining: %v", err)
	}

	// The engine finishes every stream and Run returns nil — the
	// graceful exit that writes the final checkpoint.
	select {
	case rerr := <-h.run:
		if rerr != nil {
			t.Fatalf("drained Run: %v", rerr)
		}
		h.run <- nil // keep Cleanup's receive happy
	case <-time.After(5 * time.Second):
		t.Fatal("engine did not drain")
	}

	// A restarted process resumes the stream where the timeline ended.
	eng2, err := fleet.New(fleet.Config{
		NewChain:   stubChainFactory(),
		Shards:     2,
		WheelSlots: 4,
		Interval:   2 * time.Millisecond,
		Policy:     supervise.Block,
		Checkpoint: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng2.RestoreState(); err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(Config{Engine: eng2, Width: testWidth})
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln2)
	ctx2, cancel2 := context.WithCancel(context.Background())
	run2 := make(chan error, 1)
	go func() { run2 <- eng2.Run(ctx2) }()
	t.Cleanup(func() {
		srv2.Close()
		cancel2()
		<-run2
	})

	c2 := dialStream(t, ln2.Addr().String(), "t", "s0", 0)
	if c2.Admitted.Resume != n {
		t.Fatalf("post-restart resume %d, want %d", c2.Admitted.Resume, n)
	}
	for seq := uint32(n); seq < 2*n; seq++ {
		if err := c2.Send(seq, sampleVals(seq)); err != nil {
			t.Fatal(err)
		}
	}
	vs := collectVerdicts(t, c2, n)

	// Bit-identity: the two-process timeline must match one unbroken
	// reference chain fed the same samples.
	ref, err := stubChainFactory()()
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < 2*n; seq++ {
		v, err := ref.Observe(sampleVals(seq))
		if err != nil {
			t.Fatal(err)
		}
		if seq >= n {
			got := vs[seq-n]
			if got.Interval != uint32(v.Interval) || got.Score != v.Score || got.Malware != v.Malware {
				t.Fatalf("seq %d: got %+v, reference %+v", seq, got, v)
			}
		}
	}

	// IDs stay unique across the restart's engine, but the ingest plane
	// still refuses a finished stream's ID on the ORIGINAL server.
	if fmt.Sprint(rej) == "" {
		t.Fatal("unreachable")
	}
}
