package experiments

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/mlearn/zoo"
	"repro/internal/supervise"
)

// The ingest experiment drills the network front door the way chaos.go
// drills the supervised pipeline: real loopback TCP clients feed a
// trained chain through the ingest server while a seeded wire fault
// plan tears, corrupts, delays and duplicates frames, a client crashes
// and reconnects mid-stream, a quota storm hammers admission on a
// throttled tenant, and the whole fleet is drained mid-run and
// restarted from its checkpoint. The contracts asserted are the ingest
// plane's, not the model's: every stream's verdict timeline is
// gap-free across faults and the restart, verdicts are bit-identical
// to an unbroken reference chain fed the same samples, overload and
// rejection are always explicit (SHED/RETRY/DRAIN frames, exact
// accounting), and the drill reproduces deterministically per seed.

const (
	ingestDrillTenant = "drill"
	ingestStormTenant = "storm"
)

// IngestChaosConfig parameterises the ingest chaos drill.
type IngestChaosConfig struct {
	// Streams is the number of well-behaved clean clients (default 3).
	// Two misbehaving streams — a crash/reconnect client and a
	// wire-fault client — always ride along.
	Streams int
	// Intervals is the samples per stream across both processes; half
	// are served before the drain, half after the restart (default 30,
	// must be even).
	Intervals int
	// Window is the per-stream inflight cap (default 64, which keeps
	// the drill itself shed-free so timeline assertions are exact).
	Window int
	// Interval is the fleet wheel pacing (default 2ms).
	Interval time.Duration
	// Plan is the wire fault plan for the misbehaving client; Rate must
	// be positive and the truncate kind enabled (the client-crash
	// shape), or the reconnect contracts cannot be exercised.
	Plan faults.WirePlan
	// CheckpointDir hosts the drain/restart drill's fleet checkpoints.
	CheckpointDir string
}

func (c *IngestChaosConfig) fill() {
	if c.Streams == 0 {
		c.Streams = 3
	}
	if c.Intervals == 0 {
		c.Intervals = 30
	}
	if c.Window == 0 {
		c.Window = 64
	}
	if c.Interval == 0 {
		c.Interval = 2 * time.Millisecond
	}
}

// IngestStreamOutcome is one drilled stream's ledger.
type IngestStreamOutcome struct {
	ID   string
	Role string // "clean", "crash", "wire-fault"
	// Admitted samples entered the server ring; Echoed verdicts reached
	// the client (misbehaving clients miss echoes while detached — the
	// server-side timeline, checked via GapFree, stays complete).
	Admitted int64
	Echoed   int
	// Reattaches counts live-connection takeovers; Shed ring drops;
	// Dups idempotently dropped replays (injected duplicate frames).
	Reattaches int64
	Shed       int64
	Dups       int64
	// GapFree: the engine scored every interval exactly once and every
	// echoed verdict arrived in strictly increasing sample order (clean
	// streams must see every verdict).
	GapFree bool
	// BitIdentical: every echoed verdict matches an unbroken reference
	// chain fed the same samples — across wire faults, reconnects and
	// the checkpoint restart.
	BitIdentical bool
}

// IngestChaosResult aggregates the drill.
type IngestChaosResult struct {
	Streams []IngestStreamOutcome

	// ResumeOK: every HELLO_OK carried the server's authoritative
	// resume position (0 fresh, mid-stream after crashes, the
	// checkpointed position after the restart).
	ResumeOK bool
	// DrainRefused: an admission attempted during the drain was
	// answered with an explicit DRAIN frame.
	DrainRefused bool
	// QuotaRejections counts admission-storm dials answered with RETRY.
	QuotaRejections int

	// Aggregate server counters across both processes.
	WireErrors  int64
	Evictions   int64
	Reattaches  int64
	DupsDropped int64

	// AccountingExact: for every stream and process, accepted ==
	// attributed + shed and verdicts == attributed + held — nothing
	// lost silently.
	AccountingExact bool

	GapFree       bool
	BitIdentical  bool
	Deterministic bool // second identical pass reproduced every echoed verdict
}

// Passed reports whether every ingest contract held.
func (r IngestChaosResult) Passed() bool {
	return r.GapFree && r.BitIdentical && r.ResumeOK && r.DrainRefused &&
		r.AccountingExact && r.QuotaRejections > 0 && r.WireErrors > 0 &&
		r.Reattaches > 0 && r.Deterministic
}

// IngestChaos runs the drill on the context's trained chain.
func (ctx *Context) IngestChaos(cfg IngestChaosConfig) (IngestChaosResult, error) {
	cfg.fill()
	var res IngestChaosResult
	if !cfg.Plan.Active() {
		return res, errors.New("ingest drill: wire plan must have Rate > 0")
	}
	if !cfg.Plan.Enabled(faults.TruncateFrame) {
		return res, errors.New("ingest drill: wire plan must enable the truncate kind")
	}
	if cfg.CheckpointDir == "" {
		return res, errors.New("ingest drill: checkpoint dir required")
	}
	if cfg.Intervals%2 != 0 || cfg.Intervals < 4 {
		return res, fmt.Errorf("ingest drill: intervals %d must be even and >= 4", cfg.Intervals)
	}

	chain, err := ctx.Builder.BuildChain("REPTree", zoo.Boosted, []int{4, 2}, core.ChainConfig{})
	if err != nil {
		return res, fmt.Errorf("ingest drill: building chain: %w", err)
	}
	replicate, err := core.NewChainReplicator(chain)
	if err != nil {
		return res, fmt.Errorf("ingest drill: replicating chain: %w", err)
	}
	width := len(chain.Events())

	first, err := ingestPass(cfg, replicate, width, filepath.Join(cfg.CheckpointDir, "pass1"), &res)
	if err != nil {
		return res, err
	}
	second, err := ingestPass(cfg, replicate, width, filepath.Join(cfg.CheckpointDir, "pass2"), nil)
	if err != nil {
		return res, fmt.Errorf("ingest drill: determinism pass: %w", err)
	}
	res.Deterministic = ingestStreamsEqual(first, second)
	return res, nil
}

// ingestVals derives the deterministic counter vector for (stream,
// seq): the drill's bit-identity checks replay exactly these into a
// reference chain.
func ingestVals(sid int, seq uint32, buf []uint64) []uint64 {
	for j := range buf {
		buf[j] = uint64(seq)*uint64(7+2*j) + uint64(sid*131) + uint64(j*j) + 1
	}
	return buf
}

func ingestRole(sid, clean int) string {
	switch {
	case sid < clean:
		return "clean"
	case sid == clean:
		return "crash"
	default:
		return "wire-fault"
	}
}

// ingestUp builds one process's engine + server pair on a fresh
// loopback listener. The storm tenant is pre-throttled so the quota
// drill has a wall to run into.
func ingestUp(cfg IngestChaosConfig, replicate func() (*core.FallbackChain, error), width int,
	store *core.CheckpointStore, restore bool) (*ingest.Server, string, chan error, error) {
	eng, err := fleet.New(fleet.Config{
		NewChain:        replicate,
		Shards:          2,
		WheelSlots:      4,
		Interval:        cfg.Interval,
		Policy:          supervise.Block,
		Checkpoint:      store,
		CheckpointEvery: 4,
	})
	if err != nil {
		return nil, "", nil, fmt.Errorf("ingest drill: engine: %w", err)
	}
	if restore {
		if _, _, err := eng.RestoreState(); err != nil {
			return nil, "", nil, fmt.Errorf("ingest drill: restoring fleet state: %w", err)
		}
	}
	srv, err := ingest.NewServer(ingest.Config{
		Engine: eng,
		Width:  width,
		Window: cfg.Window,
		TenantQuotas: map[string]ingest.Quotas{
			ingestStormTenant: {MaxStreams: 1, AdmitPerSec: 1e-9, AdmitBurst: 1},
		},
	})
	if err != nil {
		return nil, "", nil, fmt.Errorf("ingest drill: server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, fmt.Errorf("ingest drill: listen: %w", err)
	}
	go srv.Serve(ln)
	run := make(chan error, 1)
	go func() { run <- eng.Run(context.Background()) }()
	return srv, ln.Addr().String(), run, nil
}

// ingestCleanPhase plays one stream segment by the book: dial, verify
// the resume position, send [from,to), read every verdict back, and
// optionally end the stream with BYE (collecting any final echoes
// before the server's finish notice). The stream index picks the
// client shape, so one pass covers both: even streams Send each sample
// as a batch of one, odd ones Queue the whole segment and Flush once.
func ingestCleanPhase(addr, name string, sid, width int, from, to uint32, bye bool) ([]ingest.Verdict, bool, error) {
	batch := sid%2 == 1
	c, err := ingest.Dial(ingest.ClientConfig{
		Addr:  addr,
		Hello: ingest.Hello{Width: width, Tenant: ingestDrillTenant, Stream: name},
	})
	if err != nil {
		return nil, false, fmt.Errorf("ingest drill: dial %s: %w", name, err)
	}
	defer c.Close()
	resumeOK := uint32(c.Admitted.Resume) == from
	buf := make([]uint64, width)
	for seq := from; seq < to; seq++ {
		if batch {
			err = c.Queue(seq, ingestVals(sid, seq, buf))
		} else {
			err = c.Send(seq, ingestVals(sid, seq, buf))
		}
		if err != nil {
			return nil, resumeOK, fmt.Errorf("ingest drill: %s send %d: %w", name, seq, err)
		}
	}
	if batch {
		if err := c.Flush(); err != nil {
			return nil, resumeOK, fmt.Errorf("ingest drill: %s flush: %w", name, err)
		}
	}
	var got []ingest.Verdict
	for uint32(len(got)) < to-from {
		ev, err := c.Next()
		if err != nil {
			return got, resumeOK, fmt.Errorf("ingest drill: %s after %d/%d verdicts: %w", name, len(got), to-from, err)
		}
		if ev.Type == ingest.FrameVerdict {
			got = append(got, ev.Verdict)
		}
	}
	if bye {
		if err := c.Bye(); err != nil {
			return got, resumeOK, fmt.Errorf("ingest drill: %s BYE: %w", name, err)
		}
		for {
			ev, err := c.Next()
			if err != nil {
				return got, resumeOK, fmt.Errorf("ingest drill: %s waiting for finish: %w", name, err)
			}
			if ev.Type == ingest.FrameVerdict {
				got = append(got, ev.Verdict)
			}
			if ev.Type == ingest.FrameDrain {
				return got, resumeOK, nil
			}
		}
	}
	return got, resumeOK, nil
}

// ingestCrashPhase is the crash/reconnect client: it hangs up without
// BYE halfway through the segment, re-dials, and must be resumed at
// the server's authoritative position.
func ingestCrashPhase(addr, name string, sid, width int, from, to uint32) ([]ingest.Verdict, bool, error) {
	mid := from + (to-from)/2
	got1, ok1, err := ingestCleanPhase(addr, name, sid, width, from, mid, false)
	if err != nil {
		return got1, ok1, err
	}
	// ingestCleanPhase's deferred Close IS the crash: no BYE, socket
	// dropped with the stream mid-flight.
	got2, ok2, err := ingestCleanPhase(addr, name, sid, width, mid, to, false)
	return append(got1, got2...), ok1 && ok2, err
}

// ingestFaultyPhase is the wire-fault client: it handshakes cleanly,
// arms the seeded injector, and keeps sending until the server has
// admitted the whole segment — reconnecting with a fresh fault
// schedule every time a torn frame, corruption eviction or injected
// hangup kills the connection. Verdicts echoed while attached are
// collected; those scored while detached are the server's undelivered
// count, not a timeline gap.
func ingestFaultyPhase(srv *ingest.Server, addr, name string, sid, width int, from, to uint32,
	plan faults.WirePlan, attempt *int) ([]ingest.Verdict, bool, error) {
	key := ingestDrillTenant + "/" + name
	var got []ingest.Verdict
	resumeOK := true
	buf := make([]uint64, width)
	for tries := 0; ; tries++ {
		if next, found := ingestNextSeq(srv, key); found && next >= to {
			return got, resumeOK, nil
		}
		if tries > 100 {
			return got, resumeOK, fmt.Errorf("ingest drill: %s made no admission progress in %d attempts", name, tries)
		}
		*attempt++
		c, err := ingest.Dial(ingest.ClientConfig{
			Addr:    addr,
			Timeout: 500 * time.Millisecond,
			Hello:   ingest.Hello{Width: width, Tenant: ingestDrillTenant, Stream: name},
		})
		if err != nil {
			return got, resumeOK, fmt.Errorf("ingest drill: redial %s: %w", name, err)
		}
		if tries == 0 && uint32(c.Admitted.Resume) != from {
			resumeOK = false
		}
		c.SetInjector(plan.ForConn(fmt.Sprintf("%s/a%d", key, *attempt)))
		for seq := uint32(c.Admitted.Resume); seq < to; seq++ {
			if err := c.Send(seq, ingestVals(sid, seq, buf)); err != nil {
				break // torn frame or eviction: reconnect and resume
			}
		}
		// Drain whatever the server echoed to this connection before it
		// died (or until the line goes idle).
		for {
			ev, err := c.Next()
			if err != nil {
				break
			}
			if ev.Type == ingest.FrameVerdict {
				got = append(got, ev.Verdict)
			}
		}
		c.Close()
	}
}

// ingestByeStream ends a stream over a fresh, fault-free connection —
// the wire-fault client must not have its own BYE torn off the wire.
func ingestByeStream(addr, name string, width int) ([]ingest.Verdict, error) {
	c, err := ingest.Dial(ingest.ClientConfig{
		Addr:  addr,
		Hello: ingest.Hello{Width: width, Tenant: ingestDrillTenant, Stream: name},
	})
	if err != nil {
		return nil, fmt.Errorf("ingest drill: BYE dial %s: %w", name, err)
	}
	defer c.Close()
	if err := c.Bye(); err != nil {
		return nil, fmt.Errorf("ingest drill: %s BYE: %w", name, err)
	}
	var got []ingest.Verdict
	for {
		ev, err := c.Next()
		if err != nil {
			return got, fmt.Errorf("ingest drill: %s waiting for finish: %w", name, err)
		}
		if ev.Type == ingest.FrameVerdict {
			got = append(got, ev.Verdict)
		}
		if ev.Type == ingest.FrameDrain {
			return got, nil
		}
	}
}

func ingestNextSeq(srv *ingest.Server, key string) (uint32, bool) {
	for _, ss := range srv.StatsSnapshot(true).PerStream {
		if ss.Key == key {
			return ss.NextSeq, true
		}
	}
	return 0, false
}

// ingestWaitScored blocks until every listed stream's verdict count
// reaches want — the engine has scored everything admitted so far.
func ingestWaitScored(srv *ingest.Server, keys []string, want int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		byKey := map[string]int64{}
		for _, ss := range srv.StatsSnapshot(true).PerStream {
			byKey[ss.Key] = ss.Verdicts
		}
		done := true
		for _, k := range keys {
			if byKey[k] < want {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ingest drill: streams not fully scored after %v (%v)", timeout, byKey)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ingestPass runs the whole drill once: serve the first half of every
// stream under faults, storm a throttled tenant, drain mid-run, restart
// from the checkpoint, serve the second half, and settle the ledger.
// It returns the deterministically echoed streams (clean + crash) for
// the cross-pass comparison; res, when non-nil, receives the outcome.
func ingestPass(cfg IngestChaosConfig, replicate func() (*core.FallbackChain, error), width int,
	dir string, res *IngestChaosResult) ([][]ingest.Verdict, error) {
	store, err := core.NewCheckpointStore(dir, "fleet", fleet.StateVersion)
	if err != nil {
		return nil, fmt.Errorf("ingest drill: checkpoint store: %w", err)
	}
	n := uint32(cfg.Intervals)
	half := n / 2
	nStreams := cfg.Streams + 2
	crashID, wildID := cfg.Streams, cfg.Streams+1
	names := make([]string, nStreams)
	keys := make([]string, nStreams)
	for i := 0; i < cfg.Streams; i++ {
		names[i] = fmt.Sprintf("c%d", i)
	}
	names[crashID], names[wildID] = "crash", "wild"
	for i, nm := range names {
		keys[i] = ingestDrillTenant + "/" + nm
	}

	echoed := make([][]ingest.Verdict, nStreams)
	resumeOK := make([]bool, nStreams)
	for i := range resumeOK {
		resumeOK[i] = true
	}
	var attempt int

	// runPhase plays [from,to) for every stream concurrently against one
	// server — the cross-stream batching path, not a sequential replay.
	runPhase := func(srv *ingest.Server, addr string, from, to uint32, bye bool) error {
		var wg sync.WaitGroup
		errs := make(chan error, nStreams)
		for i := 0; i < cfg.Streams; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, ok, err := ingestCleanPhase(addr, names[i], i, width, from, to, bye)
				echoed[i] = append(echoed[i], got...)
				if !ok {
					resumeOK[i] = false
				}
				if err != nil {
					errs <- err
				}
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got []ingest.Verdict
			var ok bool
			var err error
			if bye {
				got, ok, err = ingestCleanPhase(addr, names[crashID], crashID, width, from, to, true)
			} else {
				got, ok, err = ingestCrashPhase(addr, names[crashID], crashID, width, from, to)
			}
			echoed[crashID] = append(echoed[crashID], got...)
			if !ok {
				resumeOK[crashID] = false
			}
			if err != nil {
				errs <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, ok, err := ingestFaultyPhase(srv, addr, names[wildID], wildID, width, from, to, cfg.Plan, &attempt)
			if err == nil && bye {
				var more []ingest.Verdict
				more, err = ingestByeStream(addr, names[wildID], width)
				got = append(got, more...)
			}
			echoed[wildID] = append(echoed[wildID], got...)
			if !ok {
				resumeOK[wildID] = false
			}
			if err != nil {
				errs <- err
			}
		}()
		wg.Wait()
		select {
		case err := <-errs:
			return err
		default:
			return nil
		}
	}

	// ---- Process 1: first half under wire faults ----
	srv1, addr1, run1, err := ingestUp(cfg, replicate, width, store, false)
	if err != nil {
		return nil, err
	}
	defer srv1.Close()
	if err := runPhase(srv1, addr1, 0, half, false); err != nil {
		return nil, err
	}

	// ---- Quota storm on the throttled tenant ----
	storm, err := ingest.Dial(ingest.ClientConfig{
		Addr:  addr1,
		Hello: ingest.Hello{Width: width, Tenant: ingestStormTenant, Stream: "s0"},
	})
	if err != nil {
		return nil, fmt.Errorf("ingest drill: storm seed stream: %w", err)
	}
	rejected := 0
	for i := 1; i <= 5; i++ {
		_, err := ingest.Dial(ingest.ClientConfig{
			Addr:  addr1,
			Hello: ingest.Hello{Width: width, Tenant: ingestStormTenant, Stream: fmt.Sprintf("s%d", i)},
		})
		var rej *ingest.RejectedError
		switch {
		case errors.As(err, &rej) && rej.Event.Type == ingest.FrameRetry:
			rejected++ // explicit RETRY with a back-off hint, never silence
		case err == nil:
			return nil, fmt.Errorf("ingest drill: storm stream s%d admitted past the quota", i)
		default:
			return nil, fmt.Errorf("ingest drill: storm dial s%d: %w", i, err)
		}
	}
	storm.Close()

	// ---- Drain mid-run: refuse new work, finish buffered work ----
	if err := ingestWaitScored(srv1, keys, int64(half), 20*time.Second); err != nil {
		return nil, err
	}
	srv1.Drain("maintenance")
	_, derr := ingest.Dial(ingest.ClientConfig{
		Addr:  addr1,
		Hello: ingest.Hello{Width: width, Tenant: ingestDrillTenant, Stream: "late"},
	})
	var rej *ingest.RejectedError
	drainRefused := errors.As(derr, &rej) && rej.Event.Type == ingest.FrameDrain
	select {
	case rerr := <-run1:
		if rerr != nil {
			return nil, fmt.Errorf("ingest drill: drained engine run: %w", rerr)
		}
	case <-time.After(20 * time.Second):
		return nil, errors.New("ingest drill: engine did not finish draining")
	}
	st1 := srv1.StatsSnapshot(true)
	srv1.Close()

	// ---- Process 2: restart from the checkpoint, second half ----
	srv2, addr2, run2, err := ingestUp(cfg, replicate, width, store, true)
	if err != nil {
		return nil, err
	}
	defer srv2.Close()
	if err := runPhase(srv2, addr2, half, n, true); err != nil {
		return nil, err
	}
	select {
	case rerr := <-run2:
		if rerr != nil {
			return nil, fmt.Errorf("ingest drill: restarted engine run: %w", rerr)
		}
	case <-time.After(20 * time.Second):
		return nil, errors.New("ingest drill: restarted engine did not finish after BYEs")
	}
	st2 := srv2.StatsSnapshot(true)

	if res == nil {
		return echoed[:wildID], nil
	}

	// ---- Settle the ledger ----
	byKey := func(st ingest.Stats) map[string]ingest.StreamStats {
		m := make(map[string]ingest.StreamStats, len(st.PerStream))
		for _, ss := range st.PerStream {
			m[ss.Key] = ss
		}
		return m
	}
	m1, m2 := byKey(st1), byKey(st2)
	res.DrainRefused = drainRefused
	res.QuotaRejections = rejected
	res.WireErrors = st1.WireErrors + st2.WireErrors
	res.Evictions = st1.ConnsEvicted + st2.ConnsEvicted
	res.Reattaches = st1.Reattaches + st2.Reattaches
	res.DupsDropped = st1.SamplesDup + st2.SamplesDup
	res.ResumeOK, res.GapFree, res.BitIdentical, res.AccountingExact = true, true, true, true

	for sid, key := range keys {
		s1, s2 := m1[key], m2[key]
		rep, err := replicate()
		if err != nil {
			return nil, fmt.Errorf("ingest drill: reference chain: %w", err)
		}
		refs := make([]ingest.Verdict, n)
		buf := make([]uint64, width)
		for seq := uint32(0); seq < n; seq++ {
			v, err := rep.Observe(ingestVals(sid, seq, buf))
			if err != nil {
				return nil, fmt.Errorf("ingest drill: reference replay: %w", err)
			}
			refs[seq] = ingest.Verdict{Seq: seq, Interval: uint32(v.Interval), Score: v.Score, Malware: v.Malware}
		}
		out := IngestStreamOutcome{
			ID:           key,
			Role:         ingestRole(sid, cfg.Streams),
			Admitted:     s1.Accepted + s2.Accepted,
			Echoed:       len(echoed[sid]),
			Reattaches:   s1.Reattaches + s2.Reattaches,
			Shed:         s1.RingShed + s2.RingShed,
			Dups:         s1.Dups + s2.Dups,
			GapFree:      s1.Verdicts+s2.Verdicts == int64(n) && s1.RingShed+s2.RingShed == 0,
			BitIdentical: true,
		}
		prev := -1
		for _, v := range echoed[sid] {
			if int(v.Seq) <= prev || v.Seq >= n {
				out.GapFree = false
			}
			prev = int(v.Seq)
			if v != refs[v.Seq] {
				out.BitIdentical = false
			}
		}
		if sid != wildID && out.Echoed != int(n) {
			// Clean and crash clients read every verdict back; only the
			// wire-fault client may miss echoes while detached.
			out.GapFree = false
		}
		for _, ss := range []ingest.StreamStats{s1, s2} {
			if ss.Accepted != ss.Attributed+ss.RingShed || ss.Verdicts != ss.Attributed+ss.Held {
				res.AccountingExact = false
			}
		}
		if !resumeOK[sid] {
			res.ResumeOK = false
		}
		res.GapFree = res.GapFree && out.GapFree
		res.BitIdentical = res.BitIdentical && out.BitIdentical
		res.Streams = append(res.Streams, out)
	}
	return echoed[:wildID], nil
}

func ingestStreamsEqual(a, b [][]ingest.Verdict) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// RenderIngestChaos formats the drill's outcome as a checklist plus the
// per-stream ledger.
func RenderIngestChaos(r IngestChaosResult) string {
	var sb strings.Builder
	sb.WriteString("Ingest chaos drill: network front door under wire faults, quota storms and drain/restart\n")
	for _, s := range r.Streams {
		fmt.Fprintf(&sb, "  %-12s %-10s admitted=%2d echoed=%2d reattach=%d shed=%d dup=%d gapfree=%-5v bitident=%v\n",
			s.ID, s.Role, s.Admitted, s.Echoed, s.Reattaches, s.Shed, s.Dups, s.GapFree, s.BitIdentical)
	}
	check := func(ok bool, format string, args ...any) {
		mark := "PASS"
		if !ok {
			mark = "FAIL"
		}
		fmt.Fprintf(&sb, "  [%s] %s\n", mark, fmt.Sprintf(format, args...))
	}
	sb.WriteString("contracts:\n")
	check(r.GapFree, "verdict timelines gap-free across faults, crashes and the restart")
	check(r.BitIdentical, "echoed verdicts bit-identical to the unbroken reference chain")
	check(r.ResumeOK, "every reconnect resumed at the server's authoritative position")
	check(r.DrainRefused, "admission during drain refused with an explicit DRAIN frame")
	check(r.QuotaRejections > 0, "quota storm rejected explicitly with RETRY (%d rejections)", r.QuotaRejections)
	check(r.WireErrors > 0 && r.Reattaches > 0, "wire damage evicted connections (%d wire errors, %d evictions), streams survived (%d reattaches)",
		r.WireErrors, r.Evictions, r.Reattaches)
	check(r.AccountingExact, "sample/verdict accounting exact on every stream (dups dropped: %d)", r.DupsDropped)
	check(r.Deterministic, "identical seeds reproduce identical echoed verdict streams")
	return sb.String()
}

// ---- Ingest throughput/overload bench ----

// IngestBenchConfig parameterises the ingest overload sweep.
type IngestBenchConfig struct {
	// Streams is the concurrent client count (default 8).
	Streams int
	// Samples per stream (default 200).
	Samples int
	// Window is the per-stream inflight cap (default 32).
	Window int
	// Interval is the fleet wheel pacing — the service rate each stream
	// is drained at (default 5ms).
	Interval time.Duration
	// Multipliers sweeps offered load as a multiple of the service
	// rate (default 0.5, 1, 2, 4): below 1 the plane must be shed-free,
	// above 1 overload must surface as explicit shed, not collapse.
	Multipliers []float64
}

func (c IngestBenchConfig) streams() int {
	if c.Streams > 0 {
		return c.Streams
	}
	return 8
}

func (c IngestBenchConfig) samples() int {
	if c.Samples > 0 {
		return c.Samples
	}
	return 200
}

func (c IngestBenchConfig) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return 32
}

func (c IngestBenchConfig) interval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return 5 * time.Millisecond
}

func (c IngestBenchConfig) multipliers() []float64 {
	if len(c.Multipliers) > 0 {
		return c.Multipliers
	}
	return []float64{0.5, 1, 2, 4}
}

// IngestPoint is one offered-load multiplier's measurement.
type IngestPoint struct {
	Multiplier     float64
	OfferedPerSec  float64
	WallMillis     float64
	Accepted       int64
	Shed           int64
	Attributed     int64
	ShedPct        float64
	SamplesPerSec  float64
	VerdictsPerSec float64
	Evictions      int64
}

// IngestReport is the ingest overload sweep, serialized to
// BENCH_INGEST.json by hmd-bench -exp ingest.
type IngestReport struct {
	Chain          []string
	Width          int
	Streams        int
	Samples        int
	Window         int
	IntervalMillis float64
	Points         []IngestPoint
}

// IngestBench sweeps offered load over real loopback TCP clients
// against the ingest server and reports throughput and shed behaviour.
func (ctx *Context) IngestBench(cfg IngestBenchConfig) (*IngestReport, error) {
	chain, err := ctx.Builder.BuildChain("REPTree", zoo.Boosted, []int{4, 2}, core.ChainConfig{})
	if err != nil {
		return nil, fmt.Errorf("ingest bench: building chain: %w", err)
	}
	replicate, err := core.NewChainReplicator(chain)
	if err != nil {
		return nil, fmt.Errorf("ingest bench: replicating chain: %w", err)
	}
	rep := &IngestReport{
		Width:          len(chain.Events()),
		Streams:        cfg.streams(),
		Samples:        cfg.samples(),
		Window:         cfg.window(),
		IntervalMillis: durMillis(cfg.interval()),
	}
	for s := 0; s <= chain.Stages(); s++ {
		rep.Chain = append(rep.Chain, chain.StageName(s))
	}
	for _, m := range cfg.multipliers() {
		pt, err := ingestBenchPoint(replicate, rep.Width, cfg, m)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

func ingestBenchPoint(replicate func() (*core.FallbackChain, error), width int,
	cfg IngestBenchConfig, m float64) (IngestPoint, error) {
	var pt IngestPoint
	eng, err := fleet.New(fleet.Config{
		NewChain: replicate,
		// Few slots keep the tick period comfortably above timer
		// resolution at millisecond sampling intervals; the rotation
		// period (the service rate) is unchanged.
		WheelSlots: 4,
		Interval:   cfg.interval(),
		Policy:     supervise.Block,
	})
	if err != nil {
		return pt, fmt.Errorf("ingest bench: engine: %w", err)
	}
	srv, err := ingest.NewServer(ingest.Config{Engine: eng, Width: width, Window: cfg.window()})
	if err != nil {
		return pt, fmt.Errorf("ingest bench: server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return pt, fmt.Errorf("ingest bench: listen: %w", err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	run := make(chan error, 1)
	go func() { run <- eng.Run(context.Background()) }()

	gap := time.Duration(float64(cfg.interval()) / m)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, cfg.streams())
	for i := 0; i < cfg.streams(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ingestBenchClient(ln.Addr().String(), fmt.Sprintf("b%d", i), i, width, cfg.samples(), gap); err != nil {
				select {
				case errs <- err:
				default:
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return pt, fmt.Errorf("ingest bench: client: %w", err)
	default:
	}
	// Every client said BYE; the engine finishes all streams and exits.
	select {
	case rerr := <-run:
		if rerr != nil {
			return pt, fmt.Errorf("ingest bench: engine run: %w", rerr)
		}
	case <-time.After(60 * time.Second):
		return pt, errors.New("ingest bench: engine did not finish")
	}
	wall := time.Since(start)
	st := srv.StatsSnapshot(false)

	pt.Multiplier = m
	pt.OfferedPerSec = float64(cfg.streams()) / gap.Seconds()
	pt.WallMillis = durMillis(wall)
	pt.Accepted = st.SamplesAccepted
	pt.Shed = st.SamplesShed
	pt.Attributed = st.VerdictsAttributed
	pt.Evictions = st.ConnsEvicted
	if st.SamplesAccepted > 0 {
		pt.ShedPct = 100 * float64(st.SamplesShed) / float64(st.SamplesAccepted)
	}
	pt.SamplesPerSec = float64(st.SamplesAccepted) / wall.Seconds()
	pt.VerdictsPerSec = float64(st.Verdicts) / wall.Seconds()
	if st.SamplesAccepted != st.VerdictsAttributed+st.SamplesShed {
		return pt, fmt.Errorf("ingest bench: accounting leak at x%.1f: accepted %d != attributed %d + shed %d",
			m, st.SamplesAccepted, st.VerdictsAttributed, st.SamplesShed)
	}
	return pt, nil
}

// ingestBenchClient offers one paced stream and drains its own echo on
// a second goroutine (a client that stops reading would rightly be
// evicted as a slow reader).
func ingestBenchClient(addr, name string, sid, width, samples int, gap time.Duration) error {
	c, err := ingest.Dial(ingest.ClientConfig{
		Addr:    addr,
		Timeout: 30 * time.Second,
		Hello:   ingest.Hello{Width: width, Tenant: "bench", Stream: name},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := c.Next(); err != nil {
				return // server finished the stream and hung up
			}
		}
	}()
	buf := make([]uint64, width)
	next := time.Now()
	for seq := uint32(0); seq < uint32(samples); seq++ {
		if err := c.Send(seq, ingestVals(sid, seq, buf)); err != nil {
			return fmt.Errorf("%s send %d: %w", name, seq, err)
		}
		next = next.Add(gap)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	if err := c.Bye(); err != nil {
		return fmt.Errorf("%s BYE: %w", name, err)
	}
	<-done
	return nil
}

// RenderIngest formats the overload sweep for the console.
func RenderIngest(r *IngestReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ingest overload sweep (%s; %d streams x %d samples, window %d, interval %.1fms)\n",
		strings.Join(r.Chain, " -> "), r.Streams, r.Samples, r.Window, r.IntervalMillis)
	sb.WriteString("  offered x   offered/s   accepted/s   verdicts/s   shed%    evictions\n")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "  %9.1f   %9.0f   %10.0f   %10.0f   %5.1f   %10d\n",
			p.Multiplier, p.OfferedPerSec, p.SamplesPerSec, p.VerdictsPerSec, p.ShedPct, p.Evictions)
	}
	return sb.String()
}
