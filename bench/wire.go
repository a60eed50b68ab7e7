package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/source"
)

// idle is a push-fed stream that never has a sample. It keeps the
// engine running between client sessions (an engine whose admitted
// streams have all finished stops) and is closed at the end of the run.
type idle struct{ closed atomic.Bool }

func (s *idle) Read(context.Context, int) ([]uint64, error) { return nil, source.ErrSampleLost }
func (s *idle) Pending() int                                { return 0 }
func (s *idle) Closed() bool                                { return s.closed.Load() }

// wireRig is the set-up wire workload: engine and ingest server as
// hmd-serve -ingest builds them, listening on loopback.
type wireRig struct {
	rd        *readings
	eng       *fleet.Engine
	srv       *ingest.Server
	addr      string
	serveDone chan error
	closeOnce sync.Once
	serveErr  error
	keep      *idle
}

func setupWire(chain *core.FallbackChain, rd *readings) (*wireRig, error) {
	eng, err := fleet.New(serveConfig(chain, nil))
	if err != nil {
		return nil, err
	}
	srv, err := ingest.NewServer(ingest.Config{Engine: eng, Width: len(chain.Events())})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r := &wireRig{rd: rd, eng: eng, srv: srv, addr: ln.Addr().String(),
		serveDone: make(chan error, 1), keep: new(idle)}
	go func() { r.serveDone <- srv.Serve(ln) }()
	if err := eng.Add(fleet.StreamConfig{ID: "bench/keepalive", Source: r.keep}); err != nil {
		_ = r.close() // the Add error is the one to report
		return nil, err
	}
	return r, nil
}

// close stops the server and reports how Serve ended; calling it again
// returns the same result.
func (r *wireRig) close() error {
	r.closeOnce.Do(func() {
		_ = r.srv.Close() // hard-closes listeners and connections; never fails
		if err := <-r.serveDone; !errors.Is(err, ingest.ErrServerClosed) {
			r.serveErr = fmt.Errorf("ingest serve: %w", err)
		}
	})
	return r.serveErr
}

// conn is one client connection slot's load and observations. The
// sender runs on a locked OS thread; each session's reader on its own
// goroutine. Fields are read once every session has ended.
type conn struct {
	idx      int
	lateness hist
	connect  hist
	due      []int64 // per phase
	cpuAt    threadCPUAt
	logs     []*checkLog
	writes   int64
	errs     int64
}

// runWire runs wire_10ms: back-to-back sessions per connection, each
// Dial/HELLO, then one batch-of-one Queue+Flush every 10 ms, then BYE,
// reading verdicts until the server reports the stream finished.
func runWire(w workload, cfg runConfig) (*result, error) {
	res := newResult(w, cfg)
	var rig *wireRig
	setupS, chain, _, err := setUp(cfg, w, func(chain *core.FallbackChain, rd *readings) (func() error, error) {
		r, err := setupWire(chain, rd)
		if err != nil {
			return nil, err
		}
		rig = r
		return func() error {
			rig = nil // let the next set-up's GC reclaim this one
			return r.close()
		}, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = rig.close() }() // the success path checks close below
	res.set("setup_s", setupS, "s")
	debug.FreeOSMemory()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	engDone := make(chan error, 1)
	go func() { engDone <- rig.eng.Run(ctx) }()

	plan := newClockPlan(mono()+int64(20*time.Millisecond), w.streams)
	w0 := plan.t0 + int64(cfg.warmup)
	plan.setWindow(w0, cfg.window, cfg.trace, w.streams)
	w1 := w0 + int64(cfg.window)
	plan.end = w1
	rss := watchRSS(w1)

	conns := make([]*conn, w.streams)
	var clientWG sync.WaitGroup
	for c := range conns {
		conns[c] = &conn{idx: c, due: make([]int64, len(plan.phases)), cpuAt: threadCPUAt{}}
		clientWG.Add(1)
		go func(cn *conn) {
			defer clientWG.Done()
			rig.client(cn, plan, cfg, w.streams)
		}(conns[c])
	}

	marks := make(map[int64]mark, len(plan.cuts))
	var po pollOutcome
	var backlogSum float64
	var backlogN int64
	var pollWG sync.WaitGroup
	for _, t := range plan.cuts {
		sleepTo(t)
		marks[t] = takeMark(rig.eng, rig.srv)
		p := plan.phaseOf(t)
		if p == nil || !p.traced || t != p.from {
			continue
		}
		pollTraced(&pollWG, rig.eng, plan.delivered, func() {
			var pend, live int
			for _, ss := range rig.srv.StatsSnapshot(true).PerStream {
				if !ss.Finished {
					pend += ss.Pending
					live++
				}
			}
			if live > 0 {
				backlogSum += float64(pend) / float64(live)
				backlogN++
			}
		}, &po, p.to)
	}
	pollWG.Wait()
	rssMB := <-rss
	clientWG.Wait()

	// Drain: refuse new sessions, let the engine finish every stream.
	rig.keep.closed.Store(true)
	rig.srv.Drain("benchmark finished")
	drained := true
	select {
	case err := <-engDone:
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	case <-time.After(drainTimeout):
		drained = false
		cancel()
		<-engDone
	}
	final := rig.srv.StatsSnapshot(false)
	if err := rig.close(); err != nil {
		return nil, err
	}

	// Correctness gate: every stream replayed, ingest accounting exact.
	replica, err := core.NewChainReplicator(chain)
	if err != nil {
		return nil, err
	}
	ref, err := replica()
	if err != nil {
		return nil, err
	}
	var mismatches, sessionErrs, received, writes int64
	for _, cn := range conns {
		for _, lg := range cn.logs {
			mismatches += replay(ref, rig.rd, lg.idx, lg.recs)
			received += int64(len(lg.recs))
		}
		sessionErrs += cn.errs
		writes += cn.writes
	}
	var accounting int64
	if final.SamplesAccepted != final.VerdictsAttributed+final.SamplesShed {
		accounting++
		res.problem("ingest accepted %d != attributed %d + shed %d", final.SamplesAccepted, final.VerdictsAttributed, final.SamplesShed)
	}
	if final.Verdicts != final.VerdictsAttributed+final.VerdictsHeld {
		accounting++
		res.problem("ingest verdicts %d != attributed %d + held %d", final.Verdicts, final.VerdictsAttributed, final.VerdictsHeld)
	}
	if received != final.VerdictsAttributed-final.VerdictsUndelivered {
		accounting++
		res.problem("clients received %d verdicts, server attributed %d with %d undelivered", received, final.VerdictsAttributed, final.VerdictsUndelivered)
	}
	if mismatches > 0 {
		res.problem("%d verdicts differ from the reference replay", mismatches)
	}
	if !drained {
		res.problem("engine did not drain within %v", drainTimeout)
	}
	var undelivered int64
	for i, p := range plan.phases {
		var due int64
		for _, cn := range conns {
			due += cn.due[i]
		}
		p.due = due
		res.Attempted += due
		undelivered += due - p.merged().delivered.Load()
	}
	res.Checked = received
	res.Failed = mismatches + accounting + sessionErrs + final.VerdictsHeld + undelivered
	res.Correct = mismatches == 0 && accounting == 0

	// End-to-end metrics from the untraced phase. The client send
	// threads are the load generator; their CPU is not the system's.
	clientCPU := func(from, to int64) time.Duration {
		var d time.Duration
		for _, cn := range conns {
			d += cn.cpuAt[to] - cn.cpuAt[from]
		}
		return d
	}
	phaseE2E(res, plan.phases[0], marks, clientCPU)
	var late, connect hist
	for _, cn := range conns {
		late.merge(&cn.lateness)
		connect.merge(&cn.connect)
	}
	res.Valid = late.quantile(0.99) <= 1e6
	res.set("loadgen.lateness_p99_ms", ms(late.quantile(0.99)), "ms")
	res.set("connect_ms_p90", ms(connect.quantile(0.90)), "ms")
	res.set("ingest.write_syscalls_per_verdict", ratio(float64(writes+final.WriteSyscalls), float64(final.Verdicts)), "count")
	res.set("ingest.verdicts_per_write", ratio(float64(final.Verdicts), float64(final.WriteSyscalls)), "count")
	res.set("ingest.samples_shed", float64(final.SamplesShed), "count")
	res.set("ingest.verdicts_held", float64(final.VerdictsHeld), "count")
	res.set("ingest.verdicts_undelivered", float64(final.VerdictsUndelivered), "count")
	res.set("ingest.admissions", float64(final.Admissions), "count")

	if cfg.trace {
		tp := plan.phases[1]
		a, b := marks[tp.from], marks[tp.to]
		tm := tp.merged()
		fleetLayers(res, a, b, &po, "")
		res.set("source.window_shed", float64(b.ing.SamplesShed-a.ing.SamplesShed), "count")
		res.set("source.backlog_mean", ratio(backlogSum, float64(backlogN)), "count")
		res.set("ingest.send_us_p99", us(tm.wait.quantile(0.99)), "us")
		traced, _ := cpuCost(tp, marks, clientCPU)
		res.set("trace.overhead_us_per_verdict", traced-res.Metrics["cpu_us_per_verdict"].Value, "us")
		res.Breakdown = breakdown(
			[]string{"loadgen.release", "ingest.send", "wire_fleet", "deliver"},
			[]int64{tm.sumRel.Load(), tm.sumWait.Load(), tm.sumSvc.Load(), tm.sumDeliver.Load()},
			tm.delivered.Load())
		var logs []*checkLog
		for _, cn := range conns {
			logs = append(logs, cn.logs...)
		}
		if err := writeSpans(filepath.Join(cfg.workDir, "spans", w.name+".jsonl"), w.name,
			[4]string{"loadgen.release", "ingest.send", "wire_fleet", "deliver"}, logs); err != nil {
			return nil, err
		}
		if err := microbench(res, chain, rig.rd, res.Metrics["fleet.batch_rows_mean"].Value, cfg.micro); err != nil {
			return nil, err
		}
	}
	res.set("rss_mb", rssMB, "MB")
	return res, nil
}

// client runs one connection slot's sessions until the plan's end.
func (r *wireRig) client(cn *conn, plan *clockPlan, cfg runConfig, nconns int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rng := rand.New(rand.NewPCG(cfg.seed, uint64(cn.idx)+1))
	markCPU := func() { cn.cpuAt.record(plan.cuts, mono()) }
	for j := 0; ; j++ {
		// A seeded [0, 10 ms) pause moves each session's phase against
		// the wheel.
		sleepUntil(mono() + rng.Int64N(period))
		markCPU()
		if mono() >= plan.end {
			break
		}
		r.session(cn, plan, cfg, int64(j*nconns+cn.idx), markCPU)
	}
	markCPU()
}

// session is one stream's life on the wire.
func (r *wireRig) session(cn *conn, plan *clockPlan, cfg runConfig, idx int64, markCPU func()) {
	id := fmt.Sprintf("c%d-%d", cn.idx, idx)
	t := mono()
	cl, err := ingest.Dial(ingest.ClientConfig{Addr: r.addr, Hello: ingest.Hello{
		Width: sampleWidth, Tenant: "bench", Stream: id}})
	start := mono()
	cn.connect.add(start - t)
	if err != nil {
		cn.errs++
		return
	}
	lg := &checkLog{idx: idx, id: id}
	cn.logs = append(cn.logs, lg)
	n := cfg.session
	sendAt := make([]atomic.Int64, n)
	flushAt := make([]atomic.Int64, n)
	var readErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		readErr = r.read(cl, cn, plan, lg, start, sendAt, flushAt)
	}()
	buf := make([]uint64, sampleWidth)
	var sendErr error
	for k := 0; k < n && sendErr == nil; k++ {
		due := start + int64(k)*period
		sleepUntil(due)
		markCPU()
		rel := mono()
		if pi := plan.phaseIndex(due); pi >= 0 {
			cn.due[pi]++
			cn.lateness.add(rel - due)
		}
		sendAt[k].Store(rel)
		if sendErr = cl.Queue(uint32(k), r.rd.fill(idx, int64(k), buf)); sendErr == nil {
			sendErr = cl.Flush()
		}
		flushAt[k].Store(mono())
	}
	if sendErr == nil {
		sendErr = cl.Bye()
	}
	<-done
	cn.writes += cl.WriteCalls()
	_ = cl.Close() // the server has already closed its side
	if sendErr != nil || readErr != nil || int64(len(lg.recs)) != int64(n) {
		cn.errs++
	}
}

// read is a session's reader: it records each verdict at the return of
// Client.Next until the server reports the stream finished.
func (r *wireRig) read(cl *ingest.Client, cn *conn, plan *clockPlan, lg *checkLog, start int64,
	sendAt, flushAt []atomic.Int64) error {
	for {
		ev, err := cl.Next()
		now := mono()
		if err != nil {
			return err
		}
		switch ev.Type {
		case ingest.FrameDrain:
			return nil
		case ingest.FrameVerdict:
		default:
			continue // SHED notices are counted by the server's stats
		}
		v := ev.Verdict
		seq := int64(v.Seq)
		lg.recs = append(lg.recs, checkRec{seq: seq, v: core.Verdict{Interval: int(v.Interval), Score: v.Score, Malware: v.Malware}})
		plan.verdicts[cn.idx].n.Add(1)
		due := start + seq*period
		p := plan.phaseOf(due)
		if p == nil || seq >= int64(len(sendAt)) {
			continue
		}
		l := p.lanes[cn.idx]
		lat := now - due
		l.lat.add(lat)
		l.delivered.Add(1)
		if lat <= deadline {
			l.ontime.Add(1)
		}
		if !p.traced {
			continue
		}
		// Traced: wait holds the send (Queue+Flush) time, svc the
		// flush-to-Next span through the server and the fleet.
		rel, fl := sendAt[seq].Load(), flushAt[seq].Load()
		if fl == 0 || fl > now {
			fl = now // the verdict beat the sender's timestamp store
		}
		l.wait.add(fl - rel)
		l.svc.add(now - fl)
		end := mono()
		l.sumRel.Add(rel - due)
		l.sumWait.Add(fl - rel)
		l.sumSvc.Add(now - fl)
		l.sumDeliver.Add(end - now)
		lg.spans = append(lg.spans, sampleSpan{seq: seq, due: due, rel: rel, read: fl, verdict: now, end: end})
	}
}
