package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// loadTail keeps the load running past the measured window, so the
// window's last samples see the same steady state as its first: with
// the generator stopped, a full source window stops advancing by drops
// and its samples would age while the engine drains them. It covers a
// full source window's span (64 × 10 ms) with margin.
const loadTail = int64(time.Second)

// drainTimeout bounds the end-of-run drain: samples still unanswered
// after it count as never delivered.
const drainTimeout = 30 * time.Second

// fleetRig is one set-up fleet workload: the engine with its initial
// streams admitted and the generator that will feed them.
type fleetRig struct {
	w          workload
	rd         *readings
	eng        *fleet.Engine
	plan       *clockPlan
	gen        *generator
	checks     []*checkLog
	checkEvery int64
	pool       []stream // churn replacements, stream poolBase onwards
	poolBase   int64
	ckptDir    string
	nlanes     int
	admitted   int  // Adds so far; the admission index picks the lane
	adds       hist // Engine.Add latency
	addErrs    atomic.Int64
}

// buildRig builds the engine hmd-serve would build and admits n
// streams, each placed at a seeded phase. Every (n/64)-th stream is
// replayed against the reference afterwards.
func buildRig(w workload, cfg runConfig, chain *core.FallbackChain, rd *readings, n int) (*fleetRig, error) {
	r := &fleetRig{w: w, rd: rd, nlanes: 2 * runtime.GOMAXPROCS(0), checkEvery: int64(max(1, n/64))}
	var store *core.CheckpointStore
	if w.churn {
		if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
			return nil, fmt.Errorf("work dir: %w", err)
		}
		dir, err := os.MkdirTemp(cfg.workDir, "ckpt-")
		if err != nil {
			return nil, fmt.Errorf("checkpoint dir: %w", err)
		}
		r.ckptDir = dir
		if store, err = core.NewCheckpointStore(dir, "fleet", fleet.StateVersion); err != nil {
			r.discard()
			return nil, err
		}
	}
	eng, err := fleet.New(serveConfig(chain, store))
	if err != nil {
		r.discard()
		return nil, err
	}
	r.eng = eng
	r.plan = newClockPlan(0, r.nlanes)
	r.gen = newGenerator(r.plan, cfg.seed)
	r.gen.newStream = r.newStream
	if w.churn {
		// Lifetimes of 1–3 s; the initial streams start part-way
		// through theirs so replacements do not arrive in one wave.
		r.gen.lifeMin, r.gen.lifeMax = 100, 300
	}
	for i := 0; i < n; i++ {
		st := r.newStream(int64(i))
		if w.churn {
			st.n = 1 + r.gen.rng.Int64N(r.gen.lifetime())
		}
		r.gen.place(i, st, 0, -1)
		if err := r.add(st); err != nil {
			r.discard()
			return nil, fmt.Errorf("admitting %s: %w", st.id, err)
		}
	}
	r.gen.nextIdx = int64(n)
	return r, nil
}

// newStream returns stream idx: the preallocated record for a churn
// replacement, so the generator does not allocate (and stall in GC
// assists) while it paces the load, or a fresh one.
func (r *fleetRig) newStream(idx int64) *stream {
	if i := idx - r.poolBase; i >= 0 && i < int64(len(r.pool)) {
		return &r.pool[i]
	}
	return r.initStream(new(stream), idx)
}

func (r *fleetRig) initStream(st *stream, idx int64) *stream {
	st.idx, st.id, st.plan, st.rd, st.rdSeq = idx, "s"+strconv.FormatInt(idx, 10), r.plan, r.rd, -1
	if idx%r.checkEvery == 0 {
		st.check = &checkLog{idx: idx, id: st.id}
		r.checks = append(r.checks, st.check)
	}
	return st
}

// preallocate readies the replacement streams a churn run of the given
// length is expected to admit (lifetimes average 2 s), with a fifth
// more for slack; beyond them newStream allocates.
func (r *fleetRig) preallocate(d time.Duration) {
	n := int(1.2 * float64(len(r.gen.slots)) * d.Seconds() / 2)
	r.poolBase = r.gen.nextIdx
	r.pool = make([]stream, n)
	for i := range r.pool {
		r.initStream(&r.pool[i], r.poolBase+int64(i))
	}
}

// add admits one stream through the public Engine.Add, timed.
func (r *fleetRig) add(st *stream) error {
	st.lane = r.admitted % r.nlanes
	r.admitted++
	t := mono()
	err := r.eng.Add(fleet.StreamConfig{ID: st.id, Source: st, OnVerdict: st.onVerdict})
	r.adds.add(mono() - t)
	return err
}

func (r *fleetRig) discard() {
	if r.ckptDir != "" {
		_ = os.RemoveAll(r.ckptDir) // scratch checkpoints; nothing to keep
	}
}

// fleetOutcome is what run observed besides the per-phase statistics.
type fleetOutcome struct {
	marks   map[int64]mark // at each of the plan's cuts
	poll    pollOutcome    // traced phase only
	drained bool
	rssMB   float64 // peak resident set from load start to window end
}

// run drives the engine: warm-up, then the measured window (split into
// an untraced and a traced half when traced), then the load tail, then
// closes every source and waits for the engine to drain.
func (r *fleetRig) run(warmup, window time.Duration, traced bool) (*fleetOutcome, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	engDone := make(chan error, 1)
	go func() { engDone <- r.eng.Run(ctx) }()

	t0 := mono() + int64(20*time.Millisecond)
	r.plan.t0 = t0
	for _, st := range r.gen.slots {
		st.start += t0
	}
	w0 := t0 + int64(warmup)
	r.plan.setWindow(w0, window, traced, r.nlanes)
	w1 := w0 + int64(window)
	r.plan.end = w1 + loadTail
	rss := watchRSS(w1)

	var admitWG sync.WaitGroup
	var admit chan *stream
	if r.w.churn {
		// Sized for a whole population turnover, so the generator never
		// waits on Engine.Add.
		admit = make(chan *stream, 16384)
		r.gen.admit = admit
		admitWG.Add(1)
		go func() {
			defer admitWG.Done()
			for st := range admit {
				if err := r.add(st); err != nil {
					r.addErrs.Add(1)
				}
			}
		}()
	}
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		r.gen.run()
	}()

	out := &fleetOutcome{marks: make(map[int64]mark, len(r.plan.cuts))}
	var pollWG sync.WaitGroup
	for _, t := range r.plan.cuts {
		sleepTo(t)
		out.marks[t] = takeMark(r.eng, nil)
		if p := r.plan.phaseOf(t); p != nil && p.traced && t == p.from {
			pollTraced(&pollWG, r.eng, r.plan.delivered, nil, &out.poll, p.to)
		}
	}
	pollWG.Wait()
	out.rssMB = <-rss
	<-genDone
	if admit != nil {
		close(admit)
		admitWG.Wait()
	}
	select {
	case err := <-engDone:
		out.drained = true
		if err != nil {
			return out, fmt.Errorf("engine: %w", err)
		}
	case <-time.After(drainTimeout):
		cancel()
		if err := <-engDone; err != nil && !errors.Is(err, context.Canceled) {
			return out, fmt.Errorf("engine: %w", err)
		}
	}
	return out, nil
}

// runFleet runs one fleet workload (forest_10ms, linear_10ms,
// churn_ckpt_10ms) end to end and fills the result.
func runFleet(w workload, cfg runConfig) (*result, error) {
	res := newResult(w, cfg)
	var rig *fleetRig
	setupS, chain, rd, err := setUp(cfg, w, func(chain *core.FallbackChain, rd *readings) (func() error, error) {
		r, err := buildRig(w, cfg, chain, rd, cfg.streamCount(w))
		if err != nil {
			return nil, err
		}
		rig = r
		return func() error {
			r.discard()
			rig = nil // let the next set-up's GC reclaim this one
			return nil
		}, nil
	})
	if err != nil {
		return nil, err
	}
	defer rig.discard()
	res.set("setup_s", setupS, "s")
	if w.churn {
		rig.preallocate(cfg.warmup + cfg.window + time.Duration(loadTail))
	}
	debug.FreeOSMemory()

	out, err := rig.run(cfg.warmup, cfg.window, cfg.trace)
	if err != nil {
		return nil, err
	}
	final := rig.eng.Stats(false)
	ph := rig.plan.phases

	// Correctness gate and failure accounting over every phase.
	replica, err := core.NewChainReplicator(chain)
	if err != nil {
		return nil, err
	}
	ref, err := replica()
	if err != nil {
		return nil, err
	}
	var mismatches int64
	for _, c := range rig.checks {
		mismatches += replay(ref, rd, c.idx, c.recs)
		res.Checked += int64(len(c.recs))
	}
	var holdLast, undelivered int64
	for _, p := range ph {
		m := p.merged()
		res.Attempted += p.due
		holdLast += m.holdLast.Load()
		undelivered += p.due - p.shed - m.delivered.Load()
	}
	res.Failed = mismatches + holdLast + undelivered + final.CheckpointErrors + rig.addErrs.Load()
	res.Correct = mismatches == 0
	if mismatches > 0 {
		res.problem("%d verdicts differ from the reference replay of %d streams", mismatches, len(rig.checks))
	}
	if !out.drained {
		res.problem("engine did not drain within %v", drainTimeout)
	}

	// End-to-end metrics come from the untraced phase; the generator's
	// thread is the load, not the system.
	genCPU := func(from, to int64) time.Duration { return rig.gen.cpuAt[to] - rig.gen.cpuAt[from] }
	e2e := ph[0]
	phaseE2E(res, e2e, out.marks, genCPU)
	lateP99 := rig.gen.lateness.quantile(0.99)
	res.Valid = lateP99 <= 1e6
	res.set("loadgen.lateness_p99_ms", ms(lateP99), "ms")
	res.set("fleet.add_us_p99", us(rig.adds.quantile(0.99)), "us")
	res.set("shed_ratio", ratio(float64(e2e.shed), float64(e2e.due)), "ratio")

	if cfg.trace {
		tp := ph[1]
		tm := tp.merged()
		fleetLayers(res, out.marks[tp.from], out.marks[tp.to], &out.poll, rig.ckptDir)
		res.set("fleet.wait_ms_p50", ms(tm.wait.quantile(0.5)), "ms")
		res.set("fleet.wait_ms_p99", ms(tm.wait.quantile(0.99)), "ms")
		res.set("fleet.service_us_p50", us(tm.svc.quantile(0.5)), "us")
		res.set("fleet.service_us_p99", us(tm.svc.quantile(0.99)), "us")
		res.set("source.backlog_mean", ratio(tp.backlogSum, float64(tp.backlogN)), "count")
		res.set("source.window_shed", float64(tp.shed), "count")
		n := tm.delivered.Load()
		res.Breakdown = breakdown(
			[]string{"loadgen.release", "fleet.wait", "fleet.service", "deliver"},
			[]int64{tm.sumRel.Load(), tm.sumWait.Load(), tm.sumSvc.Load(), tm.sumDeliver.Load()}, n)
		traced, _ := cpuCost(tp, out.marks, genCPU)
		res.set("trace.overhead_us_per_verdict", traced-res.Metrics["cpu_us_per_verdict"].Value, "us")
		if err := writeSpans(filepath.Join(cfg.workDir, "spans", w.name+".jsonl"), w.name,
			[4]string{"loadgen.release", "fleet.wait", "fleet.service", "deliver"}, rig.checks); err != nil {
			return nil, err
		}
		if err := microbench(res, chain, rd, res.Metrics["fleet.batch_rows_mean"].Value, cfg.micro); err != nil {
			return nil, err
		}
		if cfg.density {
			n, err := densitySearch(w, cfg, chain, rd)
			if err != nil {
				return nil, err
			}
			res.set("max_streams_10ms", float64(n), "streams")
		}
	}
	res.set("rss_mb", out.rssMB, "MB")
	return res, nil
}

// densitySearch finds max_streams_10ms: the largest N on the ladder
// 1024·2^(i/8), i = 0..64, at which a fresh engine delivers every
// sample due (no shed, no hold-last, nothing left undelivered) with
// at least 99% on time, found by bisection; 0 when N = 1024 fails.
func densitySearch(w workload, cfg runConfig, chain *core.FallbackChain, rd *readings) (int, error) {
	ladder := func(i int) int { return int(math.Round(1024 * math.Pow(2, float64(i)/8))) }
	pass := func(i int) (bool, error) {
		rig, err := buildRig(w, cfg, chain, rd, ladder(i))
		if err != nil {
			return false, err
		}
		defer func() {
			rig.discard()
			runtime.GC()
		}()
		if _, err := rig.run(cfg.probeWarm, cfg.probeWindow, false); err != nil {
			return false, err
		}
		p := rig.plan.phases[0]
		m := p.merged()
		failed := p.due - m.delivered.Load() + m.holdLast.Load()
		return p.due > 0 && failed == 0 && float64(m.ontime.Load()) >= 0.99*float64(p.due), nil
	}
	ok, err := pass(0)
	if err != nil || !ok {
		return 0, err
	}
	lo, hi := 0, 65 // ladder(lo) passes; hi is the first index known to fail
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := pass(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return ladder(lo), nil
}
