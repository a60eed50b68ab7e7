// Command hmd-serve runs the hardware malware detector as a supervised
// long-running service. Startup trains the fallback chain (or reloads
// it from a crash-safe checkpoint, skipping training entirely), then
// the supervised pipeline monitors a rotating schedule of unseen
// applications: collection, feature reduction and ensemble inference
// run as independently restartable stages behind bounded queues, a
// circuit breaker guards the sample source, and the chain's run-time
// state is checkpointed so a killed process resumes its verdict
// timeline instead of restarting it.
//
// Usage:
//
//	hmd-serve [-addr :8642] [-checkpoint DIR] [-faults RATE] [-loops N] ...
//	hmd-serve -streams 256 -shards 8 ...   (fleet mode)
//	hmd-serve -ingest :9642 -addr :8642 ...   (network ingest mode)
//	hmd-serve -coordinator :7642 ...   (cluster control plane)
//	hmd-serve -ingest :9642 -cluster HOST:7642 -node-id n0 ...   (cluster member)
//
// With -streams N > 0 the service runs in fleet mode: instead of one
// supervised pipeline monitoring apps sequentially, the sharded fleet
// engine multiplexes N concurrent monitored streams (each with its own
// chain state, circuit breaker and fault plan) over -shards worker
// shards with cross-stream batched inference, all paced by one timer
// wheel at -stream-interval (the paper's 10 ms by default).
//
// With -ingest ADDR the service opens the network front door instead of
// generating its own streams: remote clients feed HPC feature vectors
// over the length-prefixed binary TCP protocol (internal/ingest), each
// (tenant, stream) pair is admitted into the fleet engine subject to
// per-tenant quotas, and verdicts are echoed back on the same
// connection. The first SIGTERM drains gracefully — admissions are
// refused with DRAIN frames, buffered samples are scored, chain state
// is checkpointed — and a second SIGTERM aborts the drain: the engine
// stops mid-flight, a best-effort final checkpoint is written so the
// next process resumes the surviving timelines, and the streams
// abandoned mid-drain are named on stderr.
//
// With -coordinator ADDR the process serves only the cluster control
// plane (internal/cluster): ingest nodes started with -cluster ADDR
// join it, renew lease heartbeats, and have stream ownership placed by
// consistent hashing. When a member's lease expires its streams fail
// over to the survivors, seeded from the last fanned-in chain state; a
// SIGTERM on a member runs the same orchestrated drain handshake as a
// coordinator-commanded one, so handoffs stay gap-free either way.
// Clients that dial the wrong member are redirected to the owner
// (internal/cluster.Dial follows redirects automatically).
//
// HTTP endpoints (when -addr is set):
//
//	/healthz  liveness: 200 as soon as the process serves HTTP
//	/readyz   readiness: 503 while training/recovering or draining
//	          (body "draining"), 200 once monitoring
//	/stats    JSON snapshot: service phase, collection progress while
//	          training, and the supervised pipeline's counters (restarts,
//	          breaker trips, queue depths, drops, checkpoints). In fleet
//	          mode: aggregate fleet counters and per-shard throughput,
//	          latency percentiles (p50/p99/p999) and the interval-lag
//	          histogram. The per-stream section is off by default (at
//	          density it is the expensive part); /stats?streams=1
//	          pages through it 256 streams at a time, with
//	          &offset=N&limit=M selecting a window in admission order
//	          (limit=-1 returns everything from offset). In ingest mode
//	          additionally the ingest-plane counters
//	/drainz   POST: start a graceful ingest drain (ingest mode only)
//	/debug/pprof/...  Go profiling endpoints (only with -pprof)
//
// The service is deterministic per seed: faults, crashes, breaker
// behaviour and verdicts reproduce exactly across runs (modulo HTTP
// timing, which observes but never steers the pipeline).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/micro"
	"repro/internal/mlearn/zoo"
	"repro/internal/supervise"
	"repro/internal/workload"
)

func main() {
	name := flag.String("classifier", "REPTree", "base classifier for the fallback chain")
	variantName := flag.String("variant", "general", "general, boosted or bagging")
	countsFlag := flag.String("counts", "4,2", "chain HPC budgets, primary first")
	window := flag.Int("window", 5, "sliding verdict window (samples)")
	apps := flag.Int("apps", 4, "training applications per behaviour family")
	intervals := flag.Int("intervals", 10, "sampling intervals per training run")
	nApps := flag.Int("monitor-apps", 6, "unseen applications per monitoring loop")
	monIntervals := flag.Int("monitor-intervals", 40, "sampling intervals per monitored app")
	loops := flag.Int("loops", 1, "monitoring loops over the schedule (0 = run until signalled)")
	seed := flag.Uint64("seed", 1, "split/training seed")
	trainWorkers := flag.Int("train-workers", 0, "worker goroutines for ensemble training (0 = GOMAXPROCS, 1 = sequential; models are bit-identical either way)")
	faultRate := flag.Float64("faults", 0, "fault-injection rate on the monitored source (0 = clean)")
	faultKinds := flag.String("fault-kinds", "all", "comma-separated fault kinds: drop,stuck,zero,noise,saturate,jitter,crash (or all)")
	addr := flag.String("addr", "", "HTTP listen address for health/stats (empty = no HTTP)")
	ckptDir := flag.String("checkpoint", "", "checkpoint directory (empty = no persistence)")
	ckptEvery := flag.Int("checkpoint-every", 16, "verdicts between chain-state checkpoints")
	queueCap := flag.Int("queue", 8, "bounded stage-queue capacity")
	policy := flag.String("overflow", "block", "queue overflow policy: block (deterministic) or drop-oldest")
	streams := flag.Int("streams", 0, "fleet mode: monitored streams served concurrently (0 = classic single-pipeline mode)")
	shards := flag.Int("shards", 0, "fleet mode: worker shards (0 = GOMAXPROCS)")
	streamInterval := flag.Duration("stream-interval", 10*time.Millisecond, "fleet mode: per-stream sampling interval (0 = unpaced)")
	maxHarvest := flag.Int("max-harvest", 0, "fleet mode: max wheel ticks coalesced into one shard batch (0 = min(8, wheel slots), 1 = batch per tick)")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof on the HTTP mux")
	ingestAddr := flag.String("ingest", "", "ingest mode: TCP listen address for the binary ingest protocol (empty = off)")
	ingestWindow := flag.Int("ingest-window", 0, "ingest mode: per-stream inflight sample window (0 = default 64)")
	ingestMaxConns := flag.Int("ingest-max-conns", 0, "ingest mode: global concurrent connection cap (0 = default 1024)")
	ingestQuotaStreams := flag.Int("ingest-quota-streams", 0, "ingest mode: per-tenant live stream cap (0 = unlimited)")
	ingestQuotaConns := flag.Int("ingest-quota-conns", 0, "ingest mode: per-tenant connection cap (0 = unlimited)")
	ingestQuotaAdmit := flag.Float64("ingest-quota-admit", 0, "ingest mode: per-tenant stream admissions per second (0 = unlimited)")
	ingestQuotaSamples := flag.Float64("ingest-quota-samples", 0, "ingest mode: per-tenant samples per second (0 = unlimited)")
	coordAddr := flag.String("coordinator", "", "coordinator mode: TCP listen address for the cluster control plane (no inference; excludes every other mode)")
	leaseTTL := flag.Duration("lease-ttl", 2*time.Second, "coordinator mode: member lease TTL before failover")
	clusterAddr := flag.String("cluster", "", "cluster mode: coordinator address this ingest node joins (requires -ingest)")
	nodeID := flag.String("node-id", "", "cluster mode: stable member identity (default: the advertise address)")
	advertise := flag.String("advertise", "", "cluster mode: ingest address clients are redirected to (default: the -ingest listener address)")
	nodeWeight := flag.Int("node-weight", 1, "cluster mode: ring share relative to other members")
	heartbeatEvery := flag.Duration("heartbeat", 500*time.Millisecond, "cluster mode: lease renewal cadence (keep well under the coordinator's -lease-ttl)")
	statesEvery := flag.Int("states-every", 4, "cluster mode: ship stream states to the coordinator every Nth heartbeat (<0 disables the fan-in)")
	tierName := flag.String("tier", "compiled", "inference tier: compiled (bit-identical, default), quantized (fixed-point fast tier, statistical equivalence), or interpreted")
	flag.Parse()

	variant := zoo.General
	switch strings.ToLower(*variantName) {
	case "boosted":
		variant = zoo.Boosted
	case "bagging", "bagged":
		variant = zoo.Bagged
	}
	counts, err := parseCounts(*countsFlag)
	if err != nil {
		fatal(err)
	}
	tier, err := core.ParseTier(*tierName)
	if err != nil {
		fatal(err)
	}
	overflow := supervise.Block
	if *policy == "drop-oldest" {
		overflow = supervise.DropOldest
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := newService()
	if *addr != "" {
		shutdown := srv.serveHTTP(*addr, *pprofOn)
		defer shutdown()
	}

	// ---- Coordinator mode: cluster control plane, no inference ----
	if *coordAddr != "" {
		runCoordinator(ctx, srv, *coordAddr, *leaseTTL)
		return
	}

	// ---- Model: recover from checkpoint or train from scratch ----
	var modelStore, stateStore *core.CheckpointStore
	if *ckptDir != "" {
		if modelStore, err = core.NewCheckpointStore(*ckptDir, "model", core.ChainModelVersion); err != nil {
			fatal(err)
		}
		if stateStore, err = core.NewCheckpointStore(*ckptDir, "state", core.ChainStateVersion); err != nil {
			fatal(err)
		}
	}
	chain, err := loadOrTrain(srv, modelStore, *name, variant, counts, *window, *apps, *intervals, *seed, *trainWorkers)
	if err != nil {
		fatal(err)
	}
	chain.SetTier(tier)
	switch tier {
	case core.TierQuantized:
		fmt.Fprintf(os.Stderr, "hmd-serve: inference backend: tier=quantized, %d/%d chain stages quantized (%d compiled)\n",
			chain.QuantizedStages(), chain.Stages(), chain.CompiledStages())
	case core.TierInterpreted:
		fmt.Fprintf(os.Stderr, "hmd-serve: inference backend: tier=interpreted (%d stages)\n", chain.Stages())
	default:
		fmt.Fprintf(os.Stderr, "hmd-serve: inference backend: %d/%d chain stages compiled\n",
			chain.CompiledStages(), chain.Stages())
	}

	var plan *faults.Plan
	if *faultRate > 0 {
		kinds, err := faults.ParseKinds(*faultKinds)
		if err != nil {
			fatal(err)
		}
		plan = &faults.Plan{Seed: *seed, Rate: *faultRate, Kinds: kinds}
	}

	// ---- Ingest mode: network front door into the fleet engine ----
	if *ingestAddr != "" {
		runIngest(ctx, srv, chain, ingestModeConfig{
			addr:     *ingestAddr,
			window:   *ingestWindow,
			maxConns: *ingestMaxConns,
			quotas: ingest.Quotas{
				MaxStreams:    *ingestQuotaStreams,
				MaxConns:      *ingestQuotaConns,
				AdmitPerSec:   *ingestQuotaAdmit,
				SamplesPerSec: *ingestQuotaSamples,
			},
			shards:      *shards,
			interval:    *streamInterval,
			policy:      overflow,
			queueCap:    *queueCap,
			maxHarvest:  *maxHarvest,
			ckptDir:     *ckptDir,
			ckptEvery:   *ckptEvery,
			cluster:     *clusterAddr,
			nodeID:      *nodeID,
			advertise:   *advertise,
			weight:      *nodeWeight,
			heartbeat:   *heartbeatEvery,
			statesEvery: *statesEvery,
			seed:        *seed,
			tier:        tier,
		})
		return
	}

	if *clusterAddr != "" {
		fatal(errors.New("-cluster requires -ingest (only the network ingest plane clusters)"))
	}

	// ---- Fleet mode: N concurrent streams over sharded workers ----
	if *streams > 0 {
		runFleet(ctx, srv, chain, fleetConfig{
			streams:    *streams,
			shards:     *shards,
			interval:   *streamInterval,
			policy:     overflow,
			queueCap:   *queueCap,
			maxHarvest: *maxHarvest,
			ckptDir:    *ckptDir,
			ckptEvery:  *ckptEvery,
			nApps:      *nApps,
			intervals:  *monIntervals,
			loops:      *loops,
			plan:       plan,
			tier:       tier,
		})
		return
	}

	// ---- Supervised pipeline ----
	pipe, err := supervise.New(supervise.Config{
		Chain:           chain,
		QueueCap:        *queueCap,
		Policy:          overflow,
		Checkpoint:      stateStore,
		CheckpointEvery: *ckptEvery,
	})
	if err != nil {
		fatal(err)
	}
	if stateStore != nil {
		gen, quarantined, rerr := pipe.RestoreState()
		switch {
		case rerr == nil:
			fmt.Fprintf(os.Stderr, "hmd-serve: resumed chain state from checkpoint generation %d (interval %d)\n",
				gen, chain.State().Interval)
		case errors.Is(rerr, core.ErrNoCheckpoint):
			// Fresh timeline.
		default:
			fatal(rerr)
		}
		for _, q := range quarantined {
			fmt.Fprintf(os.Stderr, "hmd-serve: quarantined torn state checkpoint: %s\n", q)
		}
	}
	srv.setPipeline(pipe)

	// ---- Monitoring loop over unseen applications ----
	schedule := unseenSchedule(*nApps)
	if len(schedule) == 0 {
		fatal(errors.New("empty monitoring schedule"))
	}
	srv.setReady(true)
	fmt.Fprintf(os.Stderr, "hmd-serve: monitoring %d unseen apps x %d intervals per loop\n",
		len(schedule), *monIntervals)

	for loop := 0; *loops == 0 || loop < *loops; loop++ {
		for _, app := range schedule {
			if ctx.Err() != nil {
				finish(srv, pipe, stateStore)
				return
			}
			srv.setApp(app.Name, loop)
			src, err := supervise.NewMachineSource(supervise.MachineSourceConfig{
				Machine: micro.FastConfig(),
				Run:     app.NewRun(loop),
				Events:  chain.Events(),
				Total:   *monIntervals,
				Plan:    plan,
				Scope:   fmt.Sprintf("%s/l%d", app.Name, loop),
			})
			if err != nil {
				fatal(err)
			}
			verdicts, err := pipe.Run(ctx, src, *monIntervals)
			if err != nil {
				if errors.Is(err, context.Canceled) {
					finish(srv, pipe, stateStore)
					return
				}
				fatal(fmt.Errorf("monitoring %s: %w", app.Name, err))
			}
			logApp(app, verdicts, pipe.Stats())
		}
	}
	finish(srv, pipe, stateStore)
}

// fleetConfig carries the fleet-mode flags.
type fleetConfig struct {
	streams    int
	shards     int
	interval   time.Duration
	policy     supervise.OverflowPolicy
	queueCap   int
	maxHarvest int
	ckptDir    string
	ckptEvery  int
	nApps      int
	intervals  int
	loops      int
	plan       *faults.Plan
	tier       core.Tier
}

// runFleet serves cfg.streams concurrent monitored streams through the
// sharded fleet engine: each stream monitors one app of the unseen
// schedule (round-robin) with its own chain state, breaker and fault
// plan, while the shards batch inference across streams. With -loops 0
// the fleet runs until signalled; otherwise every stream finishes after
// loops x monitor-intervals verdicts and the engine drains.
func runFleet(ctx context.Context, srv *service, chain *core.FallbackChain, cfg fleetConfig) {
	var store *core.CheckpointStore
	var err error
	if cfg.ckptDir != "" {
		if store, err = core.NewCheckpointStore(cfg.ckptDir, "fleet", fleet.StateVersion); err != nil {
			fatal(err)
		}
	}
	eng, err := fleet.New(fleet.Config{
		Chain:           chain,
		Shards:          cfg.shards,
		Interval:        cfg.interval,
		Policy:          cfg.policy,
		PendingBatches:  cfg.queueCap,
		MaxHarvestTicks: cfg.maxHarvest,
		Checkpoint:      store,
		CheckpointEvery: cfg.ckptEvery,
		Tier:            cfg.tier,
	})
	if err != nil {
		fatal(err)
	}
	if store != nil {
		gen, quarantined, rerr := eng.RestoreState()
		switch {
		case rerr == nil:
			fmt.Fprintf(os.Stderr, "hmd-serve: resumed fleet state from checkpoint generation %d\n", gen)
		case errors.Is(rerr, core.ErrNoCheckpoint):
			// Fresh timelines for every stream.
		default:
			fatal(rerr)
		}
		for _, q := range quarantined {
			fmt.Fprintf(os.Stderr, "hmd-serve: quarantined torn fleet checkpoint: %s\n", q)
		}
	}

	schedule := unseenSchedule(cfg.nApps)
	if len(schedule) == 0 {
		fatal(errors.New("empty monitoring schedule"))
	}
	horizon := cfg.intervals * cfg.loops // 0 = stream until signalled
	for i := 0; i < cfg.streams; i++ {
		app := schedule[i%len(schedule)]
		total := horizon
		if total <= 0 {
			total = 1 << 30
		}
		src, err := supervise.NewMachineSource(supervise.MachineSourceConfig{
			Machine: micro.FastConfig(),
			Run:     app.NewRun(i),
			Events:  chain.Events(),
			Total:   total,
			Plan:    cfg.plan,
			Scope:   fmt.Sprintf("%s/s%d", app.Name, i),
		})
		if err != nil {
			fatal(err)
		}
		if err := eng.Add(fleet.StreamConfig{
			ID:        fmt.Sprintf("s%04d-%s", i, app.Name),
			Source:    src,
			Intervals: horizon,
		}); err != nil {
			fatal(err)
		}
	}

	srv.setFleet(eng)
	srv.setReady(true)
	fmt.Fprintf(os.Stderr, "hmd-serve: fleet monitoring %d streams on %d shards (interval %v, horizon %d)\n",
		cfg.streams, eng.Shards(), cfg.interval, horizon)
	err = eng.Run(ctx)
	srv.setReady(false)
	snap := eng.Stats(false)
	fmt.Fprintf(os.Stderr, "hmd-serve: fleet done: %d verdicts (%d prior-held) over %d rotations, shed=%d, checkpoints=%d (%d failed), tick lateness p99/max %.0f/%.0f us, %d catch-up ticks\n",
		snap.Verdicts, snap.LostVerdicts, snap.Rotations, snap.ShedIntervals,
		snap.CheckpointsWritten, snap.CheckpointErrors,
		snap.WheelLate.P99Micros, snap.WheelLate.MaxMicros, snap.CatchUpTicks)
	if err != nil && !errors.Is(err, context.Canceled) {
		fatal(err)
	}
}

// ingestModeConfig carries the ingest-mode flags.
type ingestModeConfig struct {
	addr       string
	window     int
	maxConns   int
	quotas     ingest.Quotas
	shards     int
	interval   time.Duration
	policy     supervise.OverflowPolicy
	queueCap   int
	maxHarvest int
	ckptDir    string
	ckptEvery  int

	// Cluster membership (empty cluster = standalone ingest node).
	cluster     string
	nodeID      string
	advertise   string
	weight      int
	heartbeat   time.Duration
	statesEvery int
	seed        uint64
	tier        core.Tier
}

// runIngest opens the network front door: remote clients feed samples
// over TCP into the fleet engine, which schedules and scores them like
// any other stream. The first signal starts a graceful drain (refuse
// admissions, score what is buffered, checkpoint); a second signal
// aborts it.
func runIngest(ctx context.Context, srv *service, chain *core.FallbackChain, cfg ingestModeConfig) {
	var store *core.CheckpointStore
	var err error
	if cfg.ckptDir != "" {
		if store, err = core.NewCheckpointStore(cfg.ckptDir, "fleet", fleet.StateVersion); err != nil {
			fatal(err)
		}
	}
	eng, err := fleet.New(fleet.Config{
		Chain:           chain,
		Shards:          cfg.shards,
		Interval:        cfg.interval,
		Policy:          cfg.policy,
		PendingBatches:  cfg.queueCap,
		MaxHarvestTicks: cfg.maxHarvest,
		Checkpoint:      store,
		CheckpointEvery: cfg.ckptEvery,
		Tier:            cfg.tier,
	})
	if err != nil {
		fatal(err)
	}
	if store != nil {
		gen, quarantined, rerr := eng.RestoreState()
		switch {
		case rerr == nil:
			fmt.Fprintf(os.Stderr, "hmd-serve: resumed fleet state from checkpoint generation %d\n", gen)
		case errors.Is(rerr, core.ErrNoCheckpoint):
			// Fresh timelines for every stream.
		default:
			fatal(rerr)
		}
		for _, q := range quarantined {
			fmt.Fprintf(os.Stderr, "hmd-serve: quarantined torn fleet checkpoint: %s\n", q)
		}
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fatal(fmt.Errorf("ingest listen: %w", err))
	}

	// Cluster membership: the agent joins the coordinator, renews its
	// lease, serves the placement hook (clients dialing the wrong node
	// get a REDIRECT to the owner), applies INSTALLed stream states and
	// fans captured states back in.
	var agent *cluster.Agent
	var placement func(key string) (string, bool)
	var isrv *ingest.Server
	engDone := make(chan struct{})
	if cfg.cluster != "" {
		adv := cfg.advertise
		if adv == "" {
			adv = ln.Addr().String()
		}
		id := cfg.nodeID
		if id == "" {
			id = adv
		}
		agent, err = cluster.NewAgent(cluster.AgentConfig{
			NodeID:         id,
			Coordinator:    cfg.cluster,
			Advertise:      adv,
			Weight:         cfg.weight,
			Engine:         eng,
			HeartbeatEvery: cfg.heartbeat,
			StatesEvery:    cfg.statesEvery,
			Stats: func() ingest.NodeStats {
				if isrv == nil {
					return ingest.NodeStats{}
				}
				return isrv.NodeStatsSnapshot()
			},
			OnDrain:    func() { isrv.Drain("cluster drain") },
			EngineDone: engDone,
			Seed:       cfg.seed,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "hmd-serve: "+format+"\n", args...)
			},
		})
		if err != nil {
			fatal(err)
		}
		placement = agent.Placement
	}

	isrv, err = ingest.NewServer(ingest.Config{
		Engine:    eng,
		Width:     len(chain.Events()),
		Window:    cfg.window,
		MaxConns:  cfg.maxConns,
		Quotas:    cfg.quotas,
		Placement: placement,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hmd-serve: ingest: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
	go func() {
		if serr := isrv.Serve(ln); serr != nil && !errors.Is(serr, ingest.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "hmd-serve: ingest serve: %v\n", serr)
		}
	}()

	// The membership loop runs detached from the signal context too: a
	// draining agent must keep heartbeating until the final fan-in.
	var agentErr chan error
	agentCtx, agentCancel := context.WithCancel(context.Background())
	defer agentCancel()
	if agent != nil {
		agentErr = make(chan error, 1)
		go func() { agentErr <- agent.Run(agentCtx) }()
	}

	srv.setFleet(eng)
	srv.setIngest(isrv)
	srv.setAgent(agent)
	srv.setReady(true)
	if agent != nil {
		fmt.Fprintf(os.Stderr, "hmd-serve: ingest plane listening on %s (width %d, window %d, interval %v), joining cluster at %s\n",
			ln.Addr(), len(chain.Events()), cfg.window, cfg.interval, cfg.cluster)
	} else {
		fmt.Fprintf(os.Stderr, "hmd-serve: ingest plane listening on %s (width %d, window %d, interval %v)\n",
			ln.Addr(), len(chain.Events()), cfg.window, cfg.interval)
	}

	// The engine runs detached from the signal context: the first signal
	// must drain, not cancel. Only a second signal cancels outright.
	engCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-ctx.Done():
		case <-engCtx.Done():
			return
		}
		fmt.Fprintln(os.Stderr, "hmd-serve: signal received; draining ingest plane")
		if agent != nil {
			// Same handshake as a coordinator-commanded drain: the
			// lease turns draining and the final states are fanned in
			// before BYE, so the survivors inherit the timelines.
			agent.Drain()
		} else {
			isrv.Drain("signal")
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		select {
		case <-sig:
			fmt.Fprintln(os.Stderr, "hmd-serve: second signal; aborting drain")
			cancel()
		case <-engCtx.Done():
		}
	}()

	err = eng.Run(engCtx)
	close(engDone)
	srv.setReady(false)
	if errors.Is(err, context.Canceled) {
		// Aborted drain: the engine stopped mid-flight. Persist whatever
		// chain state it holds so the next process resumes these
		// timelines instead of restarting them, and name what was
		// abandoned so the operator knows the drain was cut short.
		if store != nil {
			if serr := eng.SaveState(); serr != nil {
				fmt.Fprintf(os.Stderr, "hmd-serve: abort checkpoint failed: %v\n", serr)
			} else {
				fmt.Fprintln(os.Stderr, "hmd-serve: abort checkpoint written; resume with the same -checkpoint dir")
			}
		}
		if left := eng.Unfinished(); len(left) > 0 {
			fmt.Fprintf(os.Stderr, "hmd-serve: %d streams abandoned mid-drain: %s\n",
				len(left), strings.Join(left, ", "))
		}
	}
	if agent != nil {
		// Give a draining agent time to ship its final states and say
		// BYE; an aborted or idle agent is simply cancelled.
		select {
		case aerr := <-agentErr:
			if aerr != nil && !errors.Is(aerr, context.Canceled) {
				fmt.Fprintf(os.Stderr, "hmd-serve: cluster agent: %v\n", aerr)
			}
		case <-time.After(5 * time.Second):
			fmt.Fprintln(os.Stderr, "hmd-serve: cluster agent did not finish its fan-in; cancelling")
		}
		agentCancel()
	}
	snap := eng.Stats(false)
	ist := isrv.StatsSnapshot(false)
	if cerr := isrv.Close(); cerr != nil {
		fmt.Fprintf(os.Stderr, "hmd-serve: ingest close: %v\n", cerr)
	}
	fmt.Fprintf(os.Stderr, "hmd-serve: ingest done: %d samples accepted (%d shed, %d dup), %d verdicts (%d undelivered), %d admissions, %d reattaches, checkpoints=%d (%d failed)\n",
		ist.SamplesAccepted, ist.SamplesShed, ist.SamplesDup, ist.Verdicts, ist.VerdictsUndelivered,
		ist.Admissions, ist.Reattaches, snap.CheckpointsWritten, snap.CheckpointErrors)
	if err != nil && !errors.Is(err, context.Canceled) {
		fatal(err)
	}
}

// runCoordinator serves the cluster control plane: members join and
// renew leases here, stream ownership is placed by consistent hashing,
// silent nodes are expired and their streams failed over. Coordinator
// processes run no inference; /stats exposes membership and handoffs.
func runCoordinator(ctx context.Context, srv *service, addr string, ttl time.Duration) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		LeaseTTL: ttl,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hmd-serve: "+format+"\n", args...)
		},
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(fmt.Errorf("coordinator listen: %w", err))
	}
	go func() {
		if serr := coord.Serve(ln); serr != nil {
			fmt.Fprintf(os.Stderr, "hmd-serve: coordinator serve: %v\n", serr)
		}
	}()
	srv.setCoordinator(coord)
	srv.setReady(true)
	fmt.Fprintf(os.Stderr, "hmd-serve: cluster coordinator on %s (lease TTL %v)\n", ln.Addr(), ttl)
	<-ctx.Done()
	srv.setReady(false)
	st := coord.Stats()
	coord.Close()
	fmt.Fprintf(os.Stderr, "hmd-serve: coordinator done: %d joins, %d lease expiries, %d leaves, %d handoffs, %d states stored\n",
		st.Joins, st.LeaseExpiries, st.Leaves, st.Handoffs, st.StatesStored)
}

// finish persists the chain state once more so the next process resumes
// exactly where this one stopped.
func finish(srv *service, pipe *supervise.Pipeline, stateStore *core.CheckpointStore) {
	srv.setReady(false)
	if stateStore != nil {
		if err := pipe.SaveState(); err != nil {
			fmt.Fprintf(os.Stderr, "hmd-serve: final state checkpoint failed: %v\n", err)
		}
	}
	st := pipe.Stats()
	fmt.Fprintf(os.Stderr, "hmd-serve: done: %d verdicts (%d prior-held), %d source failures, breaker trips=%d, restarts=%d, checkpoints=%d\n",
		st.Verdicts, st.LostVerdicts, st.SourceFailures, st.Breaker.Trips,
		st.Collector.Restarts+st.Reducer.Restarts+st.Inferrer.Restarts, st.CheckpointsWritten)
}

// loadOrTrain reloads the trained chain from the model checkpoint, or
// trains it from a fresh collection pass (exposing live collection
// progress through the service) and checkpoints the result.
func loadOrTrain(srv *service, store *core.CheckpointStore, name string, variant zoo.Variant,
	counts []int, window, apps, intervals int, seed uint64, workers int) (*core.FallbackChain, error) {
	if store != nil {
		var chain *core.FallbackChain
		gen, quarantined, err := store.Recover(func(payload []byte) error {
			c, cerr := core.LoadChain(bytes.NewReader(payload))
			if cerr != nil {
				return cerr
			}
			chain = c
			return nil
		})
		for _, q := range quarantined {
			fmt.Fprintf(os.Stderr, "hmd-serve: quarantined torn model checkpoint: %s\n", q)
		}
		if err == nil {
			fmt.Fprintf(os.Stderr, "hmd-serve: loaded trained chain from checkpoint generation %d\n", gen)
			return chain, nil
		}
		if !errors.Is(err, core.ErrNoCheckpoint) {
			return nil, err
		}
	}

	fmt.Fprintln(os.Stderr, "hmd-serve: no model checkpoint; collecting corpus and training...")
	cfg := collect.Default()
	cfg.Suite.AppsPerFamily = apps
	cfg.Intervals = intervals
	cfg.Live = srv.live
	start := time.Now()
	res, err := collect.Collect(cfg)
	if err != nil {
		return nil, fmt.Errorf("collecting corpus: %w", err)
	}
	b, err := core.NewBuilder(res.Data, 0.7, seed)
	if err != nil {
		return nil, fmt.Errorf("splitting corpus: %w", err)
	}
	b.Workers = workers
	chain, err := b.BuildChain(name, variant, counts, core.ChainConfig{Window: window})
	if err != nil {
		return nil, fmt.Errorf("training chain: %w", err)
	}
	fmt.Fprintf(os.Stderr, "hmd-serve: trained %v chain in %v\n", counts, time.Since(start).Round(time.Millisecond))
	if store != nil {
		if err := store.Save(func(w io.Writer) error { return core.SaveChain(w, chain) }); err != nil {
			return nil, fmt.Errorf("checkpointing model: %w", err)
		}
	}
	return chain, nil
}

func unseenSchedule(n int) []workload.App {
	unseen := workload.Suite(workload.SuiteConfig{Seed: 0xBEEF, AppsPerFamily: 1})
	benign, malware := workload.Split(unseen)
	var schedule []workload.App
	for i := 0; i < n; i++ {
		if i%2 == 0 && i/2 < len(benign) {
			schedule = append(schedule, benign[i/2])
		} else if i/2 < len(malware) {
			schedule = append(schedule, malware[i/2])
		}
	}
	return schedule
}

func logApp(app workload.App, verdicts []core.Verdict, st supervise.Snapshot) {
	flags := 0
	for _, v := range verdicts {
		if v.Malware {
			flags++
		}
	}
	verdict := "BENIGN "
	if len(verdicts) > 0 && flags > len(verdicts)/3 {
		verdict = "MALWARE"
	}
	fmt.Printf("%-22s truth=%-8s verdict=%s  intervals=%d held=%d breaker=%s\n",
		app.Name, app.Class, verdict, len(verdicts), st.LostVerdicts, st.Breaker.State)
}

func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -counts entry %q", part)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, errors.New("-counts must list at least one HPC budget")
	}
	return counts, nil
}

// service is the HTTP-observable state of the process. All fields are
// mutex-guarded; the HTTP handlers only ever read snapshots, so scraping
// never perturbs the pipeline.
type service struct {
	mu     sync.Mutex
	ready  bool
	app    string
	loop   int
	pipe   *supervise.Pipeline
	fleet  *fleet.Engine
	ingest *ingest.Server
	coord  *cluster.Coordinator
	agent  *cluster.Agent
	live   *collect.LiveReport
}

func newService() *service {
	return &service{live: &collect.LiveReport{}}
}

func (s *service) setReady(v bool) { s.mu.Lock(); s.ready = v; s.mu.Unlock() }

func (s *service) setApp(name string, loop int) {
	s.mu.Lock()
	s.app, s.loop = name, loop
	s.mu.Unlock()
}

func (s *service) setPipeline(p *supervise.Pipeline) {
	s.mu.Lock()
	s.pipe = p
	s.mu.Unlock()
}

func (s *service) setFleet(e *fleet.Engine) {
	s.mu.Lock()
	s.fleet = e
	s.mu.Unlock()
}

func (s *service) setIngest(is *ingest.Server) {
	s.mu.Lock()
	s.ingest = is
	s.mu.Unlock()
}

func (s *service) getIngest() *ingest.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ingest
}

func (s *service) setCoordinator(c *cluster.Coordinator) {
	s.mu.Lock()
	s.coord = c
	s.mu.Unlock()
}

func (s *service) setAgent(a *cluster.Agent) {
	s.mu.Lock()
	s.agent = a
	s.mu.Unlock()
}

// statsPayload is the /stats JSON document.
type statsPayload struct {
	Phase string `json:"phase"` // "starting", "training", "serving", "draining"
	App   string `json:"app,omitempty"`
	Loop  int    `json:"loop"`

	// Collection progress (meaningful while training).
	CollectedApps    int             `json:"collected_apps"`
	CollectionReport *collect.Report `json:"collection,omitempty"`

	// Supervised-pipeline counters (present once the pipeline exists).
	Pipeline *supervise.Snapshot `json:"pipeline,omitempty"`

	// Fleet counters (fleet mode): aggregate totals, per-shard
	// throughput/latency, and — unless suppressed — per-stream detail.
	Fleet *fleet.Snapshot `json:"fleet,omitempty"`

	// Ingest-plane counters (ingest mode): admissions, quota
	// rejections, evictions, wire errors, sample/verdict accounting.
	Ingest *ingest.Stats `json:"ingest,omitempty"`

	// Cluster control plane (coordinator mode): lease table, placement
	// and the handoff audit trail.
	Coordinator *coordinatorPayload `json:"coordinator,omitempty"`

	// Cluster membership counters (cluster ingest mode).
	ClusterAgent *cluster.AgentStats `json:"cluster_agent,omitempty"`
}

// coordinatorPayload is the coordinator-mode slice of /stats.
type coordinatorPayload struct {
	Stats    cluster.CoordinatorStats `json:"stats"`
	Members  []cluster.MemberStatus   `json:"members"`
	Handoffs []cluster.Handoff        `json:"handoffs,omitempty"`
}

func (s *service) stats(perStream bool, offset, limit int) statsPayload {
	s.mu.Lock()
	ready, app, loop, pipe, eng, ing := s.ready, s.app, s.loop, s.pipe, s.fleet, s.ingest
	coord, agent := s.coord, s.agent
	s.mu.Unlock()

	rep, apps := s.live.Snapshot()
	payload := statsPayload{
		Phase:         "starting",
		App:           app,
		Loop:          loop,
		CollectedApps: apps,
	}
	if apps > 0 {
		payload.Phase = "training"
		payload.CollectionReport = &rep
	}
	if pipe != nil {
		snap := pipe.Stats()
		payload.Pipeline = &snap
	}
	if eng != nil {
		var snap fleet.Snapshot
		if perStream {
			snap = eng.StatsPage(offset, limit)
		} else {
			snap = eng.Stats(false)
		}
		payload.Fleet = &snap
	}
	if ing != nil {
		snap := ing.StatsSnapshot(perStream)
		payload.Ingest = &snap
	}
	if coord != nil {
		payload.Coordinator = &coordinatorPayload{
			Stats:    coord.Stats(),
			Members:  coord.Members(),
			Handoffs: coord.Handoffs(),
		}
	}
	if agent != nil {
		snap := agent.Stats()
		payload.ClusterAgent = &snap
	}
	if ready {
		payload.Phase = "serving"
	}
	if ing != nil && ing.Draining() {
		payload.Phase = "draining"
	}
	return payload
}

// serveHTTP starts the observation endpoints and returns a shutdown
// function. With pprofOn the Go profiling handlers mount under
// /debug/pprof — off by default, because profiling endpoints on a
// monitoring port are an operational decision, not a given.
func (s *service) serveHTTP(addr string, pprofOn bool) func() {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		ready, ing := s.ready, s.ingest
		s.mu.Unlock()
		// A draining ingest plane is alive but must stop receiving
		// traffic: load balancers read the 503 and route elsewhere while
		// buffered work finishes.
		if ing != nil && ing.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		if !ready {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/drainz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		ing := s.getIngest()
		if ing == nil {
			http.Error(w, "no ingest plane", http.StatusNotFound)
			return
		}
		ing.Drain("operator /drainz")
		fmt.Fprintln(w, "draining")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		// The per-stream section is opt-in and paginated: a fleet at
		// density has thousands of streams, and dumping them all per
		// scrape is exactly the kind of O(streams) control-plane cost
		// the engine keeps off its hot path.
		q := r.URL.Query()
		perStream := q.Get("streams") != "" && q.Get("streams") != "0"
		offset, limit := 0, 256
		if v := q.Get("offset"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "offset must be a non-negative integer", http.StatusBadRequest)
				return
			}
			offset = n
		}
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				http.Error(w, "limit must be an integer (-1 = all)", http.StatusBadRequest)
				return
			}
			limit = n
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.stats(perStream, offset, limit)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "hmd-serve: http: %v\n", err)
		}
	}()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hmd-serve:", err)
	os.Exit(1)
}
