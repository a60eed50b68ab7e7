// Package fleet is the multi-stream serving engine above the supervised
// pipeline: one process monitoring N programs at once — the paper's
// 10 ms sampling interval per stream — on a fixed pool of M worker
// shards, instead of N× the pipeline's three goroutines.
//
// The shape of the engine:
//
//		            ┌── timer wheel (one schedule for every stream) ┐
//		            │ slot 0: h0 h4 h8 …   slot 1: h1 h5 h9 …   …   │
//		            └──────┬────────────────────┬───────────────────┘
//		     staged batch  │ (due streams)      │  per-shard SPSC ring
//		                   ▼                    ▼
//		            [shard 0]            [shard 1]      … [shard M-1]
//		          chain replica         chain replica
//		          per-stage Batcher     per-stage Batcher
//		                    │                    │
//		        gather → one ScoreBatch pass per stage → demux verdicts
//
//	  - One timer wheel drives every stream's sampling interval: streams
//	    are spread round-robin over the wheel's slots, the wheel ticks
//	    once per slot, and a full rotation harvests every live stream
//	    exactly once. Ticks follow one absolute deadline schedule — tick
//	    k of a Run is due at start + k·Interval/slots — not a ticker:
//	    each wake runs every overdue tick in order, so a late timer, a GC
//	    pause or a full shard ring delays ticks but never drops one, and
//	    the wheel catches up rather than losing rotations. Runs of slots
//	    with no live stream are slept through (at most a rotation; Add
//	    pokes the wheel), and their ticks still run on wake, so tick,
//	    rotation and checkpoint counts do not change.
//	  - A push-fed (source.Queued) stream is harvested at its slot when
//	    it has an unclaimed sample. That alone matches its arrival rate
//	    exactly, so one sample released just after its slot's tick would
//	    leave the stream a rotation late for good; a stream still holding
//	    an unclaimed sample after its harvest is harvested once more at
//	    the rotation boundary, in a batch of its own, until it is current.
//	  - The wheel's bookkeeping is dense: slots hold int32 handles into
//	    chunked slabs of stream records, and stream chain state is carved
//	    from per-shard arenas in admission order, so a harvest pass walks
//	    contiguous memory. String IDs exist only at the admission,
//	    removal and checkpoint boundaries.
//	  - Each tick, the due streams are appended in place to a per-shard
//	    staging batch. An adaptive controller decides when to hand the
//	    batch over: a shard that keeps up gets a batch per tick (lowest
//	    latency), a backlogged shard gets batches coalesced across
//	    several ticks (amortised hand-off and inference), and every
//	    rotation boundary force-flushes so a batch never carries the same
//	    stream twice. The hand-off itself is a fixed single-producer/
//	    single-consumer ring per shard: batches stay resident in the
//	    ring's slots and only entry slices are swapped, so the wheel →
//	    shard path is a few atomics, no mutex, no channel hop.
//	  - The shard reads each source, runs the chain's BeginObserve half
//	    (health, stage selection, feature gather), then scores all
//	    gathered vectors in one Batcher pass per stage — cross-stream
//	    batched inference over the shard's model replica — and demuxes
//	    the scores back through each stream's CommitScore. The split pair
//	    is bit-identical to FallbackChain.Observe, so a fleet stream's
//	    verdicts match a dedicated pipeline's exactly (under the Block
//	    policy).
//	  - Chain state is per stream; trained models are per shard. Models
//	    reuse internal scratch (one scratch owner per goroutine), so each
//	    shard gets a full replica via core.NewChainReplicator and every
//	    stream's chain is assembled from its shard's detectors.
//	  - Steady state allocates nothing per interval per stream: staging
//	    batches and ring slots reuse their entry storage, sized once for
//	    the largest batch the shard's live streams can form (so a
//	    catch-up burst grows nothing), sample buffers and scoring
//	    matrices are per-shard scratch, and the wheel's bookkeeping is
//	    fixed-size.
//	  - The PR 2 supervision vocabulary carries over per stream: a
//	    circuit breaker per source, lost-interval repair through the
//	    chain's hold-last path, drop-oldest shedding with lag accounting
//	    (a shard that falls behind sheds whole batches and the gap is
//	    repaired, keeping verdicts current rather than late), runtime
//	    add/remove, and fleet-wide chain-state checkpoints through the
//	    crash-safe store.
package fleet

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/source"
	"repro/internal/supervise"
)

// StateVersion is the checkpoint payload version for fleet state
// (callers pass it to core.NewCheckpointStore).
const StateVersion = 1

// ErrDraining reports an Add against a draining engine: once Drain has
// been called the engine only finishes existing streams, it admits no
// new ones. Callers (the ingest front door, a coordinator handing
// streams off) match it with errors.Is and route the stream elsewhere.
var ErrDraining = errors.New("fleet: engine draining")

// Config parameterises a fleet engine.
type Config struct {
	// Chain is the trained template chain every shard replicates. It is
	// only serialised, never scored through, so the caller may keep
	// using it.
	Chain *core.FallbackChain
	// NewChain, when set, overrides the replica factory (Chain is then
	// ignored). Tests use it to supply chains whose models cannot
	// round-trip through gob.
	NewChain func() (*core.FallbackChain, error)
	// Shards is the worker pool size (<=0 means GOMAXPROCS).
	Shards int
	// WheelSlots is the number of timer-wheel slots streams are spread
	// over (<=0 means 32). More slots smooth the per-tick burst; the
	// rotation period (one sampling interval) is unchanged.
	WheelSlots int
	// Interval is each stream's sampling interval — the wheel's full
	// rotation period, the paper's 10 ms. 0 runs unpaced (benchmarks:
	// rotations proceed as fast as the shards drain them).
	Interval time.Duration
	// Policy is the shard-ring backpressure policy: Block (lossless,
	// deterministic verdict streams) or DropOldest (shed whole batches
	// when a shard lags; the holes are repaired with hold-last
	// verdicts).
	Policy supervise.OverflowPolicy
	// PendingBatches bounds each shard's ring, in published batches
	// (<=0 means 4).
	PendingBatches int
	// MaxHarvestTicks caps how many wheel ticks the adaptive batch
	// controller may coalesce into one shard batch (<=0 means
	// min(8, WheelSlots); 1 pins the legacy batch-per-tick behaviour).
	// Coalescing never crosses a rotation boundary, so a batch carries
	// each stream at most once regardless of the cap.
	MaxHarvestTicks int
	// Breaker is the default per-stream circuit breaker configuration.
	Breaker supervise.BreakerConfig
	// Checkpoint, when set, receives periodic fleet-wide chain-state
	// checkpoints (payload version StateVersion).
	Checkpoint *core.CheckpointStore
	// CheckpointEvery is the number of wheel rotations between fleet
	// checkpoints (<=0 means 64).
	CheckpointEvery int
	// Tier selects the inference tier every shard batcher scores
	// through: compiled (default, bit-identical), quantized (fixed-point
	// fast tier, statistical equivalence, per-model fallback to
	// compiled), or interpreted (the baseline the equivalence tests
	// compare against).
	Tier core.Tier
}

func (c Config) shards() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) wheelSlots() int {
	if c.WheelSlots > 0 {
		return c.WheelSlots
	}
	return 32
}

func (c Config) pendingBatches() int {
	if c.PendingBatches > 0 {
		return c.PendingBatches
	}
	return 4
}

func (c Config) maxHarvestTicks() int {
	slots := c.wheelSlots()
	m := c.MaxHarvestTicks
	if m <= 0 {
		m = 8
	}
	if m > slots {
		m = slots
	}
	return m
}

func (c Config) checkpointEvery() int {
	if c.CheckpointEvery > 0 {
		return c.CheckpointEvery
	}
	return 64
}

// StreamConfig describes one monitored stream.
type StreamConfig struct {
	// ID names the stream. IDs are unique for the engine's lifetime:
	// a finished or removed stream's ID may not be reused, because
	// per-stream stats and checkpoint state maps are keyed by ID.
	ID string
	// Source produces the stream's counter readings. Sources that
	// implement source.BufferedSource sample allocation-free. Reads
	// happen on the owning shard's goroutine; a source must not block
	// unboundedly (honour ctx) — a slow source shows up as shard lag,
	// and under DropOldest is shed around. Sources that implement
	// source.Queued (push-fed network streams) are only harvested when
	// they have a sample pending, so a client-paced stream never
	// fabricates readings, and the stream finishes once the source is
	// closed and drained.
	Source source.Source
	// Intervals, when positive, bounds the stream: it finishes after
	// emitting that many verdicts. 0 streams until removed (or, for
	// Queued sources, until the source closes and drains).
	Intervals int
	// OnVerdict, when set, observes every verdict (called from the
	// owning shard's goroutine).
	OnVerdict func(core.Verdict)
	// OnFinish, when set, fires exactly once when the stream finishes
	// (horizon reached, or a Queued source closed and drained). It may
	// run on a shard goroutine or under the engine's internal lock, so
	// it must be quick and must not call back into the Engine.
	OnFinish func()
	// Breaker overrides the engine's default breaker configuration when
	// non-zero.
	Breaker supervise.BreakerConfig
}

// handle is a dense index into the engine's stream slabs — the wheel's
// whole vocabulary for a stream. String IDs appear only at admission,
// removal and checkpoint boundaries.
type handle int32

// Stream records live in chunked slabs: fixed arrays that never move,
// so a *stream stays valid forever while streams admitted together sit
// next to each other in memory (and, chains coming from the owning
// shard's arena, so does their run-time chain state).
const (
	streamBlockShift = 8
	streamBlockSize  = 1 << streamBlockShift
	streamBlockMask  = streamBlockSize - 1
)

type streamBlock [streamBlockSize]stream

// streamAt resolves a handle against a block-table snapshot.
func streamAt(blocks []*streamBlock, h handle) *stream {
	return &blocks[h>>streamBlockShift][h&streamBlockMask]
}

// stream is the engine's per-stream record. The owning shard is the
// only goroutine that touches the chain and breaker; the wheel owns
// draining/pruned under the engine mutex; everything shared is atomic.
type stream struct {
	id        string
	slot      int
	shardIdx  int
	src       source.Source
	bsrc      source.BufferedSource // nil when src is unbuffered
	qsrc      source.Queued         // nil when src is pull-paced
	chain     *core.FallbackChain
	br        *supervise.Breaker
	horizon   int
	onVerdict func(core.Verdict)
	onFinish  func()

	// Wheel-owned, under Engine.mu.
	draining bool
	pruned   bool

	rot         atomic.Int64 // intervals harvested (wheel-owned writes)
	done        atomic.Int64 // verdicts emitted (shard-owned writes)
	lost        atomic.Int64
	srcFails    atomic.Int64
	badFrames   atomic.Int64
	inflight    atomic.Int64 // queued-source samples claimed by staged entries
	activeStage atomic.Int32
	removed     atomic.Bool
	finished    atomic.Bool
}

// unclaimed reports whether a push-fed stream holds a sample beyond
// those claimed by staged or in-flight entries. The claim count is read
// first: the shard pops a sample before it releases the sample's claim,
// so reading in this order can only under-count what is unclaimed,
// never count one sample twice.
func (s *stream) unclaimed() bool {
	claimed := s.inflight.Load()
	return int64(s.qsrc.Pending()) > claimed
}

// finish marks the stream finished, firing OnFinish exactly once no
// matter which side (shard horizon accounting or wheel drain pass) gets
// there first.
func (s *stream) finish() {
	if s.finished.CompareAndSwap(false, true) && s.onFinish != nil {
		s.onFinish()
	}
}

// Engine is a sharded multi-stream serving engine. Build with New, add
// streams with Add (before or during Run), and drive it with Run.
// Stats may be read concurrently; Run must not be called concurrently
// with itself.
type Engine struct {
	cfg        Config
	shards     []*shard
	stageNames []string
	maxTicks   int // resolved MaxHarvestTicks

	running      atomic.Bool
	draining     atomic.Bool
	tick         atomic.Int64
	verdictCount atomic.Int64
	lostCount    atomic.Int64
	ckptOK       atomic.Int64
	ckptErr      atomic.Int64
	ckptWG       sync.WaitGroup

	mu          sync.Mutex
	blocks      []*streamBlock      // stream slabs; blocks never move
	nstreams    int                 // handles handed out (streams ever added)
	slots       [][]handle          // wheel slots
	byID        map[string]handle   // live (unpruned) streams by id
	ids         map[string]struct{} // every ID ever accepted (no reuse)
	nextIdx     int
	live        int
	everAdded   bool
	lastCkptRot int64
	restored    map[string]core.ChainState
	// pendingCaptures are CaptureStates requests waiting for the wheel
	// to route their markers through the shard rings (the wheel is the
	// rings' only producer). wheelDone flips once the wheel loop exits
	// and has swept the leftovers.
	pendingCaptures []*ckptReq
	wheelDone       bool
	// behind lists the push-fed streams harvested this rotation with a
	// sample still unclaimed; harvestBehind serves them at the boundary.
	behind []handle

	// Per-shard staging, wheel-owned (filled under mu, flushed outside
	// it): the tick harvest appends due streams in place, and the
	// adaptive controller decides when each shard's batch is handed to
	// its ring.
	staging     []*batch
	drainStage  []*batch
	stagedTicks []int
	coalesce    []int
	flushDue    []bool

	// The wheel's clock. Run's deadline schedule reads now and parks on
	// sleepUntil, which returns at the deadline, on ctx cancellation, or
	// early when wheelWake is poked; tests substitute a fake pair. timer
	// backs the real sleepUntil and is wheel-owned.
	now        func() time.Time
	sleepUntil func(ctx context.Context, t time.Time)
	timer      *time.Timer
	wheelWake  chan struct{}
	// idleSleep is set while the wheel sleeps past idle ticks, so Add
	// and CaptureStates know to poke it awake.
	idleSleep atomic.Bool

	// Paced-wheel lateness: how far past its deadline each tick ran
	// (the max in µs, wheel-owned writes), and how many ticks ran back
	// to back because the wheel woke after their deadline.
	wheelLate    latHist
	wheelLateMax atomic.Int64
	catchUpTicks atomic.Int64
}

// New validates cfg, replicates the chain once per shard, and builds
// the engine.
func New(cfg Config) (*Engine, error) {
	newChain := cfg.NewChain
	if newChain == nil {
		if cfg.Chain == nil {
			return nil, errors.New("fleet: config needs a trained chain (or a NewChain factory)")
		}
		// Under the quantized tier, lower the template's stages before
		// replicating so every shard's detectors share one set of
		// fixed-point artifacts (the replicator propagates whatever the
		// template cached).
		if cfg.Tier == core.TierQuantized {
			for _, d := range cfg.Chain.Detectors() {
				d.Quantized()
			}
		}
		var err error
		newChain, err = core.NewChainReplicator(cfg.Chain)
		if err != nil {
			return nil, err
		}
	}
	nshards := cfg.shards()
	e := &Engine{
		cfg:         cfg,
		shards:      make([]*shard, nshards),
		maxTicks:    cfg.maxHarvestTicks(),
		slots:       make([][]handle, cfg.wheelSlots()),
		byID:        make(map[string]handle),
		ids:         make(map[string]struct{}),
		staging:     make([]*batch, nshards),
		drainStage:  make([]*batch, nshards),
		stagedTicks: make([]int, nshards),
		coalesce:    make([]int, nshards),
		flushDue:    make([]bool, nshards),
		now:         time.Now,
		wheelWake:   make(chan struct{}, 1),
	}
	e.sleepUntil = e.sleep
	for i := range e.shards {
		tmpl, err := newChain()
		if err != nil {
			return nil, fmt.Errorf("fleet: replicating chain for shard %d: %w", i, err)
		}
		if i == 0 {
			e.stageNames = make([]string, tmpl.Stages()+1)
			for s := range e.stageNames {
				e.stageNames[s] = tmpl.StageName(s)
			}
		}
		e.shards[i] = newShard(e, i, tmpl, cfg)
		e.staging[i] = &batch{}
		e.drainStage[i] = &batch{drain: true}
		e.coalesce[i] = 1
	}
	return e, nil
}

// Shards returns the worker pool size.
func (e *Engine) Shards() int { return len(e.shards) }

// Rotations returns how many full wheel rotations have completed.
func (e *Engine) Rotations() int64 {
	return e.tick.Load() / int64(len(e.slots))
}

// Add registers a stream, before or during Run. The stream's chain
// state starts cold unless a RestoreState checkpoint carried its ID.
// A draining engine refuses new streams with ErrDraining.
func (e *Engine) Add(sc StreamConfig) error {
	if sc.ID == "" {
		return errors.New("fleet: stream needs an ID")
	}
	if sc.Source == nil {
		return errors.New("fleet: stream needs a source")
	}
	if sc.Intervals < 0 {
		return errors.New("fleet: negative interval horizon")
	}
	brCfg := sc.Breaker
	if brCfg == (supervise.BreakerConfig{}) {
		brCfg = e.cfg.Breaker
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining.Load() {
		return fmt.Errorf("fleet: adding stream %q: %w", sc.ID, ErrDraining)
	}
	if _, dup := e.ids[sc.ID]; dup {
		return fmt.Errorf("fleet: duplicate stream %q", sc.ID)
	}
	sh := e.shards[e.nextIdx%len(e.shards)]
	// Sibling chain out of the shard's arena: the shard's models, this
	// stream's run-time state in the shard's slabs. NewSibling never
	// evaluates the models, so assembling the chain here is safe while
	// the shard is concurrently scoring through them.
	chain := sh.arena.NewSibling()
	if st, ok := e.restored[sc.ID]; ok {
		if err := chain.SetState(st); err != nil {
			return fmt.Errorf("fleet: restoring stream %q: %w", sc.ID, err)
		}
		delete(e.restored, sc.ID)
	}
	h := handle(e.nstreams)
	if int(h)>>streamBlockShift == len(e.blocks) {
		e.blocks = append(e.blocks, new(streamBlock))
	}
	s := streamAt(e.blocks, h)
	s.id = sc.ID
	s.slot = e.nextIdx % len(e.slots)
	s.shardIdx = sh.idx
	s.src = sc.Source
	s.bsrc, _ = sc.Source.(source.BufferedSource)
	s.qsrc, _ = sc.Source.(source.Queued)
	s.chain = chain
	s.br = supervise.NewBreaker(brCfg)
	s.horizon = sc.Intervals
	s.onVerdict = sc.OnVerdict
	s.onFinish = sc.OnFinish
	e.nstreams++
	e.nextIdx++
	e.slots[s.slot] = append(e.slots[s.slot], h)
	e.ids[sc.ID] = struct{}{}
	e.byID[sc.ID] = h
	e.live++
	sh.liveStreams.Add(1)
	e.everAdded = true
	if e.idleSleep.Load() {
		wake(e.wheelWake) // the wheel may be sleeping past this slot
	}
	return nil
}

// Remove unregisters a live stream. In-flight work for it is skipped;
// the wheel prunes it on its next pass.
func (e *Engine) Remove(id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	h, ok := e.byID[id]
	if !ok {
		return fmt.Errorf("fleet: no live stream %q", id)
	}
	streamAt(e.blocks, h).removed.Store(true)
	return nil
}

// Drain moves the engine into drain mode and returns immediately: no
// new streams are admitted (Add returns ErrDraining), every queued
// (push-fed) stream finishes once its buffered samples are scored, and
// unbounded pull streams finish at their next rotation boundary.
// Bounded streams still run to their horizon only if their source keeps
// producing; a quiet queued stream finishes rather than waiting for a
// client that has been told to go away. Once every stream has finished,
// Run writes the final fleet checkpoint and returns nil — the graceful
// counterpart to cancelling Run's context, which abandons in-flight
// work and skips the final save. Draining is one-way for the engine's
// lifetime; calling Drain twice is harmless.
func (e *Engine) Drain() {
	e.draining.Store(true)
}

// Draining reports whether Drain has been called.
func (e *Engine) Draining() bool { return e.draining.Load() }

// RestoredInterval reports the checkpointed chain interval waiting for
// stream id — how many verdicts its timeline had emitted when the
// checkpoint was taken — or ok=false when no restored state is pending
// for that ID. The ingest plane uses it to tell a reconnecting client
// where to resume its sample sequence before Add claims the state.
func (e *Engine) RestoredInterval(id string) (interval int, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.restored[id]
	if !ok {
		return 0, false
	}
	return st.Interval, true
}

// slotDuration is the wheel's tick period (0 = unpaced).
func (e *Engine) slotDuration() time.Duration {
	if e.cfg.Interval <= 0 {
		return 0
	}
	return e.cfg.Interval / time.Duration(len(e.slots))
}

// Run drives the fleet until every bounded stream finishes (and at
// least one stream was ever added) or ctx is cancelled. The error is
// nil on a drained fleet and ctx.Err() on cancellation; per-stream
// failures never fail the fleet — they are breaker trips and lost
// verdicts.
func (e *Engine) Run(ctx context.Context) error {
	if !e.running.CompareAndSwap(false, true) {
		return errors.New("fleet: Run already active")
	}
	defer e.running.Store(false)
	e.mu.Lock()
	e.wheelDone = false
	e.mu.Unlock()

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for _, sh := range e.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.run(rctx)
		}(sh)
	}
	// Cancellation must release the wheel and shards from ring waits.
	stopWake := context.AfterFunc(rctx, e.wakeAll)
	defer stopWake()

	// Paced runs follow an absolute schedule: tick k of this Run is due
	// at start + k·d. Each wake runs every overdue tick in order before
	// sleeping again, so a late timer, a GC pause, a checkpoint burst or
	// a full shard ring delays ticks but never drops one — the wheel
	// catches up instead of losing rotations. Ticks below resume are idle
	// ticks the wheel chose to sleep past; they run on wake (keeping tick,
	// rotation and checkpoint counts exact) but are not late.
	d := e.slotDuration()
	start := e.now()
	var k, resume int64
	slept := true
	for rctx.Err() == nil {
		if d > 0 {
			due := start.Add(time.Duration(k) * d)
			now := e.now()
			if now.Before(due) {
				resume = k + e.sleepToward(rctx, due, d)
				slept = true
				continue
			}
			if k >= resume {
				e.noteLate(now.Sub(due), !slept && k > resume)
			}
			slept = false
		}
		harvested := e.tickOnce(rctx)
		k++
		if e.drained() {
			break
		}
		if d == 0 && !harvested {
			// Unpaced and nothing due (tail of a drain, or an idle
			// fleet): yield instead of spinning the lock.
			runtime.Gosched()
		}
	}
	// The wheel is the rings' only producer; once it stops, any capture
	// request it never picked up must be aborted or its waiter hangs.
	e.mu.Lock()
	e.wheelDone = true
	pend := e.pendingCaptures
	e.pendingCaptures = nil
	e.mu.Unlock()
	for _, req := range pend {
		req.aborted.Store(true)
		for range e.shards {
			req.wg.Done()
		}
	}
	cancelWork := rctx.Err() != nil
	for _, sh := range e.shards {
		sh.q.close()
	}
	if cancelWork {
		cancel()
	}
	wg.Wait()
	e.ckptWG.Wait()
	if e.cfg.Checkpoint != nil && !cancelWork {
		// Shards are parked: safe to read every chain from here.
		if err := e.saveAll(); err != nil {
			e.ckptErr.Add(1)
		} else {
			e.ckptOK.Add(1)
		}
	}
	return ctx.Err()
}

func (e *Engine) wakeAll() {
	for _, sh := range e.shards {
		sh.q.wakeAll()
	}
}

// sleepToward parks the wheel until the next tick, due at due, or past
// it to the first of the following ticks that has work, at most one
// rotation on. It returns how many idle ticks it slept past; a poke or
// cancellation can end the sleep early, and Run re-plans on return.
func (e *Engine) sleepToward(ctx context.Context, due time.Time, d time.Duration) int64 {
	e.mu.Lock()
	skip := e.idleTicksLocked()
	e.idleSleep.Store(skip > 0)
	e.mu.Unlock()
	e.sleepUntil(ctx, due.Add(time.Duration(skip)*d))
	e.idleSleep.Store(false)
	return skip
}

// idleTicksLocked counts the ticks from the next one on that have
// nothing to do — an empty slot, no staged batch waiting on a flush, no
// parked capture, no boundary harvest owed to streams left behind —
// capped so the wheel wakes at least once a rotation (mu held).
func (e *Engine) idleTicksLocked() int64 {
	if len(e.pendingCaptures) > 0 {
		return 0
	}
	for _, st := range e.staging {
		if len(st.entries) > 0 {
			return 0
		}
	}
	n := int64(len(e.slots))
	t := e.tick.Load()
	for i := int64(0); i < n-1; i++ {
		slot := (t + i) % n
		if len(e.slots[slot]) > 0 || slot == n-1 && len(e.behind) > 0 {
			return i
		}
	}
	return n - 1
}

// sleep is the real-clock sleepUntil.
func (e *Engine) sleep(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if e.timer == nil {
		e.timer = time.NewTimer(d)
	} else {
		e.timer.Reset(d)
	}
	select {
	case <-e.timer.C:
		return
	case <-e.wheelWake:
	case <-ctx.Done():
	}
	if !e.timer.Stop() {
		select {
		case <-e.timer.C:
		default:
		}
	}
}

// noteLate books one paced tick running late past its deadline.
func (e *Engine) noteLate(late time.Duration, catchUp bool) {
	e.wheelLate.record(late, 1)
	if us := late.Microseconds(); us > e.wheelLateMax.Load() {
		e.wheelLateMax.Store(us)
	}
	if catchUp {
		e.catchUpTicks.Add(1)
	}
}

// drained reports whether every stream ever added has finished. A
// draining engine with no live streams is drained even when nothing was
// ever added — an idle ingest front door must still be stoppable.
func (e *Engine) drained() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return (e.everAdded || e.draining.Load()) && e.live == 0
}

// tickOnce advances the wheel one slot: it harvests the slot's due
// streams into the per-shard staging batches, prunes finished and
// removed streams, stages tail-repair drains for shed horizons, flushes
// whatever the adaptive controller says is due, and routes checkpoint
// and capture markers through the rings. It reports whether it staged
// or published anything.
func (e *Engine) tickOnce(ctx context.Context) bool {
	now := time.Now()

	e.mu.Lock()
	t := e.tick.Load()
	nslots := int64(len(e.slots))
	slot := int(t % nslots)
	rot := t / nslots
	e.tick.Store(t + 1)

	staged := false
	draining := e.draining.Load()
	hs := e.slots[slot]
	keep := hs[:0]
	for _, h := range hs {
		s := streamAt(e.blocks, h)
		if s.removed.Load() || s.finished.Load() {
			e.pruneLocked(s)
			continue
		}
		srot := s.rot.Load()
		if s.horizon > 0 && srot >= int64(s.horizon) {
			// Fully harvested; waiting on the shard for the tail.
			if s.done.Load() >= int64(s.horizon) {
				s.finish()
				e.pruneLocked(s)
				continue
			}
			if e.cfg.Policy == supervise.DropOldest && !s.draining {
				// The final harvests may have been shed; one
				// unsheddable drain guarantees the tail completes.
				s.draining = true
				db := e.drainStage[s.shardIdx]
				if len(db.entries) == 0 {
					db.rot, db.at = rot, now
				}
				db.entries = append(db.entries, entry{s: s, interval: s.horizon - 1})
				staged = true
			}
			keep = append(keep, h)
			continue
		}
		if s.qsrc != nil {
			// Push-fed stream: only due when a sample is buffered
			// beyond those already claimed by staged or in-flight
			// entries. With nothing pending the stream finishes if its
			// writer hung up (or the engine is draining) and the shard
			// has caught up; otherwise it simply isn't harvested this
			// rotation.
			if !s.unclaimed() {
				if (s.qsrc.Closed() || draining) && s.done.Load() >= srot {
					s.finish()
					e.pruneLocked(s)
					continue
				}
				keep = append(keep, h)
				continue
			}
			s.inflight.Add(1)
			if s.unclaimed() {
				e.behind = append(e.behind, h)
			}
		} else if draining && s.horizon == 0 {
			// Unbounded pull stream under drain: stop at the next
			// rotation boundary, once in-flight harvests have landed.
			if s.done.Load() >= srot {
				s.finish()
				e.pruneLocked(s)
				continue
			}
			keep = append(keep, h)
			continue
		}
		e.stageLocked(s, srot, rot, now)
		staged = true
		keep = append(keep, h)
	}
	e.slots[slot] = keep

	// Checkpoint cadence and any capture requests parked on the wheel.
	captures := e.pendingCaptures
	e.pendingCaptures = nil
	var ckReq *ckptReq
	if e.cfg.Checkpoint != nil && slot == 0 && rot > 0 &&
		rot%int64(e.cfg.checkpointEvery()) == 0 && rot != e.lastCkptRot {
		e.lastCkptRot = rot
		ckReq = e.buildCkptLocked()
	}

	// Flush decisions: the rotation boundary always flushes (a batch
	// must never carry the same stream twice), markers flush everything
	// first so they stay ordered behind the work staged before them,
	// a drain marker flushes its shard, and otherwise a shard's batch
	// rides until the adaptive controller's tick budget is spent.
	flushAll := slot == int(nslots)-1 || ckReq != nil || len(captures) > 0
	for i := range e.shards {
		due := false
		if len(e.staging[i].entries) > 0 {
			e.stagedTicks[i]++
			due = flushAll || e.stagedTicks[i] >= e.coalesce[i] ||
				len(e.drainStage[i].entries) > 0
		}
		e.flushDue[i] = due
	}
	e.mu.Unlock()

	any := staged
	for i, sh := range e.shards {
		if e.flushDue[i] {
			e.flushStaging(ctx, sh)
			any = true
		}
		if len(e.drainStage[i].entries) > 0 {
			e.publishDrain(ctx, sh)
			any = true
		}
	}
	if slot == int(nslots)-1 && len(e.behind) > 0 {
		e.harvestBehind(ctx, rot)
		any = true
	}
	if ckReq != nil {
		e.publishMarkers(ctx, ckReq)
		e.collectCkpt(ckReq)
		any = true
	}
	for _, req := range captures {
		e.publishMarkers(ctx, req)
		any = true
	}
	return any
}

// stageLocked claims stream s's interval srot for the shard's staging
// batch (mu held).
func (e *Engine) stageLocked(s *stream, srot, rot int64, now time.Time) {
	s.rot.Store(srot + 1)
	st := e.staging[s.shardIdx]
	if len(st.entries) == 0 {
		st.rot, st.at = rot, now
		// Every entry slice circulating through staging and the ring is
		// sized here, once, for the largest batch the shard can form, so
		// a catch-up burst never grows one mid-load.
		if c := e.shards[s.shardIdx].batchCap(); cap(st.entries) < c {
			st.entries = make([]entry, 0, c)
		}
	}
	st.entries = append(st.entries, entry{s: s, interval: int(srot)})
}

// harvestBehind runs at the rotation boundary, after the flush, and
// harvests once more every push-fed stream its own tick left with a
// sample still unclaimed, in batches of their own (so no batch carries a
// stream twice). A push-fed stream otherwise gets one harvest per
// rotation — exactly its arrival rate — so a single sample released just
// after its slot's tick would leave it a rotation late for good.
func (e *Engine) harvestBehind(ctx context.Context, rot int64) {
	now := time.Now()
	e.mu.Lock()
	for _, h := range e.behind {
		s := streamAt(e.blocks, h)
		st := e.staging[s.shardIdx]
		srot := s.rot.Load()
		if s.pruned || s.removed.Load() || s.finished.Load() ||
			(s.horizon > 0 && srot >= int64(s.horizon)) ||
			!s.unclaimed() ||
			len(st.entries) > 0 && len(st.entries) == cap(st.entries) {
			continue
		}
		s.inflight.Add(1)
		e.stageLocked(s, srot, rot, now)
	}
	e.behind = e.behind[:0]
	e.mu.Unlock()
	for i, sh := range e.shards {
		if len(e.staging[i].entries) > 0 {
			e.flushStaging(ctx, sh)
		}
	}
}

// flushStaging hands a shard's staged batch to its ring: the ring
// slot's resident batch and the staging batch swap entry storage, so
// the hand-off copies two slice headers and allocates nothing. Runs off
// the engine lock — staging is wheel-owned, and a full ring must not
// block Add or Stats.
func (e *Engine) flushStaging(ctx context.Context, sh *shard) {
	// Adaptive batch sizing: a backlogged ring means per-batch overhead
	// is what to amortise — double the tick budget; an empty ring means
	// the shard keeps up — walk back toward a batch per tick.
	i := sh.idx
	if sh.q.depth() > 0 {
		if c := e.coalesce[i] * 2; c <= e.maxTicks {
			e.coalesce[i] = c
		} else {
			e.coalesce[i] = e.maxTicks
		}
	} else if e.coalesce[i] > 1 {
		e.coalesce[i]--
	}

	st := e.staging[i]
	rb, shed, err := sh.q.stage(ctx)
	if shed != nil {
		e.accountShed(sh, shed)
	}
	if err != nil {
		// Cancelled or closing: the entries stay staged; Run is on its
		// way out and the wheel will not tick again.
		return
	}
	rb.rot, rb.at = st.rot, st.at
	rb.drain, rb.ckpt, rb.ckStrms = false, nil, nil
	rb.entries, st.entries = st.entries, rb.entries[:0]
	sh.q.publish()
	e.stagedTicks[i] = 0
}

// publishDrain hands a shard's staged tail-repair batch to its ring,
// after the shard's normal staging so interval order holds.
func (e *Engine) publishDrain(ctx context.Context, sh *shard) {
	db := e.drainStage[sh.idx]
	rb, shed, err := sh.q.stage(ctx)
	if shed != nil {
		e.accountShed(sh, shed)
	}
	if err != nil {
		return
	}
	rb.rot, rb.at = db.rot, db.at
	rb.drain, rb.ckpt, rb.ckStrms = true, nil, nil
	rb.entries, db.entries = db.entries, rb.entries[:0]
	sh.q.publish()
}

// publishMarkers routes one checkpoint/capture marker through every
// shard's ring. The request's WaitGroup was charged len(shards) at
// creation; a failed publish burns its count and flags the abort.
func (e *Engine) publishMarkers(ctx context.Context, req *ckptReq) {
	rot := e.tick.Load() / int64(len(e.slots))
	now := time.Now()
	for i, sh := range e.shards {
		rb, shed, err := sh.q.stage(ctx)
		if shed != nil {
			e.accountShed(sh, shed)
		}
		if err != nil {
			req.aborted.Store(true)
			req.wg.Done()
			continue
		}
		rb.rot, rb.at = rot, now
		rb.drain = false
		rb.ckpt = req
		rb.ckStrms = req.perShard[i]
		rb.entries = rb.entries[:0]
		sh.q.publish()
	}
}

// accountShed books a batch the ring shed to admit newer work, and
// releases any queued-source sample claims its entries held.
func (e *Engine) accountShed(sh *shard, shed *batch) {
	sh.shedBatches.Add(1)
	sh.shedIntervals.Add(int64(len(shed.entries)))
	for i := range shed.entries {
		if s := shed.entries[i].s; s.qsrc != nil {
			s.inflight.Add(-1)
		}
	}
}

// pruneLocked retires a stream from the wheel (mu held).
func (e *Engine) pruneLocked(s *stream) {
	if s.pruned {
		return
	}
	s.pruned = true
	e.live--
	delete(e.byID, s.id)
	e.shards[s.shardIdx].liveStreams.Add(-1)
}

// buildCkptLocked assembles a checkpoint request covering every live
// stream, grouped by owning shard (mu held). The WaitGroup is charged
// one count per shard up front.
func (e *Engine) buildCkptLocked() *ckptReq {
	req := &ckptReq{
		states:   make(map[string]core.ChainState, len(e.byID)),
		perShard: make([][]*stream, len(e.shards)),
	}
	for _, h := range e.byID {
		s := streamAt(e.blocks, h)
		req.perShard[s.shardIdx] = append(req.perShard[s.shardIdx], s)
	}
	req.wg.Add(len(e.shards))
	return req
}

// collectCkpt spawns the collector that persists a checkpoint request's
// assembled state map once every shard has contributed.
func (e *Engine) collectCkpt(req *ckptReq) {
	e.ckptWG.Add(1)
	go func() {
		defer e.ckptWG.Done()
		req.wg.Wait()
		if req.aborted.Load() {
			return // shutdown mid-gather; the final save covers it
		}
		if err := e.saveStates(req.states); err != nil {
			e.ckptErr.Add(1)
		} else {
			e.ckptOK.Add(1)
		}
	}()
}

// fleetState is the gob checkpoint payload: every stream's chain state.
type fleetState struct {
	Streams map[string]core.ChainState
}

func (e *Engine) saveStates(states map[string]core.ChainState) error {
	return e.cfg.Checkpoint.Save(func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(fleetState{Streams: states})
	})
}

// saveAll snapshots every stream's chain directly — only safe when the
// shards are parked (Run's final save, or between Runs).
func (e *Engine) saveAll() error {
	e.mu.Lock()
	blocks, n := e.blocks, e.nstreams
	e.mu.Unlock()
	states := make(map[string]core.ChainState, n)
	for h := handle(0); int(h) < n; h++ {
		s := streamAt(blocks, h)
		if s.removed.Load() {
			continue
		}
		states[s.id] = s.chain.State()
	}
	return e.saveStates(states)
}

// SaveState checkpoints every stream's chain state to the configured
// store. Must not be called during Run (Run checkpoints on its own
// cadence and once more at drain).
func (e *Engine) SaveState() error {
	if e.cfg.Checkpoint == nil {
		return errors.New("fleet: no checkpoint store configured")
	}
	if e.running.Load() {
		return errors.New("fleet: SaveState during Run")
	}
	return e.saveAll()
}

// RestoreState recovers the most recent good fleet checkpoint and holds
// the per-stream chain states for subsequent Adds to claim by ID. Call
// before adding streams in a restarted process. A store with no usable
// checkpoint returns an error wrapping core.ErrNoCheckpoint — the
// caller starts cold, which is not a failure.
func (e *Engine) RestoreState() (gen int, quarantined []string, err error) {
	if e.cfg.Checkpoint == nil {
		return -1, nil, core.ErrNoCheckpoint
	}
	return e.cfg.Checkpoint.Recover(func(payload []byte) error {
		var st fleetState
		if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); derr != nil {
			return derr
		}
		e.mu.Lock()
		e.restored = st.Streams
		e.mu.Unlock()
		return nil
	})
}
