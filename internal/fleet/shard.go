package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/source"
)

// entry is one stream's due interval inside a harvest batch. Streams
// are recorded by pointer into the engine's slab blocks — resolved once
// by the wheel under its lock; the shard never touches a map or the
// block table. In a drain batch every entry is a tail repair: the shard
// emits hold-last verdicts up through interval instead of reading the
// source.
type entry struct {
	s        *stream
	interval int
}

// batch is a coalesced span of wheel ticks' due streams for one shard
// (each stream appears at most once — the wheel force-flushes at every
// rotation boundary, which the BeginObserve/CommitScore scratch
// aliasing depends on), plus the two marker flavours that ride the same
// ring so they stay ordered against normal work: drain batches (tail
// repair for streams whose final harvests were shed, see entry) and
// checkpoint markers (ckpt != nil).
type batch struct {
	rot     int64
	at      time.Time
	drain   bool
	ckpt    *ckptReq
	ckStrms []*stream // the shard's streams to checkpoint (ckpt != nil)
	entries []entry
}

// ckptReq coordinates one fleet-wide checkpoint or state capture: every
// shard contributes its own streams' chain states (each chain is only
// touched by its owning shard, so the marker must flow through the
// shard's ring), and a collector persists or returns the assembled map
// once all shards have reported. The WaitGroup is charged one count per
// shard up front, at request creation — a request parked on the wheel's
// pending list is aborted with the matching Dones if Run exits first.
type ckptReq struct {
	wg      sync.WaitGroup
	aborted atomic.Bool // a shard or the wheel shut down before contributing
	mu      sync.Mutex
	states  map[string]core.ChainState
	// perShard[i] is shard i's slice of streams to snapshot.
	perShard [][]*stream
}

// markKind classifies what the gather pass decided about one entry.
const (
	markSkip  = iota // removed, stale, or already emitted as lost
	markScore        // feature vector gathered; awaiting its stage's batch pass
)

// entryMark is the per-entry scratch carrying gather results to the
// batched scoring and demux passes.
type entryMark struct {
	kind  uint8
	stage int
	x     []float64 // aliases the stream chain's scratch until demux
	score float64
}

// shard is one worker: it owns a full replica of the trained chain
// (models reuse internal scratch, so replicas are what make shards
// independent), one Batcher per stage, and the run-time chains of every
// stream assigned to it. All chain mutation and scoring for those
// streams happens on the shard's single goroutine; the wheel only
// touches streams' atomics.
type shard struct {
	e   *Engine
	idx int

	// tmpl is the shard's chain replica; stream chains are assembled as
	// its siblings (shared models, per-stream run-time state carved
	// from the shard's arena slabs) without touching the models, so Add
	// stays safe mid-Run.
	tmpl     *core.FallbackChain
	arena    *core.SiblingArena
	batchers []*core.Batcher
	width    int

	q *spscRing

	// readBuf is the shard's single sample buffer: reads happen one
	// entry at a time on this goroutine, so one buffer replaces the
	// mutex-pooled free list the pipeline needs.
	readBuf []uint64

	// Scratch reused across batches: marks mirrors the entry slice,
	// byStage[s] collects mark indices for stage s's one ScoreBatch
	// pass, rows/scores are that pass's matrix and output. All share one
	// capacity, set by grow.
	marks   []entryMark
	byStage [][]int
	rows    [][]float64
	scores  []float64

	// Per-batch verdict counts, flushed to the atomics once per batch
	// (shard goroutine only).
	emitN int64
	lostN int64

	liveStreams   atomic.Int64 // live (unpruned) streams assigned here
	batches       atomic.Int64
	intervals     atomic.Int64
	shedBatches   atomic.Int64
	shedIntervals atomic.Int64
	lastRot       atomic.Int64
	lat           latHist
}

func newShard(e *Engine, idx int, tmpl *core.FallbackChain, cfg Config) *shard {
	dets := tmpl.Detectors()
	sh := &shard{
		e:        e,
		idx:      idx,
		tmpl:     tmpl,
		arena:    tmpl.NewSiblingArena(),
		batchers: make([]*core.Batcher, len(dets)),
		width:    len(tmpl.Events()),
		q:        newSPSCRing(cfg.pendingBatches(), cfg.Policy),
		readBuf:  make([]uint64, len(tmpl.Events())),
		byStage:  make([][]int, len(dets)),
	}
	for i, d := range dets {
		sh.batchers[i] = d.NewTierBatcher(cfg.Tier)
	}
	return sh
}

// batchCap is the largest batch the shard is expected to receive: a
// batch spans at most maxTicks wheel ticks and carries each stream at
// most once, so it holds no more than maxTicks slots' worth of the
// shard's live streams; an eighth on top absorbs uneven slot fill.
func (sh *shard) batchCap() int {
	live := int(sh.liveStreams.Load())
	slots := len(sh.e.slots)
	c := sh.e.maxTicks * ((live + slots - 1) / slots)
	return min(live, c+c/8)
}

// grow resizes the per-batch scratch for a batch of n entries, to at
// least batchCap so batches of the expected size never regrow it.
func (sh *shard) grow(n int) {
	c := max(n, sh.batchCap())
	sh.marks = make([]entryMark, c)
	sh.rows = make([][]float64, 0, c)
	sh.scores = make([]float64, c)
	for st := range sh.byStage {
		sh.byStage[st] = make([]int, 0, c)
	}
}

// run is the shard worker loop.
func (sh *shard) run(ctx context.Context) {
	defer sh.drainTail()
	for {
		b, ok := sh.q.get(ctx)
		if !ok {
			return
		}
		sh.process(ctx, b)
		sh.q.consumed()
	}
}

// step processes at most one queued batch synchronously; white-box
// tests use it to drive the engine without goroutines.
func (sh *shard) step(ctx context.Context) bool {
	b, ok := sh.q.tryGet()
	if !ok {
		return false
	}
	sh.process(ctx, b)
	sh.q.consumed()
	return true
}

// drainTail empties the ring after shutdown so a stranded checkpoint
// marker cannot leave its collector waiting forever.
func (sh *shard) drainTail() {
	for {
		b, ok := sh.q.tryGet()
		if !ok {
			return
		}
		if b.ckpt != nil {
			b.ckpt.aborted.Store(true)
			b.ckpt.wg.Done()
		}
		sh.q.consumed()
	}
}

// process handles one batch: checkpoint markers snapshot chain states;
// harvest batches run the gather → batched-score → demux pipeline.
func (sh *shard) process(ctx context.Context, b *batch) {
	if b.ckpt != nil {
		for _, s := range b.ckStrms {
			if s.removed.Load() {
				continue
			}
			st := s.chain.State()
			b.ckpt.mu.Lock()
			b.ckpt.states[s.id] = st
			b.ckpt.mu.Unlock()
		}
		b.ckpt.wg.Done()
		return
	}

	// Gather: per entry, repair any done-gap with hold-last verdicts,
	// read the source, and run BeginObserve to collect the active
	// stage's feature vector. Chain operations for a given stream are
	// strictly interval-ordered: gaps first, then this interval.
	sh.emitN, sh.lostN = 0, 0
	n := len(b.entries)
	if cap(sh.marks) < n {
		sh.grow(n)
	}
	sh.marks = sh.marks[:n]
	for st := range sh.byStage {
		sh.byStage[st] = sh.byStage[st][:0]
	}
	for i := range b.entries {
		ok := sh.gather(ctx, b, i)
		if s := b.entries[i].s; s.qsrc != nil && !b.drain {
			// The wheel claimed one pending sample when it staged this
			// entry. The claim is released only now, after gather's read
			// has popped the sample: released before it, the wheel could
			// count the sample as unclaimed and claim it a second time.
			s.inflight.Add(-1)
		}
		if !ok {
			// Shutting down mid-batch: abandon the remaining entries.
			sh.flushCounts(b)
			return
		}
	}

	// Batched inference: one ScoreBatch pass per stage over every
	// gathered feature vector — the cross-stream matrix pass that lets
	// N streams share one model evaluation context.
	for st := range sh.byStage {
		idxs := sh.byStage[st]
		if len(idxs) == 0 {
			continue
		}
		rows := sh.rows[:0]
		for _, i := range idxs {
			rows = append(rows, sh.marks[i].x)
		}
		sh.rows = rows
		out := sh.scores[:len(idxs)]
		sh.batchers[st].ScoreBatch(rows, out)
		for k, i := range idxs {
			sh.marks[i].score = out[k]
		}
	}

	// Demux: commit each verdict through its stream's chain, in harvest
	// order.
	for i := range b.entries {
		m := &sh.marks[i]
		if m.kind != markScore {
			continue
		}
		s := b.entries[i].s
		score := m.score
		if m.stage >= len(sh.batchers) {
			score = s.chain.Prior()
		}
		sh.emit(s, s.chain.CommitScore(score), false)
	}
	sh.flushCounts(b)
	sh.batches.Add(1)
	sh.lastRot.Store(b.rot)
}

// gather handles entry i of a harvest batch: it repairs any done-gap
// with hold-last verdicts, reads the source, and runs BeginObserve to
// collect the active stage's feature vector, recording the outcome in
// sh.marks[i]. It reports false when ctx was cancelled mid-read.
func (sh *shard) gather(ctx context.Context, b *batch, i int) bool {
	en := &b.entries[i]
	s := en.s
	m := &sh.marks[i]
	m.kind = markSkip
	if s.removed.Load() {
		return true
	}
	done := int(s.done.Load())
	if en.interval < done {
		return true // already repaired past this interval by a drain
	}
	for ; done < en.interval; done++ {
		sh.emitLost(s)
	}
	if b.drain {
		sh.emitLost(s)
		return true
	}
	if !s.br.Allow() {
		sh.emitLost(s)
		return true
	}
	var vals []uint64
	var err error
	if s.bsrc != nil {
		vals, err = s.bsrc.ReadInto(ctx, en.interval, sh.readBuf)
	} else {
		vals, err = s.src.Read(ctx, en.interval)
	}
	switch {
	case err == nil:
		s.br.OnSuccess()
	case errors.Is(err, source.ErrSampleLost):
		sh.emitLost(s)
		return true
	case ctx.Err() != nil:
		return false
	default:
		s.srcFails.Add(1)
		s.br.OnFailure(err)
		sh.emitLost(s)
		return true
	}
	if len(vals) != sh.width {
		s.badFrames.Add(1)
		sh.emitLost(s)
		return true
	}
	stage, x, oerr := s.chain.BeginObserve(vals)
	if oerr != nil {
		s.badFrames.Add(1)
		sh.emitLost(s)
		return true
	}
	m.kind = markScore
	m.stage = stage
	m.x = x
	if stage < len(sh.batchers) {
		sh.byStage[stage] = append(sh.byStage[stage], i)
	}
	return true
}

// flushCounts folds the batch's local verdict counters into the shared
// atomics and records one interval-weighted latency sample — per batch,
// not per verdict, which keeps the clock read and the contended adds
// off the per-stream path.
func (sh *shard) flushCounts(b *batch) {
	if sh.emitN == 0 {
		return
	}
	sh.intervals.Add(sh.emitN)
	sh.e.verdictCount.Add(sh.emitN)
	if sh.lostN > 0 {
		sh.e.lostCount.Add(sh.lostN)
	}
	sh.lat.record(time.Since(b.at), sh.emitN)
	sh.emitN, sh.lostN = 0, 0
}

// emit delivers one verdict: stream accounting, the optional callback,
// and horizon completion. Fleet-wide counters are batched in
// flushCounts.
func (sh *shard) emit(s *stream, v core.Verdict, lost bool) {
	done := s.done.Add(1)
	if lost {
		s.lost.Add(1)
		sh.lostN++
	}
	sh.emitN++
	s.activeStage.Store(int32(s.chain.ActiveStage()))
	if s.onVerdict != nil {
		s.onVerdict(v)
	}
	if s.horizon > 0 && done >= int64(s.horizon) {
		s.finish()
	}
}

// emitLost emits one hold-last verdict for an interval with no usable
// reading.
func (sh *shard) emitLost(s *stream) {
	sh.emit(s, s.chain.ObserveLost(), true)
}
