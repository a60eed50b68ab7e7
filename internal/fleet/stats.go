package fleet

import (
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/supervise"
)

// Shard latency telemetry is a fixed log-bucketed histogram instead of
// a sample ring: recording is one atomic add per batch (no clock reads
// or stores per verdict, no sample eviction bias under load), and the
// histogram yields p50/p99/p999 plus the full interval-lag distribution
// that /stats exports. Buckets are microseconds with 8 sub-buckets per
// octave (≤12.5% relative error): values 0–7 µs map to themselves, and
// a larger value with top bit at position p lands in bucket
// (p-2)*8 + next-three-bits.
const latHistBuckets = 384 // covers every representable duration

type latHist struct {
	total   atomic.Int64
	buckets [latHistBuckets]atomic.Int64
}

// latBucket maps a latency in microseconds to its bucket index.
func latBucket(us int64) int {
	v := uint64(us)
	if v < 8 {
		return int(v)
	}
	p := uint(bits.Len64(v)) - 1 // top-bit position, >= 3
	b := int((p-2)*8 + uint((v>>(p-3))&7))
	if b >= latHistBuckets {
		return latHistBuckets - 1
	}
	return b
}

// latBucketUpper returns bucket b's inclusive upper bound in
// microseconds.
func latBucketUpper(b int) int64 {
	if b < 8 {
		return int64(b)
	}
	oct, sub := uint(b/8), uint64(b%8)
	return int64((9+sub)<<(oct-1)) - 1
}

// record books n intervals completing with latency d. One call per
// batch, weighted by the batch's interval count.
func (h *latHist) record(d time.Duration, n int64) {
	if n <= 0 {
		return
	}
	us := int64(d / time.Microsecond)
	if us < 0 {
		us = 0
	}
	h.buckets[latBucket(us)].Add(n)
	h.total.Add(n)
}

// snapshot copies the bucket counts (not atomically consistent across
// buckets, which percentile estimation tolerates).
func (h *latHist) snapshot(counts *[latHistBuckets]int64) (total int64) {
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
	}
	return total
}

// quantile returns the q-quantile (0..1) of a snapshot, in microseconds
// (the containing bucket's upper bound; 0 with no samples).
func quantile(counts *[latHistBuckets]int64, total int64, q float64) float64 {
	if total <= 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range counts {
		cum += counts[i]
		if cum >= rank {
			return float64(latBucketUpper(i))
		}
	}
	return float64(latBucketUpper(latHistBuckets - 1))
}

// LagBucket is one bucket of a shard's harvest-to-verdict latency
// distribution: Count intervals completed with latency of at most
// UpToMicros (and above the preceding bucket's bound).
type LagBucket struct {
	UpToMicros int64
	Count      int64
}

// WheelLateness summarises the paced wheel's tick lateness in
// microseconds: P50/P99 are histogram upper bounds (≤12.5% relative
// error), Max is exact.
type WheelLateness struct {
	P50Micros float64
	P99Micros float64
	MaxMicros float64
}

// StreamSnapshot is the externally visible state of one monitored
// stream.
type StreamSnapshot struct {
	ID    string
	Shard int
	Slot  int
	// Scheduled is how many intervals the wheel has harvested for the
	// stream; Verdicts how many the shard has emitted (Scheduled -
	// Verdicts is the stream's in-flight/shed backlog).
	Scheduled int
	Verdicts  int64
	// LostVerdicts were emitted by the chain's hold-last path (dropped
	// samples, open breaker, failed reads, shed batches).
	LostVerdicts   int64
	SourceFailures int64
	BadFrames      int64
	// ActiveStage names the fallback-chain stage that scored the most
	// recent verdict ("" before the first one).
	ActiveStage string
	Breaker     supervise.BreakerSnapshot
	Finished    bool
	Removed     bool
}

// ShardSnapshot is the health of one worker shard.
type ShardSnapshot struct {
	// Streams currently assigned (live, not yet pruned).
	Streams int
	// Batches processed and intervals (verdicts) emitted.
	Batches   int64
	Intervals int64
	// ShedBatches/ShedIntervals count work discarded by drop-oldest
	// backpressure on the shard's ring.
	ShedBatches   int64
	ShedIntervals int64
	// QueueDepth is the current batch backlog; LagRotations how many
	// wheel rotations the shard trails the harvester by.
	QueueDepth   int
	LagRotations int64
	// CompiledStages is how many of the shard's per-stage batchers score
	// through a lowered fast path — compiled or quantized (0 under
	// core.TierInterpreted or when no stage model lowers).
	CompiledStages int
	// QuantizedStages is how many of those score through the quantized
	// fixed-point kernels specifically (0 unless Config.Tier is
	// core.TierQuantized; stages without a quantized lowering fall back
	// to compiled and count only in CompiledStages).
	QuantizedStages int
	// P50/P99/P999 harvest-to-verdict latency since the shard started,
	// in microseconds (histogram upper bounds, ≤12.5% relative error).
	P50LatencyMicros  float64
	P99LatencyMicros  float64
	P999LatencyMicros float64
	// LagHistogram is the full harvest-to-verdict latency distribution
	// (non-empty buckets only, ascending).
	LagHistogram []LagBucket `json:",omitempty"`
}

// Snapshot is a point-in-time view of the whole fleet — what
// hmd-serve's /stats endpoint returns in fleet mode.
type Snapshot struct {
	// Tier is the configured inference tier ("compiled", "quantized",
	// "interpreted") — what operators check to confirm which lowering a
	// fleet actually runs.
	Tier string
	// Streams ever added; Live of those still being scheduled.
	Streams int
	Live    int
	// Draining reports that Drain was called: the engine is finishing
	// existing streams and admitting no new ones.
	Draining bool
	// Rotations the wheel has completed (each rotation harvests every
	// live stream once).
	Rotations int64
	Verdicts  int64
	// LostVerdicts across all streams (see StreamSnapshot).
	LostVerdicts int64
	// ShedIntervals across all shards.
	ShedIntervals      int64
	CheckpointsWritten int64
	CheckpointErrors   int64
	// WheelLate is how far past its deadline each paced wheel tick ran
	// (all zero when unpaced). A wheel that keeps its cadence stays near
	// the timer's wake-up slack; a growing p99 or max means it is falling
	// behind and catching up.
	WheelLate WheelLateness
	// CatchUpTicks counts ticks the wheel ran back to back, without
	// sleeping, because it woke after their deadline.
	CatchUpTicks int64
	Shards       []ShardSnapshot
	// PerStream is populated only when requested (Stats(true) or
	// StatsPage); at fleet scale the aggregate is the cheap default.
	// PerStreamTotal/PerStreamOffset frame a StatsPage window against
	// the full admission-ordered stream list.
	PerStream       []StreamSnapshot `json:",omitempty"`
	PerStreamTotal  int              `json:",omitempty"`
	PerStreamOffset int              `json:",omitempty"`
}

// Stats returns a point-in-time snapshot of the fleet. Safe to call
// concurrently with Run. includeStreams adds the full per-stream
// breakdown, which is O(streams) to build — at density, prefer
// StatsPage.
func (e *Engine) Stats(includeStreams bool) Snapshot {
	if includeStreams {
		return e.statsPage(0, -1, true)
	}
	return e.statsPage(0, 0, false)
}

// StatsPage is Stats with a paginated per-stream section: the window
// [offset, offset+limit) of streams in admission order (limit < 0 means
// the rest). PerStreamTotal carries the full count so clients can walk
// pages; the aggregate and shard sections are always complete.
func (e *Engine) StatsPage(offset, limit int) Snapshot {
	return e.statsPage(offset, limit, true)
}

func (e *Engine) statsPage(offset, limit int, includeStreams bool) Snapshot {
	snap := Snapshot{
		Tier:               e.cfg.Tier.String(),
		Draining:           e.draining.Load(),
		Rotations:          e.Rotations(),
		Verdicts:           e.verdictCount.Load(),
		LostVerdicts:       e.lostCount.Load(),
		CheckpointsWritten: e.ckptOK.Load(),
		CheckpointErrors:   e.ckptErr.Load(),
		CatchUpTicks:       e.catchUpTicks.Load(),
		Shards:             make([]ShardSnapshot, len(e.shards)),
	}
	var counts [latHistBuckets]int64
	if total := e.wheelLate.snapshot(&counts); total > 0 {
		snap.WheelLate = WheelLateness{
			P50Micros: quantile(&counts, total, 0.50),
			P99Micros: quantile(&counts, total, 0.99),
			MaxMicros: float64(e.wheelLateMax.Load()),
		}
	}

	// One short critical section for the block-table header; everything
	// per-stream below reads initialised slab slots and atomics without
	// the lock (blocks never move, and a handle below nstreams was fully
	// initialised before nstreams was published).
	e.mu.Lock()
	blocks, nstreams, live := e.blocks, e.nstreams, e.live
	e.mu.Unlock()
	snap.Streams = nstreams
	snap.Live = live

	for i, sh := range e.shards {
		ss := &snap.Shards[i]
		ss.Streams = int(sh.liveStreams.Load())
		ss.Batches = sh.batches.Load()
		ss.Intervals = sh.intervals.Load()
		ss.ShedBatches = sh.shedBatches.Load()
		ss.ShedIntervals = sh.shedIntervals.Load()
		ss.QueueDepth = sh.q.depth()
		// Lag is only meaningful while the shard has live streams: an
		// idle shard (all its streams finished) stops seeing batches, so
		// comparing its last batch's rotation against the still-ticking
		// wheel would report ever-growing phantom lag.
		if lag := snap.Rotations - sh.lastRot.Load(); lag > 0 && ss.Batches > 0 && ss.Streams > 0 {
			ss.LagRotations = lag
		}
		if total := sh.lat.snapshot(&counts); total > 0 {
			ss.P50LatencyMicros = quantile(&counts, total, 0.50)
			ss.P99LatencyMicros = quantile(&counts, total, 0.99)
			ss.P999LatencyMicros = quantile(&counts, total, 0.999)
			for b := range counts {
				if counts[b] > 0 {
					ss.LagHistogram = append(ss.LagHistogram, LagBucket{
						UpToMicros: latBucketUpper(b),
						Count:      counts[b],
					})
				}
			}
		}
		for _, b := range sh.batchers {
			if b.Compiled() {
				ss.CompiledStages++
			}
			if b.Quantized() {
				ss.QuantizedStages++
			}
		}
		snap.ShedIntervals += ss.ShedIntervals
	}

	if includeStreams {
		snap.PerStreamTotal = nstreams
		if offset < 0 {
			offset = 0
		}
		if offset > nstreams {
			offset = nstreams
		}
		end := nstreams
		if limit >= 0 && offset+limit < end {
			end = offset + limit
		}
		snap.PerStreamOffset = offset
		snap.PerStream = make([]StreamSnapshot, 0, end-offset)
		for h := handle(offset); int(h) < end; h++ {
			s := streamAt(blocks, h)
			snap.PerStream = append(snap.PerStream, StreamSnapshot{
				ID:             s.id,
				Shard:          s.shardIdx,
				Slot:           s.slot,
				Scheduled:      int(s.rot.Load()),
				Verdicts:       s.done.Load(),
				LostVerdicts:   s.lost.Load(),
				SourceFailures: s.srcFails.Load(),
				BadFrames:      s.badFrames.Load(),
				ActiveStage:    e.stageName(s),
				Breaker:        s.br.Snapshot(),
				Finished:       s.finished.Load(),
				Removed:        s.removed.Load(),
			})
		}
	}
	return snap
}

// stageName maps a stream's last recorded active stage to its name.
func (e *Engine) stageName(s *stream) string {
	if s.done.Load() == 0 {
		return ""
	}
	idx := int(s.activeStage.Load())
	if idx < 0 || idx >= len(e.stageNames) {
		return ""
	}
	return e.stageNames[idx]
}
