package main

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/ingest"
)

// mark is the engine and process state at one of the plan's cuts.
type mark struct {
	at  int64
	cpu time.Duration
	st  fleet.Snapshot
	ing ingest.Stats // wire workload only
	gc  gcSample
}

func takeMark(eng *fleet.Engine, srv *ingest.Server) mark {
	m := mark{at: mono(), cpu: processCPU(), st: eng.Stats(false), gc: readGC()}
	if srv != nil {
		m.ing = srv.StatsSnapshot(false)
	}
	return m
}

func sleepTo(t int64) {
	if d := t - mono(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// gapPoller polls a delivered-verdict counter every millisecond until
// until and returns the longest stretch (ns) in which it did not move.
func gapPoller(count func() int64, until int64) int64 {
	last, lastAt := count(), mono()
	var maxGap int64
	for {
		time.Sleep(time.Millisecond)
		now := mono()
		if now >= until {
			return maxGap
		}
		if c := count(); c != last {
			last, lastAt = c, now
		} else if g := now - lastAt; g > maxGap {
			maxGap = g
		}
	}
}

// cpuCost is the system's CPU in one phase: process CPU less the load
// threads' (loadCPU), in µs per verdict the engine emitted, and in
// total.
func cpuCost(p *phase, marks map[int64]mark, loadCPU func(from, to int64) time.Duration) (usPerVerdict float64, total time.Duration) {
	a, b := marks[p.from], marks[p.to]
	total = b.cpu - a.cpu - loadCPU(p.from, p.to)
	return us(ratio(float64(total), float64(b.st.Verdicts-a.st.Verdicts))), total
}

// phaseE2E fills the end-to-end metrics (and the on-time ones kept
// with the layers) from one untraced phase.
func phaseE2E(res *result, p *phase, marks map[int64]mark, loadCPU func(from, to int64) time.Duration) {
	m := p.merged()
	cpuPer, cpu := cpuCost(p, marks, loadCPU)
	res.set("delivered_ratio", ratio(float64(m.delivered.Load()), float64(p.due)), "ratio")
	res.set("latency_p50_ms", ms(m.lat.quantile(0.50)), "ms")
	res.set("latency_p99_ms", ms(m.lat.quantile(0.99)), "ms")
	res.set("cpu_us_per_verdict", cpuPer, "us")
	res.set("ontime_ratio", ratio(float64(m.ontime.Load()), float64(p.due)), "ratio")
	res.set("ontime_verdicts_per_cpu_s", ratio(float64(m.ontime.Load()), cpu.Seconds()), "1/s")
}

// pollOutcome is what the traced phase's pollers observed.
type pollOutcome struct {
	maxDepth, maxLag int
	maxGap           int64
}

// pollTraced starts the traced phase's observers, which stop at until:
// engine Stats every 100 ms (queue depth, shard lag; each, when set,
// runs alongside) and the delivered-verdict counter every 1 ms (the
// longest fleet-wide delivery gap).
func pollTraced(wg *sync.WaitGroup, eng *fleet.Engine, delivered func() int64, each func(), po *pollOutcome, until int64) {
	wg.Add(2)
	go func() {
		defer wg.Done()
		for mono() < until {
			for _, sh := range eng.Stats(false).Shards {
				po.maxDepth = max(po.maxDepth, sh.QueueDepth)
				po.maxLag = max(po.maxLag, int(sh.LagRotations))
			}
			if each != nil {
				each()
			}
			time.Sleep(100 * time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		po.maxGap = gapPoller(delivered, until)
	}()
}

// fleetLayers fills the engine-level layer metrics of a traced phase
// from its first and last marks.
func fleetLayers(res *result, a, b mark, po *pollOutcome, ckptDir string) {
	secs := float64(b.at-a.at) / 1e9
	res.set("fleet.rotations_per_s", float64(b.st.Rotations-a.st.Rotations)/secs, "1/s")
	var rows, batches int64
	var h2v float64
	for i := range b.st.Shards {
		rows += b.st.Shards[i].Intervals - a.st.Shards[i].Intervals
		batches += b.st.Shards[i].Batches - a.st.Shards[i].Batches
		h2v = math.Max(h2v, lagQuantile(b.st.Shards[i].LagHistogram, 0.99))
	}
	res.set("fleet.batch_rows_mean", ratio(float64(rows), float64(batches)), "count")
	res.set("fleet.harvest_to_verdict_us_p99", h2v, "us")
	res.set("fleet.queue_depth_max", float64(po.maxDepth), "count")
	res.set("fleet.lag_rotations_max", float64(po.maxLag), "count")
	res.set("fleet.lost_verdicts", float64(b.st.LostVerdicts-a.st.LostVerdicts), "count")
	res.set("fleet.streams_ever", float64(b.st.Streams), "count")
	res.set("fleet.checkpoints", float64(b.st.CheckpointsWritten-a.st.CheckpointsWritten), "count")
	res.set("fleet.checkpoint_errors", float64(b.st.CheckpointErrors-a.st.CheckpointErrors), "count")
	var ckptBytes float64
	if ckptDir != "" {
		if fi, err := os.Stat(filepath.Join(ckptDir, "fleet.ckpt")); err == nil {
			ckptBytes = float64(fi.Size())
		}
	}
	res.set("fleet.checkpoint_bytes", ckptBytes, "bytes")
	res.set("fleet.delivery_gap_ms_max", ms(float64(po.maxGap)), "ms")
	res.set("proc.gc_cpu_share", gcShare(a.gc, b.gc), "ratio")
	res.set("proc.heap_mb", b.gc.heapBytes/(1<<20), "MB")
}

// lagQuantile reads the q-quantile (µs) of a shard's harvest-to-verdict
// histogram, interpolated inside the engine's bucket: the engine's
// buckets are 1/8 octave wide (upper bound (9+sub)<<(oct-1) - 1, lower
// bound (8+sub)<<(oct-1)), so a raw bucket bound would repeat exactly
// from run to run.
func lagQuantile(hb []fleet.LagBucket, q float64) float64 {
	var total int64
	for _, b := range hb {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for _, b := range hb {
		c := float64(b.Count)
		if cum+c >= rank {
			lo, hi := lagBucketLower(b.UpToMicros), float64(b.UpToMicros+1)
			return lo + (hi-lo)*(rank-cum)/c
		}
		cum += c
	}
	return float64(hb[len(hb)-1].UpToMicros)
}

func lagBucketLower(upTo int64) float64 {
	if upTo < 8 {
		return float64(upTo)
	}
	v := upTo + 1 // (9+sub) << shift with 9+sub in [9, 16]
	for shift := 62; shift >= 0; shift-- {
		if top := v >> shift; top >= 9 && top <= 16 && top<<shift == v {
			return float64((top - 1) << shift)
		}
	}
	return float64(upTo)
}
