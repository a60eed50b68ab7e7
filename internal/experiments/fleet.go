package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/mlearn/zoo"
	"repro/internal/source"
	"repro/internal/supervise"
)

// The fleet experiment benchmarks the sharded multi-stream serving
// engine against the obvious alternative — one supervised pipeline
// (three goroutines, two queues) per monitored stream — on the same
// paper-scale fallback chain (4HPC → 2HPC Boosted-REPTree → prior).
// Both sides consume identical cheap synthetic sources so the engines'
// overhead, not simulated microarchitecture, is what the curve
// measures. Both run the lossless Block policy, so every configuration
// does exactly streams x intervals verdicts of work.

// FleetBenchConfig parameterises the fleet benchmark.
type FleetBenchConfig struct {
	// StreamCounts is the sweep (default 16, 64, 256, 512, 1024).
	StreamCounts []int
	// Intervals per stream (default 200).
	Intervals int
	// Shards is the fleet worker pool (default GOMAXPROCS).
	Shards int
	// BaselineMax caps the stream count the per-pipeline baseline is
	// run at — N pipelines is 3N goroutines and N model replicas
	// (default 256, where the headline comparison sits).
	BaselineMax int
	// DensityCounts is the stream-density sweep on the MLP-heavy chain,
	// compiled vs quantized (default 1024, 2048, 4096, 8192). Empty
	// slice means the default; set SkipDensity to omit the sweep.
	DensityCounts []int
	// SkipDensity omits the density sweep entirely.
	SkipDensity bool
}

func (c FleetBenchConfig) streamCounts() []int {
	if len(c.StreamCounts) > 0 {
		return c.StreamCounts
	}
	return []int{16, 64, 256, 512, 1024}
}

func (c FleetBenchConfig) densityCounts() []int {
	if len(c.DensityCounts) > 0 {
		return c.DensityCounts
	}
	return []int{1024, 2048, 4096, 8192}
}

func (c FleetBenchConfig) intervals() int {
	if c.Intervals > 0 {
		return c.Intervals
	}
	return 200
}

func (c FleetBenchConfig) shards() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return runtime.GOMAXPROCS(0)
}

func (c FleetBenchConfig) baselineMax() int {
	if c.BaselineMax > 0 {
		return c.BaselineMax
	}
	return 256
}

// FleetPoint is one stream count's measurement.
type FleetPoint struct {
	Streams int
	// Fleet engine, unpaced Block run: wall time, throughput, and the
	// worst shard's harvest-to-verdict latency percentiles.
	FleetWallMillis      float64
	FleetIntervalsPerSec float64
	FleetP50Micros       float64
	FleetP99Micros       float64
	FleetP999Micros      float64
	// Sustains10ms: the engine clears 100 intervals/sec/stream — every
	// stream can be served at the paper's 10 ms sampling interval.
	Sustains10ms bool
	// Per-pipeline baseline (zero when skipped above BaselineMax).
	BaselineWallMillis      float64
	BaselineIntervalsPerSec float64
	// SpeedupX is fleet throughput over baseline throughput.
	SpeedupX float64
}

// DensityPoint is one stream count's measurement in the density sweep:
// the same workload served once through the compiled tier and once
// through the quantized tier, on the MLP-heavy chain where fixed-point
// inference has the most to win.
type DensityPoint struct {
	Streams                  int
	CompiledIntervalsPerSec  float64
	CompiledP999Micros       float64
	QuantizedIntervalsPerSec float64
	QuantizedP999Micros      float64
	// QuantSpeedupX is quantized over compiled fleet throughput — the
	// fleet-level win from the fixed-point tier.
	QuantSpeedupX float64
}

// FleetReport is the fleet-serving benchmark, serialized to
// BENCH_FLEET.json by hmd-bench -exp fleet.
type FleetReport struct {
	// Chain names the fallback stages both engines serve.
	Chain     []string
	Shards    int
	Intervals int
	Points    []FleetPoint
	// DensityChain/Density are the stream-density sweep: compiled vs
	// quantized on an MLP-heavy chain (absent with SkipDensity).
	DensityChain []string       `json:",omitempty"`
	Density      []DensityPoint `json:",omitempty"`
	// Paced is the sweep's last (by default largest) stream count served
	// once more at the paper's 10 ms interval, reporting the wheel's own
	// cadence health.
	Paced *PacedPoint `json:",omitempty"`
}

// PacedPoint is a paced run's wheel health: the rotation rate it held
// (100/s keeps the 10 ms cadence) and how late its ticks ran — the same
// Snapshot.WheelLate and CatchUpTicks an operator reads from /stats.
type PacedPoint struct {
	Streams            int
	WallMillis         float64
	RotationsPerSec    float64
	WheelLateP50Micros float64
	WheelLateP99Micros float64
	WheelLateMaxMicros float64
	CatchUpTicks       int64
}

// Fleet runs the multi-stream serving benchmark on the context's
// trained chain and returns the report.
func (ctx *Context) Fleet(cfg FleetBenchConfig) (*FleetReport, error) {
	chain, err := ctx.Builder.BuildChain("REPTree", zoo.Boosted, []int{4, 2}, core.ChainConfig{})
	if err != nil {
		return nil, err
	}
	width := len(chain.Events())
	replicate, err := core.NewChainReplicator(chain)
	if err != nil {
		return nil, err
	}

	rep := &FleetReport{Shards: cfg.shards(), Intervals: cfg.intervals()}
	for s := 0; s <= chain.Stages(); s++ {
		rep.Chain = append(rep.Chain, chain.StageName(s))
	}

	for _, n := range cfg.streamCounts() {
		pt := FleetPoint{Streams: n}

		ivPerSec, wall, snap, err := fleetRun(chain, core.TierCompiled, n, cfg.intervals(), cfg.shards(), 0)
		if err != nil {
			return nil, err
		}
		pt.FleetWallMillis = durMillis(wall)
		pt.FleetIntervalsPerSec = ivPerSec
		for _, sh := range snap.Shards {
			if sh.P50LatencyMicros > pt.FleetP50Micros {
				pt.FleetP50Micros = sh.P50LatencyMicros
			}
			if sh.P99LatencyMicros > pt.FleetP99Micros {
				pt.FleetP99Micros = sh.P99LatencyMicros
			}
			if sh.P999LatencyMicros > pt.FleetP999Micros {
				pt.FleetP999Micros = sh.P999LatencyMicros
			}
		}
		pt.Sustains10ms = pt.FleetIntervalsPerSec >= float64(100*n)

		if n <= cfg.baselineMax() {
			want := int64(n * cfg.intervals())
			baseWall, err := pipelineBaseline(replicate, n, cfg.intervals(), width)
			if err != nil {
				return nil, err
			}
			pt.BaselineWallMillis = durMillis(baseWall)
			pt.BaselineIntervalsPerSec = float64(want) / baseWall.Seconds()
			pt.SpeedupX = pt.FleetIntervalsPerSec / pt.BaselineIntervalsPerSec
		}
		rep.Points = append(rep.Points, pt)
	}

	counts := cfg.streamCounts()
	n := counts[len(counts)-1]
	_, wall, snap, err := fleetRun(chain, core.TierCompiled, n, cfg.intervals(), cfg.shards(), 10*time.Millisecond)
	if err != nil {
		return nil, err
	}
	rep.Paced = &PacedPoint{
		Streams:            n,
		WallMillis:         durMillis(wall),
		RotationsPerSec:    float64(snap.Rotations) / wall.Seconds(),
		WheelLateP50Micros: snap.WheelLate.P50Micros,
		WheelLateP99Micros: snap.WheelLate.P99Micros,
		WheelLateMaxMicros: snap.WheelLate.MaxMicros,
		CatchUpTicks:       snap.CatchUpTicks,
	}

	if !cfg.SkipDensity {
		// Density sweep: how many 10 ms streams one node covers, and
		// what the quantized tier buys at fleet level. The chain is
		// MLP-heavy — dense matrix work per score — because that is
		// where fixed-point inference pays; tree forests are already
		// branch-bound and quantize to roughly the same cost.
		mlp, err := ctx.Builder.BuildChain("MLP", zoo.General, []int{4, 2}, core.ChainConfig{})
		if err != nil {
			return nil, err
		}
		for s := 0; s <= mlp.Stages(); s++ {
			rep.DensityChain = append(rep.DensityChain, mlp.StageName(s))
		}
		for _, n := range cfg.densityCounts() {
			dp := DensityPoint{Streams: n}
			comp, _, csnap, err := fleetRun(mlp, core.TierCompiled, n, cfg.intervals(), cfg.shards(), 0)
			if err != nil {
				return nil, err
			}
			quant, _, qsnap, err := fleetRun(mlp, core.TierQuantized, n, cfg.intervals(), cfg.shards(), 0)
			if err != nil {
				return nil, err
			}
			dp.CompiledIntervalsPerSec = comp
			dp.QuantizedIntervalsPerSec = quant
			for _, sh := range csnap.Shards {
				if sh.P999LatencyMicros > dp.CompiledP999Micros {
					dp.CompiledP999Micros = sh.P999LatencyMicros
				}
			}
			for _, sh := range qsnap.Shards {
				if sh.P999LatencyMicros > dp.QuantizedP999Micros {
					dp.QuantizedP999Micros = sh.P999LatencyMicros
				}
			}
			dp.QuantSpeedupX = quant / comp
			rep.Density = append(rep.Density, dp)
		}
	}
	return rep, nil
}

// fleetRun serves n synthetic streams x intervals verdicts through one
// fleet engine at the given tier (lossless Block; unpaced when interval
// is 0) and returns the throughput, wall time and final snapshot.
func fleetRun(chain *core.FallbackChain, tier core.Tier, n, intervals, shards int, interval time.Duration) (ivPerSec float64, wall time.Duration, snap fleet.Snapshot, err error) {
	e, err := fleet.New(fleet.Config{
		Chain:          chain,
		Shards:         shards,
		Interval:       interval,
		Policy:         supervise.Block,
		PendingBatches: 8,
		Tier:           tier,
	})
	if err != nil {
		return 0, 0, snap, err
	}
	width := len(chain.Events())
	for i := 0; i < n; i++ {
		if err := e.Add(fleet.StreamConfig{
			ID:        fmt.Sprintf("s%d", i),
			Source:    source.NewSynthetic(uint64(i)+1, width),
			Intervals: intervals,
		}); err != nil {
			return 0, 0, snap, err
		}
	}
	start := time.Now()
	if err := e.Run(context.Background()); err != nil {
		return 0, 0, snap, err
	}
	wall = time.Since(start)
	snap = e.Stats(false)
	want := int64(n * intervals)
	if snap.Verdicts != want || snap.LostVerdicts != 0 {
		return 0, 0, snap, fmt.Errorf("fleet bench at %d streams (%s): %d verdicts (%d lost), want %d lossless",
			n, tier, snap.Verdicts, snap.LostVerdicts, want)
	}
	return float64(want) / wall.Seconds(), wall, snap, nil
}

// pipelineBaseline serves the same workload as one supervised pipeline
// per stream: n pipelines, each with its own chain replica and three
// stage goroutines, all running concurrently. Replica construction
// happens outside the timed section.
func pipelineBaseline(replicate func() (*core.FallbackChain, error), n, intervals, width int) (time.Duration, error) {
	pipes := make([]*supervise.Pipeline, n)
	srcs := make([]supervise.Source, n)
	for i := range pipes {
		ch, err := replicate()
		if err != nil {
			return 0, err
		}
		p, err := supervise.New(supervise.Config{
			Chain:          ch,
			Policy:         supervise.Block,
			RestartBackoff: -1,
		})
		if err != nil {
			return 0, err
		}
		pipes[i] = p
		srcs[i] = source.NewSynthetic(uint64(i)+1, width)
	}

	errs := make(chan error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range pipes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			verdicts, err := pipes[i].Run(context.Background(), srcs[i], intervals)
			if err == nil && len(verdicts) != intervals {
				err = fmt.Errorf("pipeline %d: %d verdicts, want %d", i, len(verdicts), intervals)
			}
			if err != nil {
				select {
				case errs <- err:
				default:
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	return elapsed, nil
}

func durMillis(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1e3
}

// RenderFleet formats the fleet report for the console.
func RenderFleet(r *FleetReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet serving benchmark (%s; %d shards, %d intervals/stream)\n",
		strings.Join(r.Chain, " -> "), r.Shards, r.Intervals)
	sb.WriteString("  streams   fleet iv/s   p50 us   p99 us   p999 us   10ms?   baseline iv/s   speedup\n")
	for _, p := range r.Points {
		sustains := "no"
		if p.Sustains10ms {
			sustains = "yes"
		}
		if p.BaselineIntervalsPerSec > 0 {
			fmt.Fprintf(&sb, "  %7d   %10.0f   %6.0f   %6.0f   %7.0f   %5s   %13.0f   %6.2fx\n",
				p.Streams, p.FleetIntervalsPerSec, p.FleetP50Micros, p.FleetP99Micros,
				p.FleetP999Micros, sustains, p.BaselineIntervalsPerSec, p.SpeedupX)
		} else {
			fmt.Fprintf(&sb, "  %7d   %10.0f   %6.0f   %6.0f   %7.0f   %5s   %13s   %7s\n",
				p.Streams, p.FleetIntervalsPerSec, p.FleetP50Micros, p.FleetP99Micros,
				p.FleetP999Micros, sustains, "-", "-")
		}
	}
	if len(r.Density) > 0 {
		fmt.Fprintf(&sb, "Stream-density sweep (%s; compiled vs quantized)\n",
			strings.Join(r.DensityChain, " -> "))
		sb.WriteString("  streams   compiled iv/s   quant iv/s   quant win   p999 c/q us\n")
		for _, p := range r.Density {
			fmt.Fprintf(&sb, "  %7d   %13.0f   %10.0f   %8.2fx   %5.0f/%-5.0f\n",
				p.Streams, p.CompiledIntervalsPerSec, p.QuantizedIntervalsPerSec,
				p.QuantSpeedupX, p.CompiledP999Micros, p.QuantizedP999Micros)
		}
	}
	if p := r.Paced; p != nil {
		fmt.Fprintf(&sb, "Paced wheel at 10 ms (%d streams, %.0f ms): %.1f rotations/s, tick lateness p50/p99/max %.0f/%.0f/%.0f us, %d catch-up ticks\n",
			p.Streams, p.WallMillis, p.RotationsPerSec, p.WheelLateP50Micros, p.WheelLateP99Micros,
			p.WheelLateMaxMicros, p.CatchUpTicks)
	}
	return sb.String()
}
