package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/mlearn/zoo"
	"repro/internal/supervise"
)

// workload is one traffic mix. Every workload runs the paper's 10 ms
// cadence open-loop against the shipped serving configuration.
type workload struct {
	name       string
	classifier string
	variant    zoo.Variant
	streams    int  // live fleet streams (wire: client connections)
	churn      bool // lifetimes of 1–3 s, checkpoints every 16 rotations
	wire       bool // ingest.Server over loopback TCP
	// warmup runs the load before the window opens: long enough for
	// every source window to fill, and for churn, for the population's
	// ages and the draining-stream count to settle (about 6 s).
	warmup time.Duration
	why    string
}

var workloads = []workload{
	{
		name: "forest_10ms", classifier: "REPTree", variant: zoo.Boosted,
		streams: 8192, warmup: 2 * time.Second,
		why: "the paper's 4HPC→2HPC Boosted-REPTree chain; the forest kernel is most of each interval's CPU, so kernel, tier and shard-scoring changes show here",
	},
	{
		name: "linear_10ms", classifier: "SGD", variant: zoo.General,
		streams: 8192, warmup: 2 * time.Second,
		why: "same load on the SGD chain; the kernel is nearly free, so wheel, ring, gather and demux overhead dominate and a kernel change should not move it",
	},
	{
		name: "churn_ckpt_10ms", classifier: "REPTree", variant: zoo.Boosted,
		streams: 8192, churn: true, warmup: 6 * time.Second,
		why: "admission, pruning, slab growth and O(streams) checkpoints run beside scoring, so a scoring gain that costs admission or checkpoint pacing shows here",
	},
	{
		name: "wire_10ms", classifier: "REPTree", variant: zoo.Boosted,
		streams: 2, wire: true, warmup: 2 * time.Second,
		why: "ingest.Server over loopback with batch-of-one sends; frame codec, admission, attribution, writer coalescing and syscalls do nearly all the work",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig fixes one run's knobs. The command line sets seed, window
// and trace; the rest have fixed values outside tests.
type runConfig struct {
	seed    uint64
	window  time.Duration // measured window (a traced run splits it in half)
	warmup  time.Duration
	trace   bool
	streams int // fleet streams; 0 = the workload's own count
	setups  int // setup repetitions; setup_s is their median
	session int // wire samples per session
	// micro is the time spent on each microbenchmark of a traced run.
	micro time.Duration
	// density runs the max_streams_10ms search (traced forest_10ms);
	// each probe warms up for probeWarm and measures probeWindow.
	density                bool
	probeWarm, probeWindow time.Duration
	workDir                string
	// data, when set, replaces corpus collection (tests share one).
	data *dataset.Instances
}

func defaultConfig(w workload, seed uint64) runConfig {
	return runConfig{
		seed:        seed,
		window:      10 * time.Second,
		warmup:      w.warmup,
		setups:      3,
		session:     25,
		micro:       150 * time.Millisecond,
		density:     w.name == "forest_10ms",
		probeWarm:   time.Second,
		probeWindow: 4 * time.Second,
		workDir:     ".bench_build",
	}
}

func (c runConfig) streamCount(w workload) int {
	if c.streams > 0 {
		return c.streams
	}
	return w.streams
}

// collectCorpus runs hmd-serve's default training collection: 4
// applications per behaviour family, 10 intervals each.
func collectCorpus() (*dataset.Instances, error) {
	cfg := collect.Default()
	cfg.Suite.AppsPerFamily = 4
	cfg.Intervals = 10
	res, err := collect.Collect(cfg)
	if err != nil {
		return nil, fmt.Errorf("collecting corpus: %w", err)
	}
	return res.Data, nil
}

// trainChain trains the workload's 4→2→prior chain the way hmd-serve
// does: 70/30 split with seed 1, a 5-sample verdict window, compiled
// tier.
func trainChain(data *dataset.Instances, w workload) (*core.FallbackChain, error) {
	b, err := core.NewBuilder(data, 0.7, 1)
	if err != nil {
		return nil, fmt.Errorf("splitting corpus: %w", err)
	}
	chain, err := b.BuildChain(w.classifier, w.variant, []int{4, 2}, core.ChainConfig{Window: 5})
	if err != nil {
		return nil, fmt.Errorf("training chain: %w", err)
	}
	chain.SetTier(core.TierCompiled)
	if n := len(chain.Events()); n != sampleWidth {
		return nil, fmt.Errorf("chain reads %d counters, the load generates %d", n, sampleWidth)
	}
	return chain, nil
}

// setUp times cfg.setups set-ups of w: corpus collection, chain
// training, then build (engine or server start and the initial
// admissions). Each build returns how to discard what it built, which
// runs before the next set-up; the last one is kept. It returns the
// median set-up time in seconds and the last chain and readings.
func setUp(cfg runConfig, w workload, build func(*core.FallbackChain, *readings) (discard func() error, err error)) (secs float64, chain *core.FallbackChain, rd *readings, err error) {
	var times []float64
	var discard func() error
	for i := 0; i < cfg.setups; i++ {
		if discard != nil {
			if err := discard(); err != nil {
				return 0, nil, nil, err
			}
			runtime.GC()
		}
		t := mono()
		data := cfg.data
		if data == nil {
			if data, err = collectCorpus(); err != nil {
				return 0, nil, nil, err
			}
		}
		if chain, err = trainChain(data, w); err != nil {
			return 0, nil, nil, err
		}
		if rd, err = newReadings(data, chain.Events()); err != nil {
			return 0, nil, nil, err
		}
		if discard, err = build(chain, rd); err != nil {
			return 0, nil, nil, err
		}
		times = append(times, float64(mono()-t)/1e9)
	}
	return median(times), chain, rd, nil
}

// serveConfig is the fleet.Config hmd-serve -ingest builds from its
// default flags: GOMAXPROCS shards, 32 wheel slots, 10 ms interval,
// Block policy, 8 pending batches, adaptive harvest, checkpoints every
// 16 rotations when a store is set, compiled tier.
func serveConfig(chain *core.FallbackChain, store *core.CheckpointStore) fleet.Config {
	return fleet.Config{
		Chain:           chain,
		Interval:        10 * time.Millisecond,
		Policy:          supervise.Block,
		PendingBatches:  8,
		Checkpoint:      store,
		CheckpointEvery: 16,
		Tier:            core.TierCompiled,
	}
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	// Correct: every verdict checked matched the reference and the
	// ingest accounting identities held.
	Correct bool `json:"correct"`
	// Valid: the load generator ran on time (lateness p99 <= 1 ms).
	Valid bool `json:"valid"`
	// Checked counts the verdicts the reference replay compared.
	Checked   int64             `json:"checked"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Breakdown []breakdownRow    `json:"breakdown,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
}

func newResult(w workload, cfg runConfig) *result {
	return &result{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Correct: true, Valid: true,
		Metrics: make(map[string]metric)}
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: finite(v), Unit: unit}
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) names() []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
