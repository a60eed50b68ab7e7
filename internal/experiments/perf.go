package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/mlearn/ensemble"
	"repro/internal/mlearn/persist"
	"repro/internal/mlearn/zoo"
	"repro/internal/source"
	"repro/internal/supervise"
)

// The perf experiment benchmarks the throughput engine against the
// pre-engine baseline on the same corpus and seed:
//
//   - Training: the tree-family detector grid (J48/REPTree x all HPC
//     budgets x all variants) trained with the legacy per-node-sort
//     split search vs the sorted-index engine, sequential and parallel.
//   - Determinism: the engine's sequential and parallel runs must agree
//     bit for bit — identical held-out metrics and identical serialized
//     model bytes (what a checkpoint would persist).
//   - Inference: the per-sample verdict path — the legacy shape
//     (fresh feature vector + allocating Distribution + append/trim
//     window) vs the chain's zero-allocation Observe loop.

// PerfCell is one trained detector's held-out result in the perf grid.
type PerfCell struct {
	Label string
	Acc   float64
	AUC   float64
}

// PerfTrain is the training half of the perf report.
type PerfTrain struct {
	Detectors int
	Workers   int
	// Wall-clock training time (ms) for the whole grid under each engine.
	BaselineMillis  float64 // legacy split search, sequential
	EngineSeqMillis float64 // sorted-index, Workers=1
	EngineParMillis float64 // sorted-index, Workers=GOMAXPROCS
	// SpeedupX is baseline wall time over the parallel engine's.
	SpeedupX float64
	// MetricsIdentical / ModelsIdentical compare the engine's
	// sequential vs parallel runs: held-out accuracy/AUC and the
	// persist-serialized model bytes must match exactly.
	MetricsIdentical bool
	ModelsIdentical  bool
	Cells            []PerfCell
}

// PerfCV times k-fold cross-validation sequential vs parallel on one
// representative trainer and checks the results agree exactly.
type PerfCV struct {
	Folds            int
	SeqMillis        float64
	ParMillis        float64
	ResultsIdentical bool
}

// PerfInference is the per-sample verdict-path half of the report.
type PerfInference struct {
	Samples int
	// Baseline: the pre-engine loop shape (fresh vector + allocating
	// Distribution + append/trim window).
	BaselineNsPerOp     float64
	BaselineAllocsPerOp float64
	// Fast: FallbackChain.Observe with scratch buffers threaded through.
	FastNsPerOp     float64
	FastAllocsPerOp float64
	// SpeedupX is baseline ns/op over fast ns/op; AllocReductionX is
	// baseline allocs/op over fast allocs/op (floored at 1 alloc/op so
	// a zero-allocation fast path yields a finite ratio).
	SpeedupX        float64
	AllocReductionX float64
}

// PerfCompiledFamily is one detector family's compiled-vs-interpreted
// measurement on the batched scoring path: the same trained model
// scored through core.Batcher's compiled evaluator and through a
// Batcher pinned to the interpreted model, over identical held-out
// inputs.
type PerfCompiledFamily struct {
	Label string
	// Single-vector Score ns/op for each backend.
	SingleInterpNs   float64
	SingleCompiledNs float64
	SingleSpeedupX   float64
	// ScoreBatch ns per sample at PerfCompiled.BatchSize.
	BatchInterpNs   float64
	BatchCompiledNs float64
	BatchSpeedupX   float64
	// IntervalsPerSec is the compiled batched throughput — sampling
	// intervals (one feature vector each) classified per second.
	IntervalsPerSec float64
	// P99Micros is the p99 latency of a compiled single-vector Score
	// call (individually timed, so it includes clock-read overhead —
	// an upper bound on the true verdict latency).
	P99Micros float64
	// VerdictsIdentical: every held-out row produced bit-identical
	// scores (single and batched) and identical classes on both
	// backends.
	VerdictsIdentical bool
}

// PerfCompiledFleet compares the fleet engine's aggregate serving
// throughput with shard batchers scoring compiled vs pinned to the
// interpreted path, on the same chain and synthetic workload.
type PerfCompiledFleet struct {
	Streams   int
	Intervals int
	Shards    int
	// Aggregate intervals/sec across all streams under each backend.
	InterpIntervalsPerSec   float64
	CompiledIntervalsPerSec float64
	SpeedupX                float64
}

// PerfCompiled is the compiled-inference-backend half of the report:
// per-family kernels plus the fleet-level effect.
type PerfCompiled struct {
	BatchSize int
	Families  []PerfCompiledFamily
	Fleet     PerfCompiledFleet
}

// PerfQuantizedFamily is one family's quantized-tier measurement,
// interleaved with the compiled/interpreted reps of the same trained
// model over the same inputs.
type PerfQuantizedFamily struct {
	Label string
	// Quantized is false when the family has no quantized lowering and
	// the tier served the compiled fallback (numbers then mirror the
	// compiled column).
	Quantized bool
	// Single-vector and batched ns per sample through the quantized
	// kernels.
	SingleQuantNs float64
	BatchQuantNs  float64
	// Batched speedups against the interpreted and compiled tiers.
	QuantVsInterpX   float64
	QuantVsCompiledX float64
	IntervalsPerSec  float64
	// VerdictParity is the fraction of benchmark rows whose predicted
	// class matches the interpreted model's (the statistical-equivalence
	// gate proper runs zoo-wide in QuantEquivalence).
	VerdictParity float64
}

// PerfQuantizedFleet is the quantized tier's fleet-level measurement on
// the same chain and workload as PerfCompiledFleet.
type PerfQuantizedFleet struct {
	QuantIntervalsPerSec float64
	// VsCompiledX compares against the compiled fleet run of the same
	// report.
	VsCompiledX float64
}

// PerfQuantized is the quantized-tier section of the report.
type PerfQuantized struct {
	BatchSize int
	Families  []PerfQuantizedFamily
	Fleet     PerfQuantizedFleet
}

// PerfReport is the full throughput-engine benchmark, serialized to
// BENCH_PERF.json by hmd-bench -exp perf.
type PerfReport struct {
	Train     PerfTrain
	CV        PerfCV
	Inference PerfInference
	Compiled  PerfCompiled
	Quantized PerfQuantized
}

// perfGridJobs is the tree-family grid the training benchmark trains:
// the sorted-index engine only changes J48/REPTree, so the other
// classifiers would just dilute the measurement.
func perfGridJobs() []struct {
	name    string
	hpcs    int
	variant zoo.Variant
} {
	type job = struct {
		name    string
		hpcs    int
		variant zoo.Variant
	}
	var jobs []job
	for _, name := range []string{"J48", "REPTree"} {
		for _, hpcs := range HPCCounts {
			for _, v := range []zoo.Variant{zoo.General, zoo.Boosted, zoo.Bagged} {
				jobs = append(jobs, job{name, hpcs, v})
			}
		}
	}
	return jobs
}

// perfGrid trains the tree-family grid under the given engine settings,
// returning the Build wall time, the held-out metrics and the
// persist-serialized bytes of every model (evaluation and serialization
// happen outside the timed section).
func (ctx *Context) perfGrid(legacy bool, workers int) (time.Duration, []PerfCell, [][]byte, error) {
	b := ctx.Builder
	savedLegacy, savedWorkers := b.LegacySplit, b.Workers
	b.LegacySplit, b.Workers = legacy, workers
	defer func() { b.LegacySplit, b.Workers = savedLegacy, savedWorkers }()

	jobs := perfGridJobs()
	dets := make([]*core.Detector, len(jobs))
	var elapsed time.Duration
	for i, j := range jobs {
		start := time.Now()
		det, err := b.Build(j.name, j.variant, j.hpcs)
		elapsed += time.Since(start)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("perf grid %s/%s/%d: %w", j.name, j.variant, j.hpcs, err)
		}
		dets[i] = det
	}

	cells := make([]PerfCell, len(jobs))
	blobs := make([][]byte, len(jobs))
	for i, det := range dets {
		res, err := b.Evaluate(det)
		if err != nil {
			return 0, nil, nil, err
		}
		cells[i] = PerfCell{Label: det.Name(), Acc: res.Accuracy, AUC: res.AUC}
		var buf bytes.Buffer
		if err := persist.Save(&buf, det.Model); err != nil {
			return 0, nil, nil, err
		}
		blobs[i] = buf.Bytes()
	}
	return elapsed, cells, blobs, nil
}

// Perf runs the full throughput-engine benchmark on the context's
// corpus and returns the report.
func (ctx *Context) Perf() (*PerfReport, error) {
	rep := &PerfReport{}

	// ---- training grid ------------------------------------------------
	baseMs, _, _, err := ctx.perfGrid(true, 1)
	if err != nil {
		return nil, err
	}
	seqMs, seqCells, seqBlobs, err := ctx.perfGrid(false, 1)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	parMs, parCells, parBlobs, err := ctx.perfGrid(false, workers)
	if err != nil {
		return nil, err
	}

	rep.Train = PerfTrain{
		Detectors:        len(seqCells),
		Workers:          workers,
		BaselineMillis:   float64(baseMs.Microseconds()) / 1e3,
		EngineSeqMillis:  float64(seqMs.Microseconds()) / 1e3,
		EngineParMillis:  float64(parMs.Microseconds()) / 1e3,
		SpeedupX:         float64(baseMs) / float64(parMs),
		MetricsIdentical: true,
		ModelsIdentical:  true,
		Cells:            parCells,
	}
	for i := range seqCells {
		if seqCells[i] != parCells[i] {
			rep.Train.MetricsIdentical = false
		}
		if !bytes.Equal(seqBlobs[i], parBlobs[i]) {
			rep.Train.ModelsIdentical = false
		}
	}

	// ---- cross-validation ---------------------------------------------
	cvData, err := ctx.Builder.Train().Select([]int{0, 1, 2, 3})
	if err != nil {
		return nil, err
	}
	cvTrainer, err := zoo.NewVariantOpts("REPTree", zoo.Boosted, zoo.Options{Seed: 7})
	if err != nil {
		return nil, err
	}
	const folds = 5
	start := time.Now()
	cvSeq, err := eval.CrossValidateWorkers(cvTrainer, cvData, folds, 7, 1)
	cvSeqDur := time.Since(start)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	cvPar, err := eval.CrossValidateWorkers(cvTrainer, cvData, folds, 7, workers)
	cvParDur := time.Since(start)
	if err != nil {
		return nil, err
	}
	rep.CV = PerfCV{
		Folds:            folds,
		SeqMillis:        float64(cvSeqDur.Microseconds()) / 1e3,
		ParMillis:        float64(cvParDur.Microseconds()) / 1e3,
		ResultsIdentical: cvResultsEqual(cvSeq, cvPar),
	}

	// ---- per-sample inference path ------------------------------------
	inf, err := ctx.perfInference()
	if err != nil {
		return nil, err
	}
	rep.Inference = *inf

	// ---- compiled + quantized inference backends ----------------------
	comp, quant, err := ctx.perfCompiled()
	if err != nil {
		return nil, err
	}
	rep.Compiled = *comp
	rep.Quantized = *quant
	return rep, nil
}

func cvResultsEqual(a, b eval.CVResult) bool {
	if len(a.Folds) != len(b.Folds) {
		return false
	}
	for i := range a.Folds {
		if a.Folds[i] != b.Folds[i] {
			return false
		}
	}
	return true
}

// perfInference benchmarks the steady-state verdict path: the legacy
// per-sample shape vs the chain's zero-allocation Observe loop, over
// the same sample stream.
func (ctx *Context) perfInference() (*PerfInference, error) {
	chain, err := ctx.Builder.BuildChain("BayesNet", zoo.Bagged, []int{4, 2}, core.ChainConfig{})
	if err != nil {
		return nil, err
	}
	det, _, err := ctx.Detector("BayesNet", zoo.Bagged, 4)
	if err != nil {
		return nil, err
	}
	testK, err := ctx.Builder.TestFor(det)
	if err != nil {
		return nil, err
	}
	rows := testK.NumRows()
	if rows == 0 {
		return nil, fmt.Errorf("perf: empty held-out split")
	}
	if rows > 256 {
		rows = 256
	}
	stream := make([][]uint64, rows)
	for i := 0; i < rows; i++ {
		vals := make([]uint64, len(testK.X[i]))
		for j, v := range testK.X[i] {
			if v > 0 {
				vals[j] = uint64(v)
			}
		}
		stream[i] = vals
	}

	const iters = 20000
	const window = 5

	bag, ok := det.Model.(*ensemble.BaggedModel)
	if !ok {
		return nil, fmt.Errorf("perf: expected a bagged model, got %T", det.Model)
	}

	// Legacy loop shape — what the verdict path did before the
	// throughput engine: a fresh feature vector per sample, a fresh
	// vote accumulator, one allocating Distribution call per base
	// model, and an append/trim score window.
	baseline := func() {
		var hist []float64
		for n := 0; n < iters; n++ {
			values := stream[n%len(stream)]
			x := make([]float64, len(values))
			for j, v := range values {
				x[j] = float64(v)
			}
			avg := make([]float64, bag.NumClasses)
			for _, base := range bag.Models {
				d := base.Distribution(x)
				for c := 0; c < len(avg) && c < len(d); c++ {
					avg[c] += d[c]
				}
			}
			for c := range avg {
				avg[c] /= float64(len(bag.Models))
			}
			hist = append(hist, avg[1])
			if len(hist) > window {
				hist = hist[1:]
			}
			mean := 0.0
			for _, h := range hist {
				mean += h
			}
			mean /= float64(len(hist))
			_ = mean
		}
	}
	fast := func() error {
		for n := 0; n < iters; n++ {
			if _, err := chain.Observe(stream[n%len(stream)]); err != nil {
				return err
			}
		}
		return nil
	}

	// Warm up both paths (model scratch sizing, chain health state),
	// then measure time and cumulative mallocs per loop.
	baseline()
	if err := fast(); err != nil {
		return nil, err
	}
	chain.Reset()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	baseline()
	baseDur := time.Since(start)
	runtime.ReadMemStats(&after)
	baseAllocs := float64(after.Mallocs-before.Mallocs) / iters

	chain.Reset()
	runtime.GC()
	runtime.ReadMemStats(&before)
	start = time.Now()
	if err := fast(); err != nil {
		return nil, err
	}
	fastDur := time.Since(start)
	runtime.ReadMemStats(&after)
	fastAllocs := float64(after.Mallocs-before.Mallocs) / iters

	return &PerfInference{
		Samples:             iters,
		BaselineNsPerOp:     float64(baseDur.Nanoseconds()) / iters,
		BaselineAllocsPerOp: baseAllocs,
		FastNsPerOp:         float64(fastDur.Nanoseconds()) / iters,
		FastAllocsPerOp:     fastAllocs,
		SpeedupX:            float64(baseDur) / float64(fastDur),
		AllocReductionX:     baseAllocs / math.Max(fastAllocs, 1),
	}, nil
}

// perfCompiledFamilies are the representative detectors the compiled
// benchmark measures: one boosted and one bagged tree ensemble (the
// flattened-forest kernels), the MLP (blocked batch kernel), a linear
// model (fused dot product) and BayesNet (precomputed tables).
var perfCompiledFamilies = []struct {
	name    string
	variant zoo.Variant
}{
	{"REPTree", zoo.Boosted},
	{"J48", zoo.Bagged},
	{"MLP", zoo.General},
	{"SGD", zoo.General},
	{"BayesNet", zoo.General},
}

// perfCompiled benchmarks interpreted vs compiled vs quantized scoring
// per family and at the fleet level. All three tiers interleave within
// the same rep loop so they see the same machine conditions.
func (ctx *Context) perfCompiled() (*PerfCompiled, *PerfQuantized, error) {
	const batch = 256
	rep := &PerfCompiled{BatchSize: batch}
	qrep := &PerfQuantized{BatchSize: batch}
	for _, f := range perfCompiledFamilies {
		det, _, err := ctx.Detector(f.name, f.variant, 4)
		if err != nil {
			return nil, nil, err
		}
		testK, err := ctx.Builder.TestFor(det)
		if err != nil {
			return nil, nil, err
		}
		rows := testK.NumRows()
		if rows == 0 {
			return nil, nil, fmt.Errorf("perf compiled: empty held-out split")
		}
		xs := make([][]float64, batch)
		for i := range xs {
			src := testK.X[i%rows]
			x := make([]float64, len(src))
			copy(x, src)
			xs[i] = x
		}

		cb := det.NewBatcher()
		ib := det.NewInterpretedBatcher()
		qb := det.NewTierBatcher(core.TierQuantized)
		if !cb.Compiled() {
			return nil, nil, fmt.Errorf("perf compiled: %s/%s did not compile", f.name, f.variant)
		}

		fam := PerfCompiledFamily{
			Label:             f.name + "-" + f.variant.String(),
			VerdictsIdentical: true,
		}
		qfam := PerfQuantizedFamily{Label: fam.Label, Quantized: qb.Quantized()}

		// Equivalence gates first. Compiled: every row must agree bit
		// for bit on both the single-vector and the batched path, and on
		// the predicted class. Quantized: predicted classes must agree
		// statistically (the full zoo-wide gate is QuantEquivalence).
		outC := cb.ScoreBatch(xs, make([]float64, batch))
		outI := ib.ScoreBatch(xs, make([]float64, batch))
		agree := 0
		for i, x := range xs {
			if math.Float64bits(outC[i]) != math.Float64bits(outI[i]) ||
				math.Float64bits(cb.Score(x)) != math.Float64bits(ib.Score(x)) ||
				cb.Classify(x) != ib.Classify(x) {
				fam.VerdictsIdentical = false
			}
			if qb.Classify(x) == ib.Classify(x) {
				agree++
			}
		}
		qfam.VerdictParity = float64(agree) / float64(len(xs))

		// Interleave the backends and keep each side's best repetition:
		// alternating short reps exposes all of them to the same machine
		// conditions and the minimum sheds contention spikes, which
		// otherwise dominate ratio noise on a busy host.
		const reps = 9
		const singleIters = 40000
		const batchIters = 400
		out := make([]float64, batch)
		// Warm every backend (scratch sizing, branch history) before
		// the timed reps.
		perfTimeSingle(cb, xs, singleIters/10)
		perfTimeSingle(ib, xs, singleIters/10)
		perfTimeSingle(qb, xs, singleIters/10)
		perfTimeBatch(cb, xs, out, batchIters/10)
		perfTimeBatch(ib, xs, out, batchIters/10)
		perfTimeBatch(qb, xs, out, batchIters/10)

		si, sc, sq := math.Inf(1), math.Inf(1), math.Inf(1)
		bi, bc, bq := math.Inf(1), math.Inf(1), math.Inf(1)
		for r := 0; r < reps; r++ {
			si = math.Min(si, perfTimeSingle(ib, xs, singleIters))
			sc = math.Min(sc, perfTimeSingle(cb, xs, singleIters))
			sq = math.Min(sq, perfTimeSingle(qb, xs, singleIters))
			bi = math.Min(bi, perfTimeBatch(ib, xs, out, batchIters))
			bc = math.Min(bc, perfTimeBatch(cb, xs, out, batchIters))
			bq = math.Min(bq, perfTimeBatch(qb, xs, out, batchIters))
		}
		fam.SingleInterpNs, fam.SingleCompiledNs = si, sc
		fam.BatchInterpNs, fam.BatchCompiledNs = bi, bc
		fam.SingleSpeedupX = fam.SingleInterpNs / fam.SingleCompiledNs
		fam.BatchSpeedupX = fam.BatchInterpNs / fam.BatchCompiledNs
		fam.IntervalsPerSec = 1e9 / fam.BatchCompiledNs
		qfam.SingleQuantNs, qfam.BatchQuantNs = sq, bq
		qfam.QuantVsInterpX = bi / bq
		qfam.QuantVsCompiledX = bc / bq
		qfam.IntervalsPerSec = 1e9 / bq

		// p99 of individually timed compiled single-vector calls.
		lat := make([]time.Duration, 20000)
		for n := range lat {
			start := time.Now()
			cb.Score(xs[n%len(xs)])
			lat[n] = time.Since(start)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		fam.P99Micros = float64(lat[len(lat)*99/100].Nanoseconds()) / 1e3

		rep.Families = append(rep.Families, fam)
		qrep.Families = append(qrep.Families, qfam)
	}

	fl, qfl, err := ctx.perfCompiledFleet()
	if err != nil {
		return nil, nil, err
	}
	rep.Fleet = *fl
	qrep.Fleet = *qfl
	return rep, qrep, nil
}

func perfTimeSingle(b *core.Batcher, xs [][]float64, iters int) float64 {
	sink := 0.0
	start := time.Now()
	for n := 0; n < iters; n++ {
		sink += b.Score(xs[n%len(xs)])
	}
	elapsed := time.Since(start)
	if math.IsNaN(sink) {
		panic("perf: NaN score")
	}
	return float64(elapsed.Nanoseconds()) / float64(iters)
}

func perfTimeBatch(b *core.Batcher, xs [][]float64, out []float64, iters int) float64 {
	start := time.Now()
	for n := 0; n < iters; n++ {
		b.ScoreBatch(xs, out)
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(iters*len(xs))
}

// perfCompiledFleet serves the same fixed synthetic workload through
// three fleet engines — shard batchers pinned interpreted, scoring
// compiled, and scoring quantized — and reports aggregate throughput
// plus the derived max-sustained-streams at the paper's 10 ms sampling
// interval for each tier.
func (ctx *Context) perfCompiledFleet() (*PerfCompiledFleet, *PerfQuantizedFleet, error) {
	chain, err := ctx.Builder.BuildChain("REPTree", zoo.Boosted, []int{4, 2}, core.ChainConfig{})
	if err != nil {
		return nil, nil, err
	}
	width := len(chain.Events())
	const streams = 64
	const intervals = 200
	shards := runtime.GOMAXPROCS(0)

	run := func(tier core.Tier) (float64, error) {
		e, err := fleet.New(fleet.Config{
			Chain:          chain,
			Shards:         shards,
			Policy:         supervise.Block,
			PendingBatches: 8,
			Tier:           tier,
		})
		if err != nil {
			return 0, err
		}
		for i := 0; i < streams; i++ {
			if err := e.Add(fleet.StreamConfig{
				ID:        fmt.Sprintf("s%d", i),
				Source:    source.NewSynthetic(uint64(i)+1, width),
				Intervals: intervals,
			}); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		if err := e.Run(context.Background()); err != nil {
			return 0, err
		}
		wall := time.Since(start)
		snap := e.Stats(false)
		want := int64(streams * intervals)
		if snap.Verdicts != want || snap.LostVerdicts != 0 {
			return 0, fmt.Errorf("perf compiled fleet: %d verdicts (%d lost), want %d lossless",
				snap.Verdicts, snap.LostVerdicts, want)
		}
		return float64(want) / wall.Seconds(), nil
	}

	// Warm once (replica construction paths, scheduler), then measure
	// interleaved best-of-N per backend, for the same reason as the
	// per-family reps above. The timed section of one run is only tens
	// of milliseconds, so the rep count (not the run length) is what
	// beats down scheduler noise in the tier ratios.
	if _, err := run(core.TierCompiled); err != nil {
		return nil, nil, err
	}
	var interp, comp, quant float64
	for r := 0; r < 4; r++ {
		i, err := run(core.TierInterpreted)
		if err != nil {
			return nil, nil, err
		}
		c, err := run(core.TierCompiled)
		if err != nil {
			return nil, nil, err
		}
		q, err := run(core.TierQuantized)
		if err != nil {
			return nil, nil, err
		}
		interp = math.Max(interp, i)
		comp = math.Max(comp, c)
		quant = math.Max(quant, q)
	}
	return &PerfCompiledFleet{
			Streams:                 streams,
			Intervals:               intervals,
			Shards:                  shards,
			InterpIntervalsPerSec:   interp,
			CompiledIntervalsPerSec: comp,
			SpeedupX:                comp / interp,
		}, &PerfQuantizedFleet{
			QuantIntervalsPerSec: quant,
			VsCompiledX:          quant / comp,
		}, nil
}

// PerfOnlyResult is the single family/tier micro-run behind hmd-bench's
// -perf-only flag: one trained model, one tier, no full sweep and no
// BENCH_PERF.json rewrite.
type PerfOnlyResult struct {
	Label     string
	Tier      string
	Backend   string // the tier actually scoring, after per-model fallback
	BatchSize int
	SingleNs  float64
	// BatchNs is ns per sample at BatchSize.
	BatchNs         float64
	IntervalsPerSec float64
}

// PerfOnly benchmarks one family/tier pair named as "family:tier" (e.g.
// "mlp:quantized", "reptree-boosted:compiled"; tier defaults to
// compiled). The family matches a perf-sweep label or base name,
// case-insensitively.
func (ctx *Context) PerfOnly(spec string) (*PerfOnlyResult, error) {
	famTok, tierTok := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		famTok, tierTok = spec[:i], spec[i+1:]
	}
	tier, err := core.ParseTier(strings.ToLower(strings.TrimSpace(tierTok)))
	if err != nil {
		return nil, err
	}
	famTok = strings.ToLower(strings.TrimSpace(famTok))
	var fam *struct {
		name    string
		variant zoo.Variant
	}
	for i := range perfCompiledFamilies {
		f := &perfCompiledFamilies[i]
		label := strings.ToLower(f.name + "-" + f.variant.String())
		if famTok == strings.ToLower(f.name) || famTok == label {
			fam = f
			break
		}
	}
	if fam == nil {
		var names []string
		for _, f := range perfCompiledFamilies {
			names = append(names, strings.ToLower(f.name+"-"+f.variant.String()))
		}
		return nil, fmt.Errorf("perf-only: unknown family %q (one of: %s)", famTok, strings.Join(names, ", "))
	}

	det, _, err := ctx.Detector(fam.name, fam.variant, 4)
	if err != nil {
		return nil, err
	}
	testK, err := ctx.Builder.TestFor(det)
	if err != nil {
		return nil, err
	}
	rows := testK.NumRows()
	if rows == 0 {
		return nil, fmt.Errorf("perf-only: empty held-out split")
	}
	const batch = 256
	xs := make([][]float64, batch)
	for i := range xs {
		src := testK.X[i%rows]
		x := make([]float64, len(src))
		copy(x, src)
		xs[i] = x
	}
	b := det.NewTierBatcher(tier)

	const reps = 5
	const singleIters = 40000
	const batchIters = 400
	out := make([]float64, batch)
	perfTimeSingle(b, xs, singleIters/10)
	perfTimeBatch(b, xs, out, batchIters/10)
	sn, bn := math.Inf(1), math.Inf(1)
	for r := 0; r < reps; r++ {
		sn = math.Min(sn, perfTimeSingle(b, xs, singleIters))
		bn = math.Min(bn, perfTimeBatch(b, xs, out, batchIters))
	}
	return &PerfOnlyResult{
		Label:           fam.name + "-" + fam.variant.String(),
		Tier:            tier.String(),
		Backend:         b.Backend().String(),
		BatchSize:       batch,
		SingleNs:        sn,
		BatchNs:         bn,
		IntervalsPerSec: 1e9 / bn,
	}, nil
}

// RenderPerfOnly formats a single family/tier micro-run.
func RenderPerfOnly(r *PerfOnlyResult) string {
	return fmt.Sprintf("perf-only %s tier=%s backend=%s: single %.0f ns, batch(%d) %.1f ns/sample, %.2fM intervals/s\n",
		r.Label, r.Tier, r.Backend, r.SingleNs, r.BatchSize, r.BatchNs, r.IntervalsPerSec/1e6)
}

// RenderPerf formats the perf report for the console.
func RenderPerf(r *PerfReport) string {
	var sb strings.Builder
	sb.WriteString("Throughput engine benchmark\n")
	fmt.Fprintf(&sb, "  training grid (%d tree-family detectors, %d workers):\n",
		r.Train.Detectors, r.Train.Workers)
	fmt.Fprintf(&sb, "    legacy split search      %10.1f ms\n", r.Train.BaselineMillis)
	fmt.Fprintf(&sb, "    sorted-index, sequential %10.1f ms\n", r.Train.EngineSeqMillis)
	fmt.Fprintf(&sb, "    sorted-index, parallel   %10.1f ms   (%.2fx vs legacy)\n",
		r.Train.EngineParMillis, r.Train.SpeedupX)
	fmt.Fprintf(&sb, "    seq vs par: metrics identical=%v, model bytes identical=%v\n",
		r.Train.MetricsIdentical, r.Train.ModelsIdentical)
	fmt.Fprintf(&sb, "  %d-fold CV: seq %.1f ms, par %.1f ms, identical=%v\n",
		r.CV.Folds, r.CV.SeqMillis, r.CV.ParMillis, r.CV.ResultsIdentical)
	fmt.Fprintf(&sb, "  verdict path (%d samples):\n", r.Inference.Samples)
	fmt.Fprintf(&sb, "    legacy loop  %8.0f ns/op  %6.1f allocs/op\n",
		r.Inference.BaselineNsPerOp, r.Inference.BaselineAllocsPerOp)
	fmt.Fprintf(&sb, "    chain loop   %8.0f ns/op  %6.1f allocs/op   (%.1fx faster, %.0fx fewer allocs)\n",
		r.Inference.FastNsPerOp, r.Inference.FastAllocsPerOp,
		r.Inference.SpeedupX, r.Inference.AllocReductionX)
	fmt.Fprintf(&sb, "  compiled inference backend (batch=%d):\n", r.Compiled.BatchSize)
	for _, f := range r.Compiled.Families {
		fmt.Fprintf(&sb, "    %-16s single %6.0f -> %5.0f ns (%.2fx)  batch %6.1f -> %5.1f ns/sample (%.2fx)  %5.2fM iv/s  p99 %4.1f us  identical=%v\n",
			f.Label, f.SingleInterpNs, f.SingleCompiledNs, f.SingleSpeedupX,
			f.BatchInterpNs, f.BatchCompiledNs, f.BatchSpeedupX,
			f.IntervalsPerSec/1e6, f.P99Micros, f.VerdictsIdentical)
	}
	fl := r.Compiled.Fleet
	fmt.Fprintf(&sb, "    fleet %d streams x %d intervals, %d shards: interpreted %.0f iv/s -> compiled %.0f iv/s (%.2fx)\n",
		fl.Streams, fl.Intervals, fl.Shards,
		fl.InterpIntervalsPerSec, fl.CompiledIntervalsPerSec, fl.SpeedupX)
	fmt.Fprintf(&sb, "  quantized tier (batch=%d):\n", r.Quantized.BatchSize)
	for _, f := range r.Quantized.Families {
		tag := ""
		if !f.Quantized {
			tag = "  [compiled fallback]"
		}
		fmt.Fprintf(&sb, "    %-16s single %6.0f ns  batch %5.1f ns/sample  %.2fx vs interp, %.2fx vs compiled  %5.2fM iv/s  parity %.3f%s\n",
			f.Label, f.SingleQuantNs, f.BatchQuantNs,
			f.QuantVsInterpX, f.QuantVsCompiledX, f.IntervalsPerSec/1e6, f.VerdictParity, tag)
	}
	qf := r.Quantized.Fleet
	fmt.Fprintf(&sb, "    fleet quantized: %.0f iv/s (%.2fx vs compiled)\n",
		qf.QuantIntervalsPerSec, qf.VsCompiledX)
	return sb.String()
}
