// Command hmd-bench regenerates every table and figure of the paper's
// evaluation section at full corpus scale and checks the headline
// claims (the shape of the results, not absolute numbers).
//
// Usage:
//
//	hmd-bench [-exp all|table1|figure3|table2|figure4|figure5|table3|extensions|robustness|chaos|perf|quant|fleet|ingest|cluster|claims]
//	          [-perf-only family[:tier]]
//	          [-apps N] [-intervals N] [-seed N]
//	          [-cpuprofile cpu.out] [-memprofile mem.out]
//
// Wire throughput and per-verdict cost are measured by the paced 10 ms
// benchmark in bench/ (sh bench/run.sh), not here.
//
// -perf-only times a single detector family under one inference tier
// (e.g. -perf-only mlp:quantized) and exits — a seconds-long probe for
// kernel work, against the minutes-long full -exp perf sweep. -exp
// quant runs the quantized tier's statistical-equivalence gate alone.
//
// -cpuprofile and -memprofile write standard pprof profiles of the run
// (inspect with `go tool pprof`); the heap profile is snapshotted after
// a final GC when the selected experiments finish.
//
// With -exp all (the default) the tool prints every artefact in paper
// order followed by the headline-claim checklist. Expect a few minutes
// of runtime at the default scale: the collection pass alone executes
// 120 applications 11 times each under the 4-register PMU constraint,
// and the detector grid trains 96 models.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/collect"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/mlearn/zoo"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1, figure3, table2, figure4, figure5, table3, extensions, robustness, chaos, perf, quant, fleet, ingest, cluster, claims")
	perfOnly := flag.String("perf-only", "", "time a single family under one tier (family[:tier], e.g. mlp:quantized) and exit")
	apps := flag.Int("apps", 10, "applications per behaviour family (10 = paper scale, 120 apps)")
	intervals := flag.Int("intervals", 30, "sampling intervals per run")
	seed := flag.Uint64("seed", 1, "split/training seed")
	perfOut := flag.String("perfout", "BENCH_PERF.json", "output path of the -exp perf report")
	fleetOut := flag.String("fleetout", "BENCH_FLEET.json", "output path of the -exp fleet report")
	fleetStreams := flag.String("fleetstreams", "", "comma-separated stream counts for -exp fleet (default 16,64,256,512,1024)")
	fleetIntervals := flag.Int("fleetintervals", 0, "intervals per stream for -exp fleet (default 200)")
	fleetDensity := flag.String("fleetdensity", "", "comma-separated stream counts for the -exp fleet density sweep (default 1024,2048,4096,8192; 'skip' omits it)")
	ingestOut := flag.String("ingestout", "BENCH_INGEST.json", "output path of the -exp ingest report")
	ingestStreams := flag.Int("ingeststreams", 0, "concurrent TCP clients for -exp ingest (default 8)")
	ingestSamples := flag.Int("ingestsamples", 0, "samples per client for -exp ingest (default 200)")
	clusterOut := flag.String("clusterout", "BENCH_CLUSTER.json", "output path of the -exp cluster report")
	clusterNodes := flag.String("clusternodes", "", "comma-separated node counts for -exp cluster (default 2,3,4,6,8)")
	clusterSamples := flag.Int("clustersamples", 0, "samples per stream for -exp cluster (default 150)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit (pprof format)")
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(fmt.Errorf("-cpuprofile: %w", err))
			}
			fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(fmt.Errorf("-memprofile: %w", err))
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(fmt.Errorf("-memprofile: %w", err))
			}
			fmt.Fprintf(os.Stderr, "heap profile written to %s\n", *memProfile)
		}()
	}
	perfPath = *perfOut
	fleetPath = *fleetOut
	ingestPath = *ingestOut
	clusterPath = *clusterOut
	ingestCfg.Streams = *ingestStreams
	ingestCfg.Samples = *ingestSamples
	clusterCfg.Samples = *clusterSamples
	fleetCfg.Intervals = *fleetIntervals
	if *fleetStreams != "" {
		counts, err := parseCounts(*fleetStreams)
		if err != nil {
			fatal(fmt.Errorf("-fleetstreams: %w", err))
		}
		fleetCfg.StreamCounts = counts
	}
	if *fleetDensity == "skip" {
		fleetCfg.SkipDensity = true
	} else if *fleetDensity != "" {
		counts, err := parseCounts(*fleetDensity)
		if err != nil {
			fatal(fmt.Errorf("-fleetdensity: %w", err))
		}
		fleetCfg.DensityCounts = counts
	}
	if *clusterNodes != "" {
		counts, err := parseCounts(*clusterNodes)
		if err != nil {
			fatal(fmt.Errorf("-clusternodes: %w", err))
		}
		clusterCfg.NodeCounts = counts
	}

	cfg := collect.Default()
	cfg.Suite.AppsPerFamily = *apps
	cfg.Intervals = *intervals

	start := time.Now()
	fmt.Fprintf(os.Stderr, "collecting corpus (%d apps x 11 runs x %d intervals)...\n", 12**apps, *intervals)
	ctx, err := experiments.NewContext(cfg, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "collection done in %v (%d samples x %d events)\n",
		time.Since(start).Round(time.Second), ctx.Data.NumRows(), ctx.Data.NumAttrs())

	run := func(name string, fn func(*experiments.Context) error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(ctx); err != nil {
			fatal(fmt.Errorf("experiment %s: %w", name, err))
		}
	}

	if *perfOnly != "" {
		res, err := ctx.PerfOnly(*perfOnly)
		if err != nil {
			fatal(fmt.Errorf("-perf-only: %w", err))
		}
		fmt.Print(experiments.RenderPerfOnly(res))
		return
	}

	run("table1", table1)
	run("figure3", figure3)
	run("table2", table2)
	run("figure4", figure4)
	run("figure5", figure5)
	run("table3", table3)
	run("extensions", extensions)
	run("robustness", robustness)
	run("chaos", chaos)
	if *exp == "perf" {
		run("perf", perfReport)
	}
	if *exp == "quant" {
		run("quant", quantGate)
	}
	if *exp == "fleet" {
		run("fleet", fleetReport)
	}
	if *exp == "ingest" {
		run("ingest", ingestReport)
	}
	if *exp == "cluster" {
		run("cluster", clusterReport)
	}
	run("claims", claims)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hmd-bench:", err)
	os.Exit(1)
}

func table1(ctx *experiments.Context) error {
	rows, err := ctx.Table1(16)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderTable1(rows))
	fmt.Println()
	return nil
}

func figure3(ctx *experiments.Context) error {
	cells, err := ctx.Figure3()
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderGrid(cells, "acc"))
	fmt.Println()
	return nil
}

func table2(ctx *experiments.Context) error {
	rows, err := ctx.Table2()
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderTable2(rows))
	fmt.Println()
	return nil
}

func figure4(ctx *experiments.Context) error {
	a, err := ctx.Figure4a()
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderROCs("Figure 4a: ROC, 4HPC-Bagging detectors", a))
	b, err := ctx.Figure4b()
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderROCs("Figure 4b: ROC, 8HPC general vs 2HPC-Boosted", b))
	fmt.Println()
	return nil
}

func figure5(ctx *experiments.Context) error {
	cells, err := ctx.Figure5()
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderGrid(cells, "perf"))
	fmt.Println()
	return nil
}

func table3(ctx *experiments.Context) error {
	rows, err := ctx.Table3()
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderTable3(rows))
	fmt.Println()
	return nil
}

// extensions prints the beyond-the-paper studies: specialized
// per-family detectors and the mimicry-evasion sweep.
func extensions(ctx *experiments.Context) error {
	rows, err := ctx.SpecializedComparison(4)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderOrgRows(rows))
	pts, err := ctx.EvasionSweep("REPTree", zoo.Boosted, 2, []float64{0, 0.25, 0.5, 0.75, 1})
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderEvasion("2HPC-Boosted-REPTree", pts))
	fmt.Println()
	return nil
}

// robustness prints the fault-rate sweep: accuracy/AUC of general vs
// boosted vs bagged detectors as injected HPC faults intensify,
// extending the paper's reduced-HPC comparison to degraded inputs.
func robustness(ctx *experiments.Context) error {
	rates := []float64{0, 0.1, 0.2, 0.3, 0.5}
	for _, cfg := range []struct {
		name string
		hpcs int
	}{{"REPTree", 2}, {"JRip", 4}} {
		curve, err := ctx.RobustnessSweep(cfg.name, cfg.hpcs, rates, faults.Plan{Seed: 0xF417})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderRobustness(curve))
		fmt.Println()
	}
	return nil
}

// chaos runs the supervised-service drill: crash-safe checkpoint
// recovery plus fault-injected monitoring through the supervised
// pipeline, with the service contracts (gap-free stream, breaker
// trip/recovery, torn-checkpoint quarantine, determinism) asserted.
func chaos(ctx *experiments.Context) error {
	dir, err := os.MkdirTemp("", "hmd-chaos-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	res, err := ctx.Chaos(experiments.ChaosConfig{
		Plan:          faults.Plan{Seed: 0xCA05, Rate: 0.3},
		CheckpointDir: dir,
	})
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderChaos(res))
	fmt.Println()
	if !res.Passed() {
		return fmt.Errorf("chaos drill contracts failed")
	}
	return nil
}

// perfPath is where -exp perf writes its JSON report.
var perfPath string

// perfReport runs the throughput-engine benchmark (training-grid wall
// time, CV parallelism, per-sample verdict path) and writes the JSON
// artefact alongside the console summary.
func perfReport(ctx *experiments.Context) error {
	rep, err := ctx.Perf()
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderPerf(rep))
	fmt.Println()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(perfPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perf report written to %s\n", perfPath)
	return nil
}

// quantGate runs the quantized tier's statistical-equivalence gate at
// corpus scale: zoo-wide pooled verdict parity plus per-model metric
// deltas within the robustness noise band. A failing gate is a
// non-zero exit — the same contract scripts/check.sh enforces via
// TestQuantEquivalence.
func quantGate(ctx *experiments.Context) error {
	rep, err := ctx.QuantEquivalence()
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderQuantEquivalence(rep))
	fmt.Println()
	if !rep.Pass {
		return fmt.Errorf("quantized equivalence gate failed")
	}
	return nil
}

// fleetPath is where -exp fleet writes its JSON report; fleetCfg holds
// the flag overrides (zero values mean experiment defaults).
var (
	fleetPath string
	fleetCfg  experiments.FleetBenchConfig
)

// parseCounts parses a comma-separated list of positive stream counts.
func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad stream count %q", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// fleetReport runs the multi-stream serving benchmark (sharded fleet
// engine vs one pipeline per stream) and writes the JSON artefact
// alongside the console summary.
func fleetReport(ctx *experiments.Context) error {
	rep, err := ctx.Fleet(fleetCfg)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderFleet(rep))
	fmt.Println()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(fleetPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fleet report written to %s\n", fleetPath)
	return nil
}

// ingestPath is where -exp ingest writes its JSON report; ingestCfg
// holds the flag overrides (zero values mean experiment defaults).
var (
	ingestPath  string
	ingestCfg   experiments.IngestBenchConfig
	clusterPath string
	clusterCfg  experiments.ClusterBenchConfig
)

// ingestReport first runs the ingest chaos drill (real loopback TCP
// clients under seeded wire faults, a quota storm and a mid-run
// drain/restart — the network plane's service contracts must all hold),
// then sweeps offered load against the service rate and writes the
// JSON artefact alongside the console summary.
func ingestReport(ctx *experiments.Context) error {
	dir, err := os.MkdirTemp("", "hmd-ingest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	res, err := ctx.IngestChaos(experiments.IngestChaosConfig{
		Plan:          faults.WirePlan{Seed: 0x16E57, Rate: 0.25},
		CheckpointDir: dir,
	})
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderIngestChaos(res))
	fmt.Println()
	if !res.Passed() {
		return fmt.Errorf("ingest chaos drill contracts failed")
	}

	rep, err := ctx.IngestBench(ingestCfg)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderIngest(rep))
	fmt.Println()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(ingestPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ingest report written to %s\n", ingestPath)
	return nil
}

// clusterReport first runs the cluster chaos drill (multi-node
// coordinator, scripted node crash, coordinator partition, rolling
// upgrade — every control-plane contract must hold and the verdicts
// must stay bit-identical to a single-node reference), then sweeps
// cluster sizes and writes the JSON artefact alongside the console
// summary.
func clusterReport(ctx *experiments.Context) error {
	res, err := ctx.ClusterChaos(experiments.ClusterChaosConfig{Seed: 0xC1A0})
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderClusterChaos(res))
	fmt.Println()
	if !res.Passed() {
		return fmt.Errorf("cluster chaos drill contracts failed")
	}

	rep, err := ctx.ClusterBench(clusterCfg)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderCluster(rep))
	fmt.Println()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(clusterPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cluster report written to %s\n", clusterPath)
	return nil
}

// claims evaluates the paper's headline statements against the measured
// grid and prints a PASS/FAIL checklist. These are shape checks: who
// wins and by roughly what magnitude.
func claims(ctx *experiments.Context) error {
	cells, err := ctx.Grid()
	if err != nil {
		return err
	}
	perf := map[string]float64{}
	acc := map[string]float64{}
	auc := map[string]float64{}
	for _, c := range cells {
		perf[c.Label()] = c.Result.Performance() * 100
		acc[c.Label()] = c.Result.Accuracy * 100
		auc[c.Label()] = c.Result.AUC
	}

	fmt.Println("Headline claims (paper -> measured):")
	check := func(desc string, ok bool, detail string) {
		status := "PASS"
		if !ok {
			status = "FAIL"
		}
		fmt.Printf("  [%s] %s — %s\n", status, desc, detail)
	}

	// Claim 1 (abstract): ensemble with 2 HPCs outperforms standard
	// classifiers with 8 HPCs by up to 17% (ACC*AUC).
	best := 0.0
	bestName := ""
	for _, name := range zoo.Names() {
		gain := perf["2HPC-Boosted-"+name] - perf["8HPC-"+name]
		if gain > best {
			best, bestName = gain, name
		}
	}
	check("2HPC ensemble beats 8HPC general by up to ~17%",
		best >= 5,
		fmt.Sprintf("max gain %.1f points (%s); paper: up to 17%%", best, bestName))

	// Claim 2 (§4.3): SMO 4HPC-Boosted improves ~16% over few-HPC
	// general models.
	gSMO4 := perf["4HPC-Boosted-SMO"] - perf["8HPC-SMO"]
	check("SMO: 4HPC-Boosted >> 8HPC general (paper +16%)",
		gSMO4 >= 8,
		fmt.Sprintf("measured +%.1f points", gSMO4))

	gSMO2 := perf["2HPC-Boosted-SMO"] - perf["8HPC-SMO"]
	check("SMO: 2HPC-Boosted >> 8HPC general (paper +17%)",
		gSMO2 >= 4,
		fmt.Sprintf("measured +%.1f points", gSMO2))

	// Claim 3 (§4.3): REPTree 2HPC-Boosted improves ~11% over the 8HPC
	// general model.
	gRT := perf["2HPC-Boosted-REPTree"] - perf["8HPC-REPTree"]
	check("REPTree: 2HPC-Boosted > 8HPC general (paper +11%)",
		gRT >= 2,
		fmt.Sprintf("measured +%.1f points", gRT))

	// Claim 4 (§4.3): JRip 4HPC-Boosted ~ +10% over 8HPC general.
	gJR := perf["4HPC-Boosted-JRip"] - perf["8HPC-JRip"]
	check("JRip: 4HPC-Boosted > 8HPC general (paper +10%)",
		gJR >= 2,
		fmt.Sprintf("measured +%.1f points", gJR))

	// Claim 5 (§4.1): OneR accuracy is (nearly) flat across HPC
	// budgets.
	spread := 0.0
	for _, k := range []string{"16HPC-OneR", "8HPC-OneR", "4HPC-OneR", "2HPC-OneR"} {
		d := acc[k] - acc["16HPC-OneR"]
		if d < 0 {
			d = -d
		}
		if d > spread {
			spread = d
		}
	}
	check("OneR accuracy flat across HPC budgets",
		spread <= 5,
		fmt.Sprintf("max spread %.1f points", spread))

	// Claim 6 (§4.1): REPTree with 2HPC+AdaBoost approaches its 16HPC
	// accuracy.
	dRT := acc["16HPC-REPTree"] - acc["2HPC-Boosted-REPTree"]
	check("REPTree: 2HPC-Boosted accuracy ~ 16HPC general (paper: equal)",
		dRT <= 8,
		fmt.Sprintf("gap %.1f points", dRT))

	// Claim 7 (§4.2): boosting repairs the AUC of hard-output models
	// with few HPCs (SMO/JRip at 2HPC).
	check("JRip: 2HPC-Boosted AUC > 2HPC general AUC (paper 0.81->0.93)",
		auc["2HPC-Boosted-JRip"] > auc["2HPC-JRip"],
		fmt.Sprintf("%.2f -> %.2f", auc["2HPC-JRip"], auc["2HPC-Boosted-JRip"]))
	check("SMO: 4HPC-Boosted AUC > 4HPC general AUC (paper 0.65->0.88)",
		auc["4HPC-Boosted-SMO"] > auc["4HPC-SMO"],
		fmt.Sprintf("%.2f -> %.2f", auc["4HPC-SMO"], auc["4HPC-Boosted-SMO"]))

	// Claim 8: accuracy degrades from 16 to 2 HPCs for the
	// feature-hungry classifiers (the trade-off motivating the paper).
	deg := 0
	for _, name := range []string{"J48", "JRip", "MLP", "SGD", "SMO", "REPTree"} {
		if acc["16HPC-"+name] > acc["2HPC-"+name] {
			deg++
		}
	}
	check("accuracy degrades 16->2 HPCs for most general classifiers",
		deg >= 4,
		fmt.Sprintf("%d/6 classifiers degrade", deg))

	return nil
}
