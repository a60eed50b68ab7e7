// Command bench is the repository's benchmark: an open-loop load at the
// paper's 10 ms cadence driving the shipped serving path — fleet.Engine
// through the source.Queued contract, and ingest.Server over loopback
// TCP — configured exactly as hmd-serve -ingest configures it from its
// default flags. It reports the end-to-end cost of a delivered verdict
// and, traced, where each layer spends it.
//
//	go run . [-workload name|all] [-seed N] [-seconds S] [-runs k] [-trace] [-out file.json]
//	go run . -compare parent.json change.json
//
// Every metric prints as "workload metric value unit". A single run's
// last line is one JSON object: correct, attempted, failed and the
// BENCHMARK.json metrics (end-to-end untraced, per-layer traced).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// normalizeArgs lets -trace take a separate 0/1 operand ("--trace 1")
// as well as the bare boolean form ("-trace").
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if b, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+strconv.FormatBool(b))
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed for phases, sample values and lifetimes")
	seconds := fs.Float64("seconds", 10, "measured window per run, in seconds")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics, span file, microbenchmarks")
	runs := fs.Int("runs", 1, "runs per workload (same seed); reports median, quartiles, min, max")
	outPath := fs.String("out", "", "write every run, the environment and the summary to this JSON file")
	parent := fs.String("compare", "", "compare this parent result file with the change's file given as the argument")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *parent != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: -compare parent.json change.json")
			return 2
		}
		if err := compare(stdout, spec, *parent, fs.Arg(0)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *runs < 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -runs must be >= 1 and -seconds > 0")
		return 2
	}

	if len(selected) == 1 && *runs == 1 {
		w := selected[0]
		cfg := defaultConfig(w, *seed)
		cfg.trace = *trace
		cfg.window = time.Duration(*seconds * float64(time.Second))
		if cfg.trace {
			cfg.setups = 1 // setup_s is an end-to-end metric, reported untraced
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(stdout, res)
		if *outPath != "" {
			f := &resultFile{Env: newEnv(*seed, cfg.window, 1, selected), Runs: []*result{res}, Summary: summarize([]*result{res})}
			if err := writeResultFile(*outPath, f); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		line, err := resultLine(spec, res)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
		if !res.Correct {
			return 1
		}
		return 0
	}

	// Several runs: each in its own process, so peak RSS and the heap
	// belong to one workload.
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_build", "runs-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	var all []*result
	code := 0
	for _, w := range selected {
		for i := 0; i < *runs; i++ {
			part := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.name, i))
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(*seed, 10),
				"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
				"-trace="+strconv.FormatBool(*trace), "-out", part)
			cmd.Stderr = stderr
			cmd.Stdout = io.Discard
			fmt.Fprintf(stderr, "bench: %s run %d/%d\n", w.name, i+1, *runs)
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s run %d: %v\n", w.name, i+1, err)
				code = 1
			}
			f, err := readResultFile(part)
			if err != nil {
				code = 1
				continue
			}
			for _, r := range f.Runs {
				printResult(stdout, r)
				all = append(all, r)
			}
		}
	}
	f := &resultFile{Env: newEnv(*seed, time.Duration(*seconds*float64(time.Second)), *runs, selected), Runs: all, Summary: summarize(all)}
	printSummary(stdout, spec, f.Summary, *trace)
	if *outPath != "" {
		if err := writeResultFile(*outPath, f); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

func runWorkload(w workload, cfg runConfig) (*result, error) {
	if w.wire {
		return runWire(w, cfg)
	}
	return runFleet(w, cfg)
}

// printResult prints every metric as "workload metric value unit",
// then the traced breakdown table and any problems.
func printResult(w io.Writer, r *result) {
	for _, n := range r.names() {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Fprintf(w, "%s attempted %d samples\n%s failed %d samples\n%s correct %v\n%s valid %v\n",
		r.Workload, r.Attempted, r.Workload, r.Failed, r.Workload, r.Correct, r.Workload, r.Valid)
	if len(r.Breakdown) > 0 {
		fmt.Fprintf(w, "%s per-layer self time (traced samples):\n", r.Workload)
		for _, row := range r.Breakdown {
			fmt.Fprintf(w, "  %-18s %10.3f ms %6.1f%%\n", row.Layer, row.MeanMs, 100*row.Share)
		}
		if o, ok := r.Metrics["trace.overhead_us_per_verdict"]; ok {
			fmt.Fprintf(w, "  tracing overhead: %+.3f us CPU per verdict over the untraced half\n", o.Value)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%s PROBLEM %s\n", r.Workload, p)
	}
	if !r.Valid {
		fmt.Fprintf(w, "%s INVALID: load generator lateness p99 above 1 ms\n", r.Workload)
	}
}

// printSummary prints median, quartiles, min and max of every
// BENCHMARK.json metric the runs measured.
func printSummary(w io.Writer, spec *benchSpec, sum map[string]map[string]stat, traced bool) {
	metrics := spec.EndToEnd
	if traced {
		metrics = spec.PerLayer
	}
	fmt.Fprintf(w, "%-16s %-34s %4s %12s %12s %12s %12s %12s\n", "workload", "metric", "n", "median", "q1", "q3", "min", "max")
	for _, wl := range workloads {
		byName, ok := sum[wl.name]
		if !ok {
			continue
		}
		for _, m := range metrics {
			s, ok := byName[m.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-16s %-34s %4d %12.5g %12.5g %12.5g %12.5g %12.5g %s\n",
				wl.name, m.Name, s.N, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.Unit)
		}
	}
}

// resultLine is the single-run result line: exactly the BENCHMARK.json
// end-to-end metrics (untraced) or per-layer metrics (traced).
func resultLine(spec *benchSpec, r *result) (string, error) {
	want := spec.EndToEnd
	if r.Trace {
		want = spec.PerLayer
	}
	metrics := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", r.Workload, m.Name)
		}
		if v.Unit != m.Unit {
			return "", fmt.Errorf("%s: metric %s measured in %s, BENCHMARK.json says %s", r.Workload, m.Name, v.Unit, m.Unit)
		}
		metrics[m.Name] = v
	}
	if r.Attempted < 1 {
		return "", errors.New(r.Workload + ": no sample was due in the window")
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(b), err
}
