package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: which
// metrics the one-line result carries, and their regression bounds.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// benchmark runs from there or from its own directory.
func loadSpec() (*benchSpec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("reading BENCHMARK.json: %w", lastErr)
}

// envBlock records where and how a result was measured.
type envBlock struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Runs       int    `json:"runs"`
	Date       string `json:"date"`
	// Phases is each workload's timeline in seconds: load before the
	// window, the measured window, and load after it.
	Phases map[string]phaseDurations `json:"phases"`
}

type phaseDurations struct {
	WarmupS float64 `json:"warmup_s"`
	WindowS float64 `json:"window_s"`
	TailS   float64 `json:"tail_s"`
}

func newEnv(seed uint64, window time.Duration, runs int, ws []workload) envBlock {
	phases := make(map[string]phaseDurations, len(ws))
	for _, w := range ws {
		tail := time.Duration(loadTail)
		if w.wire {
			tail = 0 // sessions started in the window run to their end
		}
		phases[w.name] = phaseDurations{WarmupS: w.warmup.Seconds(), WindowS: window.Seconds(), TailS: tail.Seconds()}
	}
	return envBlock{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Commit:     commit(),
		Seed:       seed,
		Runs:       runs,
		Phases:     phases,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the toolchain stamped into the binary
// ("unknown" when built outside a checkout).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// stat summarises one metric over repeated runs.
type stat struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env     envBlock                   `json:"env"`
	Runs    []*result                  `json:"runs"`
	Summary map[string]map[string]stat `json:"summary"`
}

func summarize(runs []*result) map[string]map[string]stat {
	vals := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]map[string]stat{}
	for w, byName := range vals {
		out[w] = map[string]stat{}
		for name, xs := range byName {
			q1, med, q3 := quartiles(xs)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, x := range xs {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			out[w][name] = stat{Unit: units[name], N: len(xs), Median: med, Q1: q1, Q3: q3, Min: lo, Max: hi}
		}
	}
	return out
}

func writeResultFile(path string, f *resultFile) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Summary) == 0 {
		return nil, fmt.Errorf("%s: no summary", path)
	}
	return &f, nil
}

// compareVerdict judges one workload × end-to-end metric: the change's
// median against the parent's, by the metric's bound (a share of the
// parent's median). A parent whose own quartile spread exceeds the
// bound cannot resolve the change either way.
func compareVerdict(m specMetric, parent, change stat) string {
	if parent.Median == 0 {
		return "unresolved"
	}
	if (parent.Q3-parent.Q1)/math.Abs(parent.Median) > m.Bound {
		return "unresolved"
	}
	rel := (change.Median - parent.Median) / math.Abs(parent.Median)
	if m.Better == "higher" {
		rel = -rel
	}
	switch {
	case rel > m.Bound:
		return "worse"
	case rel < -m.Bound:
		return "better"
	}
	return "within bound"
}

// compare prints one row per workload × end-to-end metric.
func compare(w io.Writer, spec *benchSpec, parentPath, changePath string) error {
	parent, err := readResultFile(parentPath)
	if err != nil {
		return err
	}
	change, err := readResultFile(changePath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(parent.Summary))
	for name := range parent.Summary {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-26s %12s %12s %8s %6s  %s\n", "workload", "metric", "parent", "change", "delta", "bound", "verdict")
	worse := false
	for _, wl := range names {
		cs, ok := change.Summary[wl]
		if !ok {
			continue
		}
		for _, m := range spec.EndToEnd {
			p, okp := parent.Summary[wl][m.Name]
			c, okc := cs[m.Name]
			if !okp || !okc {
				continue
			}
			v := compareVerdict(m, p, c)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-16s %-26s %12.4g %12.4g %+7.1f%% %5.0f%%  %s\n", wl, m.Name, p.Median, c.Median,
				100*ratio(c.Median-p.Median, math.Abs(p.Median)), 100*m.Bound, v)
		}
	}
	if worse {
		return errors.New("at least one metric is worse than its bound")
	}
	return nil
}
