package main

import (
	"encoding/json"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload briefly, traced, at 256 streams
// (the wire workload with 10-sample sessions) and checks that each
// BENCHMARK.json metric is measured with its unit, that the one-line
// result carries exactly those keys, and that the correctness gate
// compared verdicts against the reference.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	data, err := collectCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := defaultConfig(w, 7)
			cfg.trace = true
			cfg.window = 500 * time.Millisecond
			cfg.warmup = 200 * time.Millisecond
			cfg.streams = 256
			cfg.setups = 1
			cfg.session = 10
			cfg.micro = 5 * time.Millisecond
			cfg.probeWarm, cfg.probeWindow = 100*time.Millisecond, 200*time.Millisecond
			cfg.workDir = t.TempDir()
			cfg.data = data
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("correctness gate failed: %v", res.Problems)
			}
			if res.Checked == 0 {
				t.Fatal("the correctness gate compared no verdicts")
			}
			if res.Attempted == 0 {
				t.Fatal("no sample was due in the window")
			}
			for _, m := range append(append([]specMetric{}, spec.EndToEnd...), spec.PerLayer...) {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("metric %s not measured", m.Name)
				case got.Unit != m.Unit:
					t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
				}
			}
			for _, traced := range []bool{false, true} {
				res.Trace = traced
				line, err := resultLine(spec, res)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct   *bool             `json:"correct"`
					Attempted *int64            `json:"attempted"`
					Failed    *int64            `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatal(err)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if out.Correct == nil || out.Attempted == nil || out.Failed == nil || len(out.Metrics) != len(want) {
					t.Errorf("result line %s lacks keys or has %d metrics, want %d", line, len(out.Metrics), len(want))
				}
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) (exclusive method), the rule the
// benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

// TestHistQuantile checks the interpolated histogram readout against
// exact quantiles of a known distribution.
func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v * 1000)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100_000 * 1000
		if got := h.quantile(q); got < want*0.996 || got > want*1.004 {
			t.Errorf("quantile(%v) = %v, want %v within 0.4%%", q, got, want)
		}
	}
}
