package experiments

import (
	"strings"
	"testing"

	"repro/internal/faults"
)

func ingestChaosConfig(t *testing.T) IngestChaosConfig {
	t.Helper()
	return IngestChaosConfig{
		Streams:       3,
		Intervals:     30,
		Plan:          faults.WirePlan{Seed: 0x16E57, Rate: 0.25},
		CheckpointDir: t.TempDir(),
	}
}

// TestIngestChaos is the acceptance drill for the network front door:
// real loopback clients, seeded wire damage, a crashing client, a quota
// storm, and a mid-run drain/restart. scripts/check.sh runs it in
// -short mode as the smoke gate.
func TestIngestChaos(t *testing.T) {
	ctx := testContext(t)
	cfg := ingestChaosConfig(t)
	if testing.Short() {
		cfg.Streams = 2
		cfg.Intervals = 20
	}
	res, err := ctx.IngestChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GapFree {
		t.Error("verdict timelines have gaps under wire faults")
	}
	if !res.BitIdentical {
		t.Error("echoed verdicts diverge from the reference chain")
	}
	if !res.ResumeOK {
		t.Error("a reconnect was not resumed at the server's position")
	}
	if !res.DrainRefused {
		t.Error("admission during drain was not refused with DRAIN")
	}
	if !res.AccountingExact {
		t.Error("sample/verdict accounting leaked")
	}
	if res.QuotaRejections == 0 {
		t.Error("quota storm produced no RETRY rejections")
	}
	if res.WireErrors == 0 || res.Reattaches == 0 {
		t.Errorf("wire errors=%d reattaches=%d, want both > 0", res.WireErrors, res.Reattaches)
	}
	if !res.Deterministic {
		t.Error("identical seeds did not reproduce identical echoed verdicts")
	}
	if !res.Passed() {
		t.Errorf("ingest chaos drill failed: %+v", res)
	}

	out := RenderIngestChaos(res)
	for _, want := range []string{"Ingest chaos drill", "[PASS]", "gap-free", "DRAIN"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderIngestChaos output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "[FAIL]") {
		t.Errorf("RenderIngestChaos reports failures:\n%s", out)
	}
}

func TestIngestChaosRejectsInertPlans(t *testing.T) {
	ctx := testContext(t)
	cfg := ingestChaosConfig(t)
	cfg.Plan.Rate = 0
	if _, err := ctx.IngestChaos(cfg); err == nil {
		t.Error("inactive wire plan accepted")
	}
	cfg = ingestChaosConfig(t)
	cfg.Plan.Kinds = []faults.WireKind{faults.DelayFrame}
	if _, err := ctx.IngestChaos(cfg); err == nil {
		t.Error("truncate-free wire plan accepted")
	}
	cfg = ingestChaosConfig(t)
	cfg.CheckpointDir = ""
	if _, err := ctx.IngestChaos(cfg); err == nil {
		t.Error("missing checkpoint dir accepted")
	}
	cfg = ingestChaosConfig(t)
	cfg.Intervals = 7
	if _, err := ctx.IngestChaos(cfg); err == nil {
		t.Error("odd interval count accepted")
	}
}

// TestIngestBenchSmoke runs a tiny overload point end to end: the sweep
// must keep exact accounting and actually shed when offered load is 4x
// the service rate with a small window.
func TestIngestBenchSmoke(t *testing.T) {
	ctx := testContext(t)
	rep, err := ctx.IngestBench(IngestBenchConfig{
		Streams:     2,
		Samples:     20,
		Window:      4,
		Multipliers: []float64{0.5, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points: %d", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.Accepted != int64(rep.Streams*rep.Samples) {
			t.Errorf("x%.1f: accepted %d, want %d", p.Multiplier, p.Accepted, rep.Streams*rep.Samples)
		}
		if p.Accepted != p.Attributed+p.Shed {
			t.Errorf("x%.1f: accounting leak: %d != %d + %d", p.Multiplier, p.Accepted, p.Attributed, p.Shed)
		}
	}
	if rep.Points[0].Shed != 0 {
		t.Errorf("underload point shed %d samples", rep.Points[0].Shed)
	}
	out := RenderIngest(rep)
	if !strings.Contains(out, "Ingest overload sweep") {
		t.Errorf("RenderIngest output:\n%s", out)
	}
}

// TestIngestChaosBatched reruns the chaos drill at full stream count
// even in -short mode, so both the clean and the crash role include
// Queue/Flush clients (odd stream indices send a whole segment as one
// multi-record SAMPLE_BATCH): every per-stream contract — gap-free timeline,
// bit-identical verdicts — must hold on those streams, across wire
// faults, reconnects and the checkpoint restart.
func TestIngestChaosBatched(t *testing.T) {
	ctx := testContext(t)
	cfg := ingestChaosConfig(t)
	if testing.Short() {
		cfg.Intervals = 20
	}
	res, err := ctx.IngestChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	roles := map[string]int{}
	for sid, s := range res.Streams {
		if sid%2 == 0 || (s.Role != "clean" && s.Role != "crash") {
			continue
		}
		roles[s.Role]++
		if !s.GapFree || !s.BitIdentical {
			t.Errorf("batched %s stream %s: gapfree=%v bitident=%v", s.Role, s.ID, s.GapFree, s.BitIdentical)
		}
	}
	if roles["clean"] == 0 || roles["crash"] == 0 {
		t.Errorf("drill ran no batched clean or crash stream: %v", roles)
	}
	if !res.Passed() {
		t.Errorf("batched ingest chaos drill failed: %+v", res)
	}
}
