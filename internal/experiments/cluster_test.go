package experiments

import (
	"strings"
	"testing"
)

// TestClusterChaos is the acceptance drill for the multi-node plane:
// three in-process serving nodes behind a coordinator, a scripted node
// crash (lease-expiry failover), a coordinator partition, and a full
// rolling upgrade — with every verdict timeline bit-identical to an
// unbroken single-node reference. scripts/check.sh runs it in -short
// mode as the smoke gate.
func TestClusterChaos(t *testing.T) {
	ctx := testContext(t)
	cfg := ClusterChaosConfig{Seed: 0xC1A0}
	if testing.Short() {
		cfg.Streams = 3
		cfg.Intervals = 24
	}
	res, err := ctx.ClusterChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BitIdentical {
		t.Error("cluster verdicts diverge from the single-node reference")
	}
	if !res.CoverageOK {
		t.Error("a stream's echo coverage exceeded the crash budget")
	}
	if res.LeaseExpiries < 2 {
		t.Errorf("lease expiries %d, want >= 2 (crash + partition)", res.LeaseExpiries)
	}
	if res.FailoverHandoffs == 0 || res.DrainHandoffs == 0 {
		t.Errorf("handoffs failover=%d drain=%d, want both > 0", res.FailoverHandoffs, res.DrainHandoffs)
	}
	if !res.EveryStreamMoved {
		t.Error("a stream never changed hands despite the rolling upgrade")
	}
	if res.RollsCompleted != res.Nodes {
		t.Errorf("rolling upgrade completed %d/%d nodes", res.RollsCompleted, res.Nodes)
	}
	if res.Redirects == 0 {
		t.Error("no client was ever redirected to a stream's owner")
	}
	if res.Reconnects < len(res.Streams)+1 {
		t.Errorf("reconnects %d, want >= %d (crash + rolling upgrade)", res.Reconnects, len(res.Streams)+1)
	}
	if !res.AccountingExact {
		t.Error("a graceful incarnation's accounting leaked")
	}
	if !res.KilledLossBounded {
		t.Error("the crashed node lost more than its in-flight window")
	}
	if !res.MembershipHealed {
		t.Error("final membership not back to full strength")
	}
	if !res.Passed() {
		t.Errorf("cluster chaos drill failed: %+v", res)
	}

	out := RenderClusterChaos(res)
	for _, want := range []string{"Cluster chaos drill", "[PASS]", "bit-identical", "rolling upgrade"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderClusterChaos output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "[FAIL]") {
		t.Errorf("RenderClusterChaos reports failures:\n%s", out)
	}
}

func TestClusterChaosRejectsBadConfigs(t *testing.T) {
	ctx := testContext(t)
	if _, err := ctx.ClusterChaos(ClusterChaosConfig{Nodes: 1}); err == nil {
		t.Error("single-node cluster accepted")
	}
	if _, err := ctx.ClusterChaos(ClusterChaosConfig{Intervals: 10}); err == nil {
		t.Error("non-quarterable interval count accepted")
	}
}

// TestClusterBenchSmoke stands up a 3-process cluster and pushes one
// windowed workload through it — the scripts/check.sh bench gate.
func TestClusterBenchSmoke(t *testing.T) {
	ctx := testContext(t)
	rep, err := ctx.ClusterBench(ClusterBenchConfig{
		NodeCounts:     []int{3},
		StreamsPerNode: 2,
		Samples:        40,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 1 {
		t.Fatalf("points: %+v", rep.Points)
	}
	pt := rep.Points[0]
	if pt.Nodes != 3 || pt.Streams != 6 || pt.Samples != 40 {
		t.Fatalf("unexpected shape: %+v", pt)
	}
	if pt.IntervalsPerSec <= 0 {
		t.Fatalf("no throughput measured: %+v", pt)
	}
	out := RenderCluster(rep)
	if !strings.Contains(out, "Cluster scaling sweep") || !strings.Contains(out, "intervals/s") {
		t.Errorf("RenderCluster output malformed:\n%s", out)
	}
}
