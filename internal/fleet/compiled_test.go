package fleet

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/micro"
	"repro/internal/mlearn/zoo"
	"repro/internal/supervise"
	"repro/internal/workload"
)

var (
	trainedChainOnce sync.Once
	trainedChain     *core.FallbackChain
	trainedChainErr  error
)

// trainedTestChain trains one real (compilable) REPTree fallback chain
// for the compiled-path fleet tests. The stub chains used elsewhere in
// this package never compile — their fixed-score models are not in the
// compiler's type switch — so exercising the compiled engine needs a
// trained template.
func trainedTestChain(t *testing.T) *core.FallbackChain {
	t.Helper()
	trainedChainOnce.Do(func() {
		cfg := collect.Small()
		cfg.Suite.AppsPerFamily = 4
		cfg.Intervals = 10
		res, err := collect.Collect(cfg)
		if err != nil {
			trainedChainErr = err
			return
		}
		b, err := core.NewBuilder(res.Data, 0.7, 1)
		if err != nil {
			trainedChainErr = err
			return
		}
		trainedChain, trainedChainErr = b.BuildChain("REPTree", zoo.General,
			[]int{4, 2}, core.ChainConfig{Window: 3, BadAfter: 3})
	})
	if trainedChainErr != nil {
		t.Fatal(trainedChainErr)
	}
	return trainedChain
}

// TestFleetCompiledMatchesInterpreted is the golden test for the
// compiled fast path at fleet scale: the same fault-injected stream
// population, run once through the default (compiled) engine and once
// with Config.Interpreted pinning every shard batcher to the
// interpreted model, must produce bit-identical verdict streams —
// through dropped samples, breaker trips and chain stepdowns.
func TestFleetCompiledMatchesInterpreted(t *testing.T) {
	const n = 50
	const streams = 6
	tmpl := trainedTestChain(t)
	plan := &faults.Plan{Seed: 0xC0FFEE, Rate: 0.3}
	brCfg := supervise.BreakerConfig{FailAfter: 2, Cooldown: 3}
	apps := workload.Suite(workload.SuiteConfig{Seed: 0xBEEF, AppsPerFamily: 2})

	srcCfg := func(i int) supervise.MachineSourceConfig {
		app := apps[i%len(apps)]
		return supervise.MachineSourceConfig{
			Machine:     micro.FastConfig(),
			Run:         app.NewRun(0),
			Events:      tmpl.Events(),
			Total:       n,
			CycleBudget: 4000,
			Plan:        plan,
			Scope:       fmt.Sprintf("%s/stream%d", app.Name, i),
		}
	}

	run := func(tier core.Tier) [][]core.Verdict {
		// Not newTestEngine: that helper installs the stub-chain factory
		// when NewChain is nil, and this test needs the trained template.
		e, err := New(Config{
			Chain:      tmpl,
			Shards:     3,
			WheelSlots: 4,
			Policy:     supervise.Block,
			Breaker:    brCfg,
			Tier:       tier,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*collector, streams)
		for i := 0; i < streams; i++ {
			src, err := supervise.NewMachineSource(srcCfg(i))
			if err != nil {
				t.Fatal(err)
			}
			got[i] = &collector{}
			if err := e.Add(StreamConfig{
				ID:        fmt.Sprintf("s%d", i),
				Source:    src,
				Intervals: n,
				OnVerdict: got[i].add,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		snap := e.Stats(false)
		for si, sh := range snap.Shards {
			want := tmpl.Stages()
			if tier == core.TierInterpreted {
				want = 0
			}
			if sh.CompiledStages != want {
				t.Fatalf("tier %v shard %d: CompiledStages = %d, want %d",
					tier, si, sh.CompiledStages, want)
			}
		}
		out := make([][]core.Verdict, streams)
		for i := range got {
			requireGapFree(t, fmt.Sprintf("s%d", i), got[i].verdicts, n, 0)
			out[i] = got[i].verdicts
		}
		return out
	}

	compiledV := run(core.TierCompiled)
	interpretedV := run(core.TierInterpreted)
	for i := 0; i < streams; i++ {
		for k := 0; k < n; k++ {
			c, iv := compiledV[i][k], interpretedV[i][k]
			if c.Interval != iv.Interval || c.Malware != iv.Malware ||
				math.Float64bits(c.Score) != math.Float64bits(iv.Score) {
				t.Fatalf("stream s%d verdict %d: compiled %+v != interpreted %+v", i, k, c, iv)
			}
		}
	}
}

// TestFleetQuantizedObservability pins the operator-facing tier
// telemetry: a fleet running Config.Tier = core.TierQuantized must say
// so in its snapshot (engine Tier plus per-shard QuantizedStages for
// every stage of the all-tree chain, which quantizes fully), and the
// default engine must report zero quantized stages — so /stats can
// always answer "which lowering is actually serving".
func TestFleetQuantizedObservability(t *testing.T) {
	const n = 12
	const streams = 4
	tmpl := trainedTestChain(t)

	run := func(tier core.Tier) Snapshot {
		e, err := New(Config{
			Chain:  tmpl,
			Shards: 2,
			Policy: supervise.Block,
			Tier:   tier,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < streams; i++ {
			src, err := supervise.NewMachineSource(supervise.MachineSourceConfig{
				Machine:     micro.FastConfig(),
				Run:         workload.Suite(workload.SuiteConfig{Seed: 7, AppsPerFamily: 1})[0].NewRun(0),
				Events:      tmpl.Events(),
				Total:       n,
				CycleBudget: 4000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Add(StreamConfig{
				ID:        fmt.Sprintf("s%d", i),
				Source:    src,
				Intervals: n,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return e.Stats(false)
	}

	qsnap := run(core.TierQuantized)
	if qsnap.Tier != core.TierQuantized.String() {
		t.Fatalf("quantized fleet snapshot Tier = %q, want %q", qsnap.Tier, core.TierQuantized.String())
	}
	for i, sh := range qsnap.Shards {
		if sh.QuantizedStages != tmpl.Stages() {
			t.Errorf("shard %d: QuantizedStages = %d, want %d (all-tree chain quantizes fully)",
				i, sh.QuantizedStages, tmpl.Stages())
		}
		if sh.CompiledStages != tmpl.Stages() {
			t.Errorf("shard %d: CompiledStages = %d, want %d (quantized stages count as lowered)",
				i, sh.CompiledStages, tmpl.Stages())
		}
	}

	csnap := run(core.TierCompiled)
	if csnap.Tier != core.TierCompiled.String() {
		t.Fatalf("default fleet snapshot Tier = %q, want %q", csnap.Tier, core.TierCompiled.String())
	}
	for i, sh := range csnap.Shards {
		if sh.QuantizedStages != 0 {
			t.Errorf("shard %d: QuantizedStages = %d on the compiled tier, want 0", i, sh.QuantizedStages)
		}
	}
}
