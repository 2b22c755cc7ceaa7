package harness

import (
	"reflect"
	"testing"

	"repro"
)

// withBigInstanceN sets the big-instance threshold to n for the rest of a test;
// the returned func restores it.
func withBigInstanceN(n int) (restore func()) {
	old := bigInstanceN
	bigInstanceN = n
	return func() { bigInstanceN = old }
}

// shardPolicyScenarios mixes seeded and deterministic families around a size
// boundary, so a low threshold splits the trial list into both scheduling
// classes. The last scenario has the shapes of the scale suite's quick
// overlay: Decay on the physical channel over star, grid and tree at
// n = 4096 and G(n,p) at 2048.
func shardPolicyScenarios() []*Scenario {
	return []*Scenario{
		{
			Name:      "shard-policy-decay",
			Algo:      AlgoDecay,
			Cost:      0,
			Trials:    3,
			Passes:    4,
			Instances: []Instance{{Family: "tree", N: 96}, {Family: "grid", N: 256}, {Family: "tree", N: 300}},
		},
		{
			Name:      "shard-policy-recursive",
			Trials:    2,
			Instances: []Instance{{Family: "cycle", N: 128, MaxDist: 32}, {Family: "gnp", N: 200, MaxDist: 16}},
		},
		{
			Name:   "shard-policy-scale-quick",
			Algo:   AlgoDecay,
			Cost:   repro.CostPhysical,
			Passes: 2,
			Instances: []Instance{
				{Family: "star", N: 4096, MaxDist: 4},
				{Family: "grid", N: 4096, MaxDist: 16},
				{Family: "tree", N: 4096, MaxDist: 10},
				{Family: "gnp", N: 2048, MaxDist: 8},
			},
		},
	}
}

// TestShardSchedulingMatchesTrialParallel pins the Runner's scheduling
// policy to the determinism contract: routing big instances through the
// intra-trial sharded path (one at a time, engine sharded over the pool)
// must produce byte-identical results to plain sequential execution and to
// trial-parallel execution.
func TestShardSchedulingMatchesTrialParallel(t *testing.T) {
	sequential := (&Runner{Workers: 1, Root: 5}).Run(shardPolicyScenarios()...)
	for _, r := range sequential {
		if r.Err != "" {
			t.Fatalf("trial %s/%s/n=%d failed: %s", r.Scenario, r.Family, r.N, r.Err)
		}
	}
	cases := []struct{ workers, minN int }{
		{4, DefaultShardMinN}, // default threshold: all trials small
		{4, 1000},             // the scale-suite shapes take the sharded path
		{4, 200},              // so do n = 200, 256, 300
		{4, 1},                // every trial takes the sharded path
		{2, 200},
	}
	for _, tc := range cases {
		restore := withBigInstanceN(tc.minN)
		got := (&Runner{Workers: tc.workers, Root: 5}).Run(shardPolicyScenarios()...)
		restore()
		if !reflect.DeepEqual(got, sequential) {
			t.Fatalf("workers=%d big-instance threshold %d: results diverge from sequential execution", tc.workers, tc.minN)
		}
	}
}

// TestShardSchedulingExecutesShardedSteps drives the sharded executor
// through the full harness stack, not just the scheduling bookkeeping: a
// star at n = 2¹⁷+1 is above DefaultShardMinN (so a Workers > 1 runner
// takes the intra-trial path with no overrides) and every Decay slot has
// ~n listeners — double the radio engine's 2¹⁶ step-activity threshold —
// so the physical steps genuinely dispatch to stepSharded over the pooled,
// Reset engine. Results must equal sequential execution exactly. This is
// the test the CI race job leans on for harness-level shard coverage; the
// small-instance tests above never cross the activity threshold.
func TestShardSchedulingExecutesShardedSteps(t *testing.T) {
	sc := func() *Scenario {
		return &Scenario{
			Name:      "shard-dispatch",
			Algo:      AlgoDecay,
			Passes:    2,
			Instances: []Instance{{Family: "star", N: 1<<17 + 1, MaxDist: 2}},
		}
	}
	want := (&Runner{Workers: 1, Root: 3}).Run(sc())
	if want[0].Err != "" {
		t.Fatalf("trial failed: %s", want[0].Err)
	}
	got := (&Runner{Workers: 4, Root: 3}).Run(sc())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded-step execution diverges from sequential: %+v vs %+v", got, want)
	}
}

// TestRunnerSingleBigTrialStaysSharded checks the pool-size bookkeeping: a
// run consisting of one big trial must not fall back to the one-worker
// sequential path (which would leave the engine unsharded), and still
// matches the sequential result.
func TestRunnerSingleBigTrialStaysSharded(t *testing.T) {
	sc := func() *Scenario {
		return &Scenario{
			Name:      "one-big",
			Algo:      AlgoDecay,
			Passes:    3,
			Instances: []Instance{{Family: "tree", N: 400, MaxDist: 40}},
		}
	}
	want := (&Runner{Workers: 1, Root: 9}).Run(sc())
	defer withBigInstanceN(100)()
	got := (&Runner{Workers: 4, Root: 9}).Run(sc())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("single big trial diverges: %+v vs %+v", got, want)
	}
	if want[0].Err != "" {
		t.Fatalf("trial failed: %s", want[0].Err)
	}
}
