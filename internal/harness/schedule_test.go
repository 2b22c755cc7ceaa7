package harness

import (
	"context"
	"reflect"
	"testing"

	"repro"
)

// scheduleScenarios mixes seeded and deterministic families, registry
// algorithms and instance sizes, so a worker pool interleaves trials of
// every shape. The last scenario has the shapes of the scale suite's quick
// overlay: Decay on the physical channel over star, grid and tree at
// n = 4096 and G(n,p) at 2048.
func scheduleScenarios() []*Scenario {
	return []*Scenario{
		{
			Name:      "schedule-decay",
			Algo:      AlgoDecay,
			Cost:      0,
			Trials:    3,
			Passes:    4,
			Instances: []Instance{{Family: "tree", N: 96}, {Family: "grid", N: 256}, {Family: "tree", N: 300}},
		},
		{
			Name:      "schedule-recursive",
			Trials:    2,
			Instances: []Instance{{Family: "cycle", N: 128, MaxDist: 32}, {Family: "gnp", N: 200, MaxDist: 16}},
		},
		{
			Name:   "schedule-scale-quick",
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

// bigStar is a Decay scenario on a star just above DefaultShardMinN, the
// instance size of the benchmark's scale-physics workload: every Decay slot
// has about n listeners.
func bigStar(trials int) *Scenario {
	return &Scenario{
		Name:      "schedule-big-star",
		Algo:      AlgoDecay,
		Trials:    trials,
		Passes:    2,
		Instances: []Instance{{Family: "star", N: DefaultShardMinN + 1, MaxDist: 2}},
	}
}

// runSequential runs the scenarios on one worker and requires every trial
// to succeed: the reference the other schedules must reproduce.
func runSequential(t *testing.T, scenarios ...*Scenario) []Result {
	t.Helper()
	results := (&Runner{Workers: 1, Root: 5}).Run(scenarios...)
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("trial %s/%s/n=%d failed: %s", r.Scenario, r.Family, r.N, r.Err)
		}
	}
	return results
}

// TestWorkerPoolMatchesSequential pins the Runner's worker pool to the
// determinism contract on a mix of seeded and deterministic families and
// sizes: Workers 2 and 4 reproduce sequential execution exactly.
func TestWorkerPoolMatchesSequential(t *testing.T) {
	sequential := runSequential(t, scheduleScenarios()...)
	for _, workers := range []int{2, 4} {
		got := (&Runner{Workers: workers, Root: 5}).Run(scheduleScenarios()...)
		if !reflect.DeepEqual(got, sequential) {
			t.Fatalf("workers=%d: results diverge from sequential execution", workers)
		}
	}
}

// TestStreamMatchesRunnerOnBigInstance drives a big instance through the
// dist worker's schedule: a Stream runs the n = 2¹⁷+1 star Decay trial on
// its one pooled Context and must emit exactly the Runner's result.
func TestStreamMatchesRunnerOnBigInstance(t *testing.T) {
	want := runSequential(t, bigStar(1))
	st := (&Runner{Root: 5}).Stream(bigStar(1))
	var got []Result
	if err := st.RunRange(context.Background(), 0, len(st.Trials()), nil,
		func(_ TrialRef, res Result) { got = append(got, res) }); err != nil {
		t.Fatalf("RunRange: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Stream result diverges from the Runner's: %+v vs %+v", got, want)
	}
}

// TestBigInstancesRunTrialParallel pins the Runner's one schedule for big
// instances: they go through the same worker pool as every other trial, so
// with Workers > 1 two star trials above DefaultShardMinN are resident at
// once, each on its own pooled Context, and Workers 2 and 4 reproduce
// sequential execution exactly.
func TestBigInstancesRunTrialParallel(t *testing.T) {
	sequential := runSequential(t, bigStar(2))
	for _, workers := range []int{2, 4} {
		got := (&Runner{Workers: workers, Root: 5}).Run(bigStar(2))
		if !reflect.DeepEqual(got, sequential) {
			t.Fatalf("workers=%d: results diverge from sequential execution", workers)
		}
	}
}
