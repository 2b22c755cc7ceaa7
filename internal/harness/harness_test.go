package harness

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro"
)

func TestCrossAndExpand(t *testing.T) {
	sc := &Scenario{
		Name: "x",
		Instances: Cross([]string{"cycle", "grid"}, []int{32, 64},
			func(_ string, n int) int { return n / 2 }),
		Trials: 3,
	}
	trials := Expand(sc, 1)
	if len(trials) != 2*2*3 {
		t.Fatalf("expanded %d trials, want 12", len(trials))
	}
	if trials[0].Family != "cycle" || trials[0].N != 32 || trials[0].MaxDist != 16 {
		t.Fatalf("unexpected first trial: %+v", trials[0])
	}
	seen := map[uint64]bool{}
	for _, tr := range trials {
		if seen[tr.Seed] {
			t.Fatalf("duplicate seed %d", tr.Seed)
		}
		seen[tr.Seed] = true
	}
}

func TestTrialSeedsStableUnderListChanges(t *testing.T) {
	// Seeds depend on trial coordinates, not list positions: extending the
	// instance list or trial count must not reseed existing trials.
	small := &Scenario{Name: "s", Instances: []Instance{{Family: "cycle", N: 64}}, Trials: 2}
	big := &Scenario{Name: "s", Instances: []Instance{{Family: "path", N: 32}, {Family: "cycle", N: 64}}, Trials: 5}
	a := TrialFor(small, small.Instances[0], 1, 9)
	b := TrialFor(big, big.Instances[1], 1, 9)
	if a.Seed != b.Seed {
		t.Fatalf("seed changed with list shape: %d vs %d", a.Seed, b.Seed)
	}
	if c := TrialFor(small, small.Instances[0], 1, 10); c.Seed == a.Seed {
		t.Fatal("root seed ignored")
	}
}

func TestBuiltinRecursive(t *testing.T) {
	sc := &Scenario{Name: "rec", Instances: []Instance{{Family: "cycle", N: 64}}, Algo: AlgoRecursive}
	res := Execute(sc, Expand(sc, 1)[0])
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if res.Metrics["mislabeled"] != 0 {
		t.Fatalf("mislabeled = %v", res.Metrics["mislabeled"])
	}
	if res.Metrics["maxLB"] <= 0 || res.Metrics["timeLB"] <= 0 {
		t.Fatalf("meters did not move: %v", res.Metrics)
	}
}

func TestBuiltinDecay(t *testing.T) {
	sc := &Scenario{Name: "dec", Instances: []Instance{{Family: "grid", N: 49}}, Algo: AlgoDecay}
	res := Execute(sc, Expand(sc, 1)[0])
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if res.Metrics["mislabeled"] != 0 || res.Metrics["physMax"] <= 0 {
		t.Fatalf("unexpected metrics: %v", res.Metrics)
	}
}

func TestBuiltinDiameterAndApplications(t *testing.T) {
	for _, algo := range []Algo{AlgoDiam2, AlgoDiam32} {
		sc := &Scenario{Name: string(algo), Instances: []Instance{{Family: "path", N: 40}}, Algo: algo}
		res := Execute(sc, Expand(sc, 1)[0])
		if res.Err != "" {
			t.Fatalf("%s: %s", algo, res.Err)
		}
		if res.Metrics["inBand"] != 1 {
			t.Fatalf("%s: estimate %v out of band (diam %v)", algo, res.Metrics["estimate"], res.Metrics["diam"])
		}
	}
	for _, algo := range []Algo{AlgoVerify, AlgoPoll, AlgoAlarm} {
		sc := &Scenario{Name: string(algo), Instances: []Instance{{Family: "grid", N: 36}}, Algo: algo}
		res := Execute(sc, Expand(sc, 1)[0])
		if res.Err != "" {
			t.Fatalf("%s: %s", algo, res.Err)
		}
	}
}

func TestBuiltinErrorsAreCaptured(t *testing.T) {
	sc := &Scenario{Name: "bad", Instances: []Instance{{Family: "bogus", N: 10}}, Algo: AlgoRecursive}
	res := Execute(sc, Expand(sc, 1)[0])
	if res.Err == "" {
		t.Fatal("unknown family did not error")
	}
	sc2 := &Scenario{Name: "bad2", Instances: []Instance{{Family: "cycle", N: 16}}, Algo: Algo("nope")}
	if res := Execute(sc2, Expand(sc2, 1)[0]); res.Err == "" {
		t.Fatal("unknown algorithm did not error")
	}
}

// dummyAlgo is a minimal external registry entry: the harness must be able
// to sweep it by name without any harness-side wiring.
type dummyAlgo struct{}

func (dummyAlgo) Name() string              { return "dummy-test" }
func (dummyAlgo) Doc() string               { return "test-only registry entry" }
func (dummyAlgo) Params() []repro.ParamSpec { return nil }
func (dummyAlgo) Run(_ context.Context, _ *repro.Network, _ repro.Request) (*repro.Result, error) {
	return &repro.Result{Algorithm: "dummy-test", Values: map[string]float64{"answer": 42}}, nil
}
func (dummyAlgo) Check(*repro.Network, repro.Request, *repro.Result) {}

// registerDummy guards the process-global registry: Register panics on
// duplicates, so re-running the test in one binary (-count=2) must not
// re-register.
var registerDummy sync.Once

// TestRegisteredAlgorithmIsSweepable is the registry contract end to end: an
// algorithm registered by an external package is immediately addressable as
// Scenario.Algo, with its Result.Values flowing into the metrics.
func TestRegisteredAlgorithmIsSweepable(t *testing.T) {
	registerDummy.Do(func() { repro.Register(dummyAlgo{}) })
	sc := &Scenario{Name: "reg", Instances: []Instance{{Family: "cycle", N: 16}}, Algo: "dummy-test"}
	res := Execute(sc, TrialFor(sc, sc.Instances[0], 0, 1))
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if res.Metrics["answer"] != 42 {
		t.Fatalf("registry metrics did not flow through: %v", res.Metrics)
	}
}

// TestScenarioContextCancel: a canceled Scenario.Ctx fails its trials with
// the context error instead of running them.
func TestScenarioContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := &Scenario{Name: "canceled", Instances: []Instance{{Family: "cycle", N: 64}}, Algo: AlgoRecursive, Ctx: ctx}
	res := Execute(sc, TrialFor(sc, sc.Instances[0], 0, 1))
	if !strings.Contains(res.Err, "context canceled") {
		t.Fatalf("canceled scenario reported %q", res.Err)
	}
}

func TestCustomRunAndAggregate(t *testing.T) {
	sc := &Scenario{
		Name:      "custom",
		Instances: []Instance{{Family: "any", N: 8}},
		Trials:    6,
		RunCtx: func(_ *Context, tr Trial) (Metrics, error) {
			m := Metrics{"idx": float64(tr.Index)}
			if tr.Index%2 == 0 {
				m["evenOnly"] = 1 // omitted on odd trials
			}
			if tr.Index == 5 {
				return nil, fmt.Errorf("boom")
			}
			return m, nil
		},
	}
	r := Runner{Workers: 2, Root: 3}
	sums := Aggregate(r.Run(sc))
	if len(sums) != 1 {
		t.Fatalf("got %d summaries", len(sums))
	}
	s := sums[0]
	if s.Trials != 6 || s.Errors != 1 {
		t.Fatalf("trials/errors = %d/%d", s.Trials, s.Errors)
	}
	if got := s.Metrics["idx"].Count; got != 5 {
		t.Fatalf("idx count = %d, want 5 (error trial dropped)", got)
	}
	if got := s.Metrics["evenOnly"].Count; got != 3 {
		t.Fatalf("evenOnly count = %d, want 3 (omitted keys skipped)", got)
	}
	if s.Metrics["idx"].Min != 0 || s.Metrics["idx"].Max != 4 {
		t.Fatalf("idx range [%v, %v]", s.Metrics["idx"].Min, s.Metrics["idx"].Max)
	}
}

func TestWritersRender(t *testing.T) {
	sc := &Scenario{Name: "w", Instances: []Instance{{Family: "cycle", N: 32}}, Trials: 2, Algo: AlgoRecursive}
	r := Runner{Workers: 1, Root: 1}
	sums := Aggregate(r.Run(sc))
	var tbl, csv, js strings.Builder
	WriteTable(&tbl, sums)
	WriteCSV(&csv, sums)
	if err := WriteJSON(&js, sums); err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{"table": tbl.String(), "csv": csv.String(), "json": js.String()} {
		if !strings.Contains(out, "maxLB") || !strings.Contains(out, "cycle") {
			t.Fatalf("%s output missing expected content:\n%s", name, out)
		}
	}
}
