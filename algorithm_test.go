package repro

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestRegistryCatalog pins the registered surface: every built-in workload
// is resolvable by name and by its documented aliases, listings are sorted,
// and unknown names error with the full catalog.
func TestRegistryCatalog(t *testing.T) {
	want := []string{"alarm", "decay", "diam2", "diam32", "poll", "recursive", "verify"}
	got := AlgorithmNames()
	if len(got) < len(want) {
		t.Fatalf("registry names = %v, want at least %v", got, want)
	}
	for _, name := range want {
		a, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("Get(%q).Name() = %q", name, a.Name())
		}
		if a.Doc() == "" {
			t.Fatalf("%s has no doc line", name)
		}
	}
	for alias, canon := range map[string]string{"recursive-bfs": "recursive", "decay-bfs": "decay", "baseline": "decay"} {
		a, err := Get(alias)
		if err != nil {
			t.Fatalf("Get(%q): %v", alias, err)
		}
		if a.Name() != canon {
			t.Fatalf("alias %q resolved to %q, want %q", alias, a.Name(), canon)
		}
	}
	if _, err := Get("bogus"); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Fatalf("unknown algorithm error should list the catalog, got %v", err)
	}
	algos := Algorithms()
	for i := 1; i < len(algos); i++ {
		if algos[i-1].Name() >= algos[i].Name() {
			t.Fatalf("Algorithms() not sorted at %d: %q >= %q", i, algos[i-1].Name(), algos[i].Name())
		}
	}
}

// cancelAfter cancels a context once the named phase has reported the given
// number of round batches.
type cancelAfter struct {
	cancel  context.CancelFunc
	phase   string
	batches int
	seen    int
}

func (c *cancelAfter) PhaseStart(string) {}
func (c *cancelAfter) PhaseEnd(string)   {}
func (c *cancelAfter) RoundBatch(phase string, _ int64) {
	if phase == c.phase {
		if c.seen++; c.seen == c.batches {
			c.cancel()
		}
	}
}

// TestCancelStopsRecursiveBFS: canceling mid-sweep stops Recursive-BFS
// within one phase — the run errors with context.Canceled, the meters have
// moved but strictly less than a full run's, and the partial run is
// deterministic (meters identical across two canceled runs).
func TestCancelStopsRecursiveBFS(t *testing.T) {
	g, _ := NewGraph("cycle", 256, 3)
	p := core.Params{InvBeta: 8, Depth: 1, W: 24, Alpha: 4}
	alg, _ := Get("recursive")

	full := NewNetwork(g, 3, WithParams(p))
	if _, err := alg.Run(context.Background(), full, Request{MaxDist: 128}); err != nil {
		t.Fatal(err)
	}
	fullTime := full.Report().LBTime

	canceled := func() Report {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		nw := NewNetwork(g, 3, WithParams(p))
		obs := &cancelAfter{cancel: cancel, phase: core.PhaseRecursive, batches: 2}
		_, err := alg.Run(ctx, nw, Request{MaxDist: 128, Observer: obs})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run returned %v, want context.Canceled", err)
		}
		return nw.Report()
	}
	rep := canceled()
	if rep.LBTime <= 0 || rep.LBTime >= fullTime {
		t.Fatalf("canceled run LBTime = %d, want in (0, %d)", rep.LBTime, fullTime)
	}
	if again := canceled(); again != rep {
		t.Fatalf("canceled run meters not deterministic: %+v vs %+v", rep, again)
	}
}

// TestCancelStopsDecayBFS: the same property for the Decay baseline, on the
// physical channel so the engine meters are observable through the network.
func TestCancelStopsDecayBFS(t *testing.T) {
	g, _ := NewGraph("cycle", 256, 7)
	alg, _ := Get("decay")

	full := NewNetwork(g, 7, WithCostModel(CostPhysical))
	if _, err := alg.Run(context.Background(), full, Request{}); err != nil {
		t.Fatal(err)
	}
	fullRounds := full.Report().PhysRounds

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nw := NewNetwork(g, 7, WithCostModel(CostPhysical))
	obs := &cancelAfter{cancel: cancel, phase: "decay-bfs", batches: 3}
	if _, err := alg.Run(ctx, nw, Request{Observer: obs}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	rep := nw.Report()
	if rep.PhysRounds <= 0 || rep.PhysRounds >= fullRounds {
		t.Fatalf("canceled run PhysRounds = %d, want in (0, %d)", rep.PhysRounds, fullRounds)
	}
}

// TestPreCanceledContextFailsFast: a context canceled before Run starts
// yields the context error without moving any meters.
func TestPreCanceledContextFailsFast(t *testing.T) {
	g, _ := NewGraph("cycle", 64, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"recursive", "decay", "diam2"} {
		alg, _ := Get(name)
		nw := NewNetwork(g, 1)
		if _, err := alg.Run(ctx, nw, Request{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: pre-canceled context returned %v", name, err)
		}
		if rep := nw.Report(); rep.LBTime != 0 {
			t.Fatalf("%s: meters moved on a pre-canceled run: %+v", name, rep)
		}
	}
}

// TestObserverEvents: phase events are balanced and round batches flow.
func TestObserverEvents(t *testing.T) {
	g, _ := NewGraph("cycle", 96, 5)
	var starts, ends int
	var rounds int64
	obs := ObserverFuncs{
		OnPhaseStart: func(string) { starts++ },
		OnPhaseEnd:   func(string) { ends++ },
		OnRoundBatch: func(_ string, n int64) { rounds += n },
	}
	alg, _ := Get("recursive")
	if _, err := alg.Run(context.Background(), NewNetwork(g, 5), Request{Observer: obs}); err != nil {
		t.Fatal(err)
	}
	if starts == 0 || starts != ends {
		t.Fatalf("unbalanced phases: %d starts, %d ends", starts, ends)
	}
	if rounds <= 0 {
		t.Fatalf("no round batches observed")
	}
}

// TestBaselineCostCarriesPhysicalReport: in CostUnit mode the Decay
// baseline still runs on a physical engine, and the registry result carries
// that engine's physical-energy report.
func TestBaselineCostCarriesPhysicalReport(t *testing.T) {
	g, _ := NewGraph("grid", 49, 9)
	alg, _ := Get("decay")
	res, err := alg.Run(context.Background(), NewNetwork(g, 9), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.MaxPhysEnergy <= 0 || res.Cost.PhysRounds <= 0 {
		t.Fatalf("unit-cost baseline lost its physical report: %+v", res.Cost)
	}
	if res.Cost.MsgViolations != 0 {
		t.Fatalf("baseline violated the message budget: %+v", res.Cost)
	}
}

// TestResultCostIsPerRun: on a network with accumulated meters, a run's
// Cost reports only that run's additive movement, not the cumulative total.
func TestResultCostIsPerRun(t *testing.T) {
	g, _ := NewGraph("cycle", 96, 5)
	nw := NewNetwork(g, 5)
	alg, _ := Get("recursive")
	if _, err := alg.Run(context.Background(), nw, Request{}); err != nil {
		t.Fatal(err)
	}
	mid := nw.Report()
	res, err := alg.Run(context.Background(), nw, Request{})
	if err != nil {
		t.Fatal(err)
	}
	after := nw.Report()
	if res.Cost.LBTime != after.LBTime-mid.LBTime || res.Cost.TotalLBEnergy != after.TotalLBEnergy-mid.TotalLBEnergy {
		t.Fatalf("Cost not per-run: cost %+v, cumulative movement (%d, %d)",
			res.Cost, after.LBTime-mid.LBTime, after.TotalLBEnergy-mid.TotalLBEnergy)
	}
}

// TestNewNetworkEValidation: the error-returning constructor rejects nil
// and vertex-free graphs and invalid options, and NewNetwork panics on the
// same inputs.
func TestNewNetworkEValidation(t *testing.T) {
	if _, err := NewNetworkE(nil, 1); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewNetworkE(graph.NewBuilder(0).Graph(), 1); err == nil {
		t.Fatal("vertex-free graph accepted")
	}
	g, _ := NewGraph("cycle", 32, 1)
	if _, err := NewNetworkE(g, 1, WithDecayPasses(-1)); err == nil {
		t.Fatal("negative Decay pass count accepted")
	}
	if nw, err := NewNetworkE(g, 1, WithDecayPasses(5)); err != nil || nw == nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewNetwork did not panic on invalid options")
			}
		}()
		NewNetwork(g, 1, WithDecayPasses(-1))
	}()
}

// TestRequestValidation: each entry rejects out-of-range fields before
// touching the network.
func TestRequestValidation(t *testing.T) {
	g, _ := NewGraph("cycle", 32, 1)
	bad := []struct {
		algo string
		req  Request
	}{
		{"recursive", Request{Source: -1}},
		{"recursive", Request{Source: 32}},
		{"recursive", Request{MaxDist: -3}},
		{"poll", Request{Period: -2}},
		{"poll", Request{Labels: make([]int32, 7)}},
		{"alarm", Request{Origin: 99}},
		{"verify", Request{Labels: make([]int32, 7)}},
	}
	for _, c := range bad {
		alg, _ := Get(c.algo)
		nw := NewNetwork(g, 1)
		if _, err := alg.Run(context.Background(), nw, c.req); err == nil {
			t.Fatalf("%s accepted invalid request %+v", c.algo, c.req)
		}
		if rep := nw.Report(); rep.LBTime != 0 {
			t.Fatalf("%s moved meters on invalid request: %+v", c.algo, rep)
		}
	}
}

// TestDiam32PhysicalSmallGraphs: on the physical channel a Decay
// convergecast can miss, and a Find Minimum over vertex IDs then settles on
// a key that is no vertex. diam32 must treat that as "not found" and finish
// with an estimate, never index past the graph.
func TestDiam32PhysicalSmallGraphs(t *testing.T) {
	alg, err := Get("diam32")
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"torus", "star", "tree", "grid", "hypercube"} {
		for _, n := range []int{4, 5, 7, 9} {
			for seed := uint64(1); seed <= 40; seed++ {
				g, err := NewGraph(family, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s n=%d seed=%d: panic: %v", family, n, seed, r)
						}
					}()
					nw := NewNetwork(g, seed, WithCostModel(CostPhysical))
					if _, err := alg.Run(context.Background(), nw, Request{}); err != nil {
						t.Fatalf("%s n=%d seed=%d: %v", family, n, seed, err)
					}
				}()
			}
		}
	}
}
