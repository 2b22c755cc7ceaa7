package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// runAlgo resolves a registry entry by name and runs it on nw, failing the
// test on any error.
func runAlgo(t *testing.T, nw *Network, name string, req Request) *Result {
	t.Helper()
	alg, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := alg.Run(context.Background(), nw, req)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestNewGraphFamilies(t *testing.T) {
	g, err := NewGraph("grid", 64, 1)
	if err != nil || g.N() == 0 {
		t.Fatalf("grid: %v", err)
	}
	if _, err := NewGraph("bogus", 10, 1); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestNetworkBFSUnitModel(t *testing.T) {
	g, _ := NewGraph("cycle", 96, 5)
	nw := NewNetwork(g, 5)
	labels := runAlgo(t, nw, "recursive", Request{MaxDist: 96}).Labels
	ref := graph.BFS(g, 0)
	for v := range ref {
		if labels[v] != ref[v] {
			t.Fatalf("label[%d] = %d, want %d", v, labels[v], ref[v])
		}
	}
	rep := nw.Report()
	if rep.MaxLBEnergy == 0 || rep.LBTime == 0 {
		t.Fatalf("meters did not move: %+v", rep)
	}
	if rep.MaxPhysEnergy != 0 {
		t.Fatal("unit model reported physical energy")
	}
}

func TestNetworkBFSPhysicalModel(t *testing.T) {
	g, _ := NewGraph("cycle", 48, 7)
	nw := NewNetwork(g, 7, WithCostModel(CostPhysical))
	labels := runAlgo(t, nw, "recursive", Request{MaxDist: 48}).Labels
	ref := graph.BFS(g, 0)
	bad := 0
	for v := range ref {
		if labels[v] != ref[v] {
			bad++
		}
	}
	if bad != 0 {
		t.Fatalf("%d mislabeled on physical channel", bad)
	}
	rep := nw.Report()
	if rep.MaxPhysEnergy == 0 || rep.PhysRounds == 0 {
		t.Fatalf("physical meters did not move: %+v", rep)
	}
	if rep.MsgViolations != 0 {
		t.Fatalf("RN[O(log n)] violations: %d", rep.MsgViolations)
	}
}

func TestNetworkBaselineAgrees(t *testing.T) {
	g, _ := NewGraph("grid", 49, 9)
	nw := NewNetwork(g, 9)
	labels := runAlgo(t, nw, "decay", Request{MaxDist: 49}).Labels
	ref := graph.BFS(g, 0)
	for v := range ref {
		if labels[v] != ref[v] {
			t.Fatalf("baseline label[%d] = %d, want %d", v, labels[v], ref[v])
		}
	}
}

func TestNetworkVerifyLabeling(t *testing.T) {
	g, _ := NewGraph("path", 40, 11)
	nw := NewNetwork(g, 11)
	labels := runAlgo(t, nw, "recursive", Request{MaxDist: 40}).Labels
	violations := func() float64 {
		return runAlgo(t, nw, "verify", Request{Labels: labels, MaxDist: 40}).Values["violations"]
	}
	if v := violations(); v != 0 {
		t.Fatalf("true labels rejected: %v violations", v)
	}
	labels[20] = 35
	if v := violations(); v == 0 {
		t.Fatal("corrupted labels accepted")
	}
}

func TestNetworkDiameterApproximations(t *testing.T) {
	g, _ := NewGraph("path", 60, 13)
	nw := NewNetwork(g, 13)
	if d2 := runAlgo(t, nw, "diam2", Request{}).Estimate; d2 < 59/2 || d2 > 59 {
		t.Fatalf("2-approx %d outside [29, 59]", d2)
	}
	nw.Reset()
	if d32 := runAlgo(t, nw, "diam32", Request{}).Estimate; d32 < 59*2/3 || d32 > 59 {
		t.Fatalf("3/2-approx %d outside [39, 59]", d32)
	}
}

func TestNetworkPoll(t *testing.T) {
	g, _ := NewGraph("grid", 36, 15)
	nw := NewNetwork(g, 15)
	labels := runAlgo(t, nw, "recursive", Request{MaxDist: 36}).Labels
	res := runAlgo(t, nw, "poll", Request{Labels: labels, Period: 4})
	if res.Values["delivered"] != 1 {
		t.Fatal("polled broadcast incomplete")
	}
	if latency := res.Values["latency"]; latency <= 0 {
		t.Fatalf("latency = %v", latency)
	}
}

func TestNetworkReset(t *testing.T) {
	g, _ := NewGraph("cycle", 32, 17)
	nw := NewNetwork(g, 17)
	runAlgo(t, nw, "recursive", Request{MaxDist: 32})
	if nw.Report().LBTime == 0 {
		t.Fatal("meters empty after a run")
	}
	nw.Reset()
	if nw.Report().LBTime != 0 {
		t.Fatal("Reset did not clear meters")
	}
}

func TestWithParamsOverride(t *testing.T) {
	g, _ := NewGraph("cycle", 64, 19)
	nw := NewNetwork(g, 19, WithParams(coreParamsForTest()))
	labels := runAlgo(t, nw, "recursive", Request{MaxDist: 32}).Labels
	ref := graph.BFS(g, 0)
	for v := range ref {
		want := ref[v]
		if want > 32 {
			want = -1
		}
		if labels[v] != want {
			t.Fatalf("label[%d] = %d, want %d", v, labels[v], want)
		}
	}
}

func coreParamsForTest() core.Params {
	return core.Params{InvBeta: 4, Depth: 1, W: 24, Alpha: 4}
}

func TestNetworkAlarm(t *testing.T) {
	g, _ := NewGraph("grid", 49, 21)
	nw := NewNetwork(g, 21)
	labels := runAlgo(t, nw, "recursive", Request{MaxDist: 49}).Labels
	res := runAlgo(t, nw, "alarm", Request{Labels: labels, Origin: 48, Period: 4})
	if res.Values["completed"] != 1 {
		t.Fatal("alarm round trip failed")
	}
	if latency := res.Values["latency"]; latency <= 0 {
		t.Fatalf("latency = %v", latency)
	}
	// An unlabeled origin cannot raise an alarm.
	labels2 := append([]int32(nil), labels...)
	labels2[48] = -1
	if runAlgo(t, nw, "alarm", Request{Labels: labels2, Origin: 48, Period: 4}).Values["completed"] == 1 {
		t.Fatal("alarm from unlabeled origin should fail")
	}
}

// TestLog2Ceil pins the ⌈log₂ n⌉ helper, in particular the degenerate
// single-vertex network: log2ceil(1) must be 0, not 1 (2⁰ = 1 >= 1).
func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
	// The Decay-pass default must stay positive even when log2ceil is 0.
	g, err := NewGraph("path", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	labels := runAlgo(t, NewNetwork(g, 1), "recursive", Request{MaxDist: 1}).Labels
	if labels[0] != 0 {
		t.Fatalf("single-vertex label = %d, want 0", labels[0])
	}
}

// TestEndToEndDeterminism: the entire public pipeline — graph generation,
// BFS, diameter estimate, alarm — is a pure function of the root seed.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() (int64, int32, float64) {
		g, err := NewGraph("geometric", 120, 77)
		if err != nil {
			t.Fatal(err)
		}
		nw := NewNetwork(g, 77)
		labels := runAlgo(t, nw, "recursive", Request{}).Labels
		d2 := runAlgo(t, nw, "diam2", Request{}).Estimate
		alarm := runAlgo(t, nw, "alarm", Request{Labels: labels, Origin: int32(g.N() - 1), Period: 4})
		if alarm.Values["completed"] != 1 {
			t.Fatal("alarm failed")
		}
		return nw.Report().MaxLBEnergy, d2, alarm.Values["latency"]
	}
	e1, d1, l1 := run()
	e2, d2, l2 := run()
	if e1 != e2 || d1 != d2 || l1 != l2 {
		t.Fatalf("pipeline not deterministic: (%d,%d,%v) vs (%d,%d,%v)", e1, d1, l1, e2, d2, l2)
	}
}
