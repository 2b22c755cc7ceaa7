package labelcast

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/lbnet"
	"repro/internal/progress"
)

func TestBroadcastDeliversOnPath(t *testing.T) {
	g := graph.Path(30)
	labels := graph.BFS(g, 0)
	for _, period := range []int{1, 2, 4, 8} {
		net := lbnet.NewUnitNet(g, 0, uint64(period))
		res := new(Scratch).Broadcast(progress.Hooks{}, net, labels, period, 10000)
		if !res.DeliveredAll {
			t.Fatalf("period %d: delivered %d/%d", period, res.Delivered, g.N())
		}
	}
}

func TestBroadcastDeliversOnFamilies(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Grid(8, 8), graph.Star(40), graph.BinaryTree(63)} {
		labels := graph.BFS(g, 0)
		net := lbnet.NewUnitNet(g, 0, 3)
		res := new(Scratch).Broadcast(progress.Hooks{}, net, labels, 4, 10000)
		if !res.DeliveredAll {
			t.Fatalf("n=%d: delivered %d", g.N(), res.Delivered)
		}
	}
}

// TestLatencyEnergyTradeoff is the paper's opening claim: latency grows by
// about a factor related to P while per-node listening drops accordingly.
func TestLatencyEnergyTradeoff(t *testing.T) {
	g := graph.Path(64)
	labels := graph.BFS(g, 0)

	lat := map[int]int64{}
	maxEnergy := map[int]int64{}
	for _, period := range []int{1, 8} {
		net := lbnet.NewUnitNet(g, 0, 7)
		res := new(Scratch).Broadcast(progress.Hooks{}, net, labels, period, 100000)
		if !res.DeliveredAll {
			t.Fatalf("period %d: not delivered", period)
		}
		lat[period] = res.MaxLatency
		maxEnergy[period] = lbnet.MaxLBEnergy(net)
	}
	// With consecutive labels the message advances one layer per slot in
	// both cases once started, so latency is comparable; but with P = 8 a
	// node only wakes every 8th slot, so its energy cannot exceed
	// latency/8 + O(1), versus up to the full latency for P = 1.
	if lat[8] > lat[1]+8 {
		t.Fatalf("latency: P=8 %d vs P=1 %d; gap exceeds one period", lat[8], lat[1])
	}
	if maxEnergy[8] > maxEnergy[1] {
		t.Fatalf("energy did not drop with duty cycling: P=8 %d vs P=1 %d", maxEnergy[8], maxEnergy[1])
	}
}

func TestUnlabeledVerticesSleep(t *testing.T) {
	g := graph.Path(20)
	labels := graph.BFS(g, 0)
	labels[19] = -1 // pretend unlabeled
	net := lbnet.NewUnitNet(g, 0, 9)
	res := new(Scratch).Broadcast(progress.Hooks{}, net, labels, 2, 5000)
	if !res.DeliveredAll {
		t.Fatal("labeled part not fully delivered")
	}
	if net.LBEnergy(19) != 0 {
		t.Fatal("unlabeled vertex spent energy")
	}
}

func TestSteadyStateListens(t *testing.T) {
	if SteadyStateListens(1000, 10) != 100 {
		t.Fatal("wrong idle listen count")
	}
	if SteadyStateListens(1000, 0) != 1000 {
		t.Fatal("period clamp failed")
	}
}

func TestBroadcastStalls(t *testing.T) {
	// A gap in the labeling (no vertex labeled 5) stalls the flood at the
	// gap; the result must report partial delivery rather than hang.
	g := graph.Path(20)
	labels := graph.BFS(g, 0)
	for v := range labels {
		if labels[v] >= 5 {
			labels[v] += 3 // introduce a gap: labels jump 4 -> 8
		}
	}
	net := lbnet.NewUnitNet(g, 0, 11)
	res := new(Scratch).Broadcast(progress.Hooks{}, net, labels, 4, 2000)
	if res.DeliveredAll {
		t.Fatal("delivery across a label gap should fail")
	}
	if res.Delivered < 5 {
		t.Fatalf("prefix before the gap not delivered: %d", res.Delivered)
	}
}

func TestToSourceOnPath(t *testing.T) {
	g := graph.Path(40)
	labels := graph.BFS(g, 0)
	for _, period := range []int{1, 4, 8} {
		net := lbnet.NewUnitNet(g, 0, uint64(period))
		res := new(Scratch).ToSource(progress.Hooks{}, net, labels, 39, period, 3, 20000)
		if !res.Reached {
			t.Fatalf("period %d: alarm never reached the source (slots=%d hops=%d)", period, res.Slots, res.Hops)
		}
		if res.Hops != 39 {
			t.Fatalf("period %d: hops = %d, want 39", period, res.Hops)
		}
	}
}

func TestToSourceFromSourceTrivial(t *testing.T) {
	g := graph.Grid(5, 5)
	labels := graph.BFS(g, 0)
	net := lbnet.NewUnitNet(g, 0, 3)
	res := new(Scratch).ToSource(progress.Hooks{}, net, labels, 0, 4, 3, 100)
	if !res.Reached || res.Slots != 0 {
		t.Fatalf("origin == source should be immediate: %+v", res)
	}
}

func TestToSourceEnergyProfile(t *testing.T) {
	// On-path vertices transmit at most `retries` times; off-path vertices
	// only pay polling listens.
	g := graph.Grid(10, 10)
	labels := graph.BFS(g, 0)
	net := lbnet.NewUnitNet(g, 0, 5)
	res := new(Scratch).ToSource(progress.Hooks{}, net, labels, 99, 4, 2, 20000)
	if !res.Reached {
		t.Fatal("not delivered")
	}
	if e := lbnet.MaxLBEnergy(net); e > res.Slots/4+3 {
		t.Fatalf("max energy %d exceeds polling duty cycle bound %d", e, res.Slots/4+3)
	}
}

func TestToSourceUnreachableOrigin(t *testing.T) {
	g := graph.Path(10)
	labels := graph.BFS(g, 0)
	labels[9] = -1
	net := lbnet.NewUnitNet(g, 0, 7)
	if res := new(Scratch).ToSource(progress.Hooks{}, net, labels, 9, 2, 3, 1000); res.Reached {
		t.Fatal("unlabeled origin should not route")
	}
}

func TestRoundTripAlarm(t *testing.T) {
	// The complete §1 story: alarm goes up the gradient, then is broadcast
	// back down to every sensor.
	g := graph.Grid(8, 8)
	labels := graph.BFS(g, 0)
	net := lbnet.NewUnitNet(g, 0, 9)
	up := new(Scratch).ToSource(progress.Hooks{}, net, labels, 63, 4, 3, 20000)
	if !up.Reached {
		t.Fatal("alarm lost on the way up")
	}
	down := new(Scratch).Broadcast(progress.Hooks{}, net, labels, 4, 20000)
	if !down.DeliveredAll {
		t.Fatal("alarm lost on the way down")
	}
}
