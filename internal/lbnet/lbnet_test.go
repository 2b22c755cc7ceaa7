package lbnet

import (
	"testing"

	"repro/internal/decay"
	"repro/internal/graph"
	"repro/internal/radio"
)

func nets(t *testing.T, g *graph.Graph) map[string]Net {
	t.Helper()
	return map[string]Net{
		"unit": NewUnitNet(g, 0, 1),
		"phys": NewPhysNet(radio.NewEngine(g), decay.ParamsFor(g.N(), 8), 1),
	}
}

func oneLB(net Net, senders []radio.TX, receivers []int32) ([]radio.Msg, []bool) {
	got := make([]radio.Msg, len(receivers))
	ok := make([]bool, len(receivers))
	net.LocalBroadcast(senders, receivers, got, ok)
	return got, ok
}

func TestLocalBroadcastDelivery(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	for name, net := range nets(t, g) {
		got, ok := oneLB(net, []radio.TX{{ID: 1, Msg: radio.Msg{A: 42}}}, []int32{0, 2, 3})
		if !ok[0] || !ok[1] || got[0].A != 42 || got[1].A != 42 {
			t.Errorf("%s: neighbors did not hear lone sender: ok=%v", name, ok)
		}
		if ok[2] {
			t.Errorf("%s: vertex 3 heard a non-neighbor", name)
		}
	}
}

func TestAsleepVerticesSpendNothing(t *testing.T) {
	g := graph.Star(5)
	for name, net := range nets(t, g) {
		oneLB(net, []radio.TX{{ID: 1}}, []int32{0})
		if net.LBEnergy(2) != 0 || net.LBEnergy(3) != 0 {
			t.Errorf("%s: asleep vertex charged energy", name)
		}
		if net.LBEnergy(0) != 1 || net.LBEnergy(1) != 1 {
			t.Errorf("%s: participants not charged one LB unit", name)
		}
	}
}

func TestClockAdvancesPerCallAndSkip(t *testing.T) {
	g := graph.Path(3)
	for name, net := range nets(t, g) {
		oneLB(net, nil, nil) // empty call still ticks
		net.SkipLB(10)
		if net.LBTime() != 11 {
			t.Errorf("%s: LBTime = %d, want 11", name, net.LBTime())
		}
	}
}

func TestPhysNetRoundsMatchLBUnits(t *testing.T) {
	g := graph.Path(3)
	p := decay.ParamsFor(3, 5)
	eng := radio.NewEngine(g)
	net := NewPhysNet(eng, p, 3)
	oneLB(net, []radio.TX{{ID: 0}}, []int32{1})
	net.SkipLB(4)
	if want := 5 * p.Duration(); eng.Round() != want {
		t.Fatalf("engine rounds = %d, want %d", eng.Round(), want)
	}
}

func TestUnitNetMinIDDelivery(t *testing.T) {
	g := graph.Star(4) // 0 center; leaves 1,2,3
	net := NewUnitNet(g, 0, 1)
	// Deliberately list senders out of ID order: min-ID must still win.
	senders := []radio.TX{
		{ID: 3, Msg: radio.Msg{A: 30}},
		{ID: 1, Msg: radio.Msg{A: 10}},
		{ID: 2, Msg: radio.Msg{A: 20}},
	}
	got, ok := oneLB(net, senders, []int32{0})
	if !ok[0] || got[0].A != 10 {
		t.Fatalf("min-ID delivery violated: got %+v ok=%v", got[0], ok[0])
	}
}

func TestUnitNetFailureInjection(t *testing.T) {
	g := graph.Path(2)
	net := NewUnitNet(g, 0.5, 9)
	fails := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		_, ok := oneLB(net, []radio.TX{{ID: 0}}, []int32{1})
		if !ok[0] {
			fails++
		}
	}
	if fails < trials/3 || fails > 2*trials/3 {
		t.Fatalf("failProb=0.5 produced %d/%d failures", fails, trials)
	}
}

func TestUnitNetScratchReset(t *testing.T) {
	g := graph.Path(3)
	net := NewUnitNet(g, 0, 1)
	oneLB(net, []radio.TX{{ID: 0, Msg: radio.Msg{A: 5}}}, []int32{1})
	// Second call with no senders: receiver must hear nothing.
	_, ok := oneLB(net, nil, []int32{1})
	if ok[0] {
		t.Fatal("stale sender counter leaked into next call")
	}
}

// TestUnitNetDeliverAndCharge pins the split of LocalBroadcast: Deliver
// resolves a slot exactly as LocalBroadcast does (same deliveries, same
// failure draws) without touching a meter, and Charge plus SkipLB restore
// the meters LocalBroadcast would have set.
func TestUnitNetDeliverAndCharge(t *testing.T) {
	g := graph.Grid(5, 5)
	whole := NewUnitNet(g, 0.3, 7)
	split := NewUnitNet(g, 0.3, 7)
	senders := []radio.TX{{ID: 6, Msg: radio.Msg{A: 6}}, {ID: 12, Msg: radio.Msg{A: 12}}, {ID: 18, Msg: radio.Msg{A: 18}}}
	receivers := []int32{1, 5, 7, 11, 13, 17, 19, 23}
	for slot := 0; slot < 50; slot++ {
		gotW, okW := oneLB(whole, senders, receivers)
		gotS := make([]radio.Msg, len(receivers))
		okS := make([]bool, len(receivers))
		split.Deliver(senders, receivers, gotS, okS)
		for i := range receivers {
			if gotW[i] != gotS[i] || okW[i] != okS[i] {
				t.Fatalf("slot %d: receiver %d: LocalBroadcast %v/%v, Deliver %v/%v",
					slot, receivers[i], gotW[i], okW[i], gotS[i], okS[i])
			}
		}
	}
	if split.LBTime() != 0 || TotalLBEnergy(split) != 0 {
		t.Fatalf("Deliver moved the meters: time %d, energy %d", split.LBTime(), TotalLBEnergy(split))
	}
	for _, s := range senders {
		split.Charge(s.ID, 50)
	}
	for _, v := range receivers {
		split.Charge(v, 50)
	}
	split.SkipLB(50)
	for v := int32(0); v < int32(g.N()); v++ {
		if whole.LBEnergy(v) != split.LBEnergy(v) {
			t.Fatalf("vertex %d: LocalBroadcast charged %d, Charge %d", v, whole.LBEnergy(v), split.LBEnergy(v))
		}
	}
	if whole.LBTime() != split.LBTime() {
		t.Fatalf("LBTime %d vs %d", whole.LBTime(), split.LBTime())
	}
}

func TestPhysNetContendedDelivery(t *testing.T) {
	// All leaves of a star send; the center should hear w.h.p. thanks to
	// Decay, matching the UnitNet guarantee.
	g := graph.Star(20)
	misses := 0
	for trial := 0; trial < 50; trial++ {
		net := NewPhysNet(radio.NewEngine(g), decay.ParamsFor(20, 8), uint64(trial))
		senders := make([]radio.TX, 0, 19)
		for v := 1; v < 20; v++ {
			senders = append(senders, radio.TX{ID: int32(v), Msg: radio.Msg{A: uint64(v)}})
		}
		got, ok := oneLB(net, senders, []int32{0})
		if !ok[0] {
			misses++
		} else if got[0].A == 0 {
			t.Fatal("delivered message has no sender payload")
		}
	}
	if misses > 2 {
		t.Fatalf("contended PhysNet LB missed %d/50 times", misses)
	}
}

// TestMaxAndTotalLBEnergy reads the LB meters of both nets and of a
// wrapper that hides its UnitNet's type, so the helpers take their
// per-vertex path: every meter reads 0 before the first Local-Broadcast (a
// PhysNet has not allocated its meters yet), and the participants' units
// after two.
func TestMaxAndTotalLBEnergy(t *testing.T) {
	g := graph.Path(3)
	all := nets(t, g)
	all["opaque"] = struct{ Net }{NewUnitNet(g, 0, 1)}
	for name, net := range all {
		net.SkipLB(1)
		if MaxLBEnergy(net) != 0 || TotalLBEnergy(net) != 0 || net.LBEnergy(1) != 0 {
			t.Fatalf("%s: before any Local-Broadcast MaxLBEnergy %d, TotalLBEnergy %d, LBEnergy(1) %d, want 0",
				name, MaxLBEnergy(net), TotalLBEnergy(net), net.LBEnergy(1))
		}
		oneLB(net, []radio.TX{{ID: 0}}, []int32{1})
		oneLB(net, []radio.TX{{ID: 0}}, []int32{1})
		if MaxLBEnergy(net) != 2 || TotalLBEnergy(net) != 4 {
			t.Fatalf("%s: MaxLBEnergy %d, TotalLBEnergy %d, want 2 and 4", name, MaxLBEnergy(net), TotalLBEnergy(net))
		}
	}
}

func TestBadResultLengthsPanic(t *testing.T) {
	g := graph.Path(3)
	net := NewUnitNet(g, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short result slices")
		}
	}()
	net.LocalBroadcast(nil, []int32{0, 1}, make([]radio.Msg, 1), make([]bool, 1))
}

// TestCrossModelAgreement runs the same single-sender schedule on both nets
// and checks protocol-visible agreement (who hears).
func TestCrossModelAgreement(t *testing.T) {
	g := graph.Grid(4, 4)
	unit := NewUnitNet(g, 0, 5)
	phys := NewPhysNet(radio.NewEngine(g), decay.ParamsFor(16, 8), 5)
	for round := 0; round < 8; round++ {
		sender := int32(round)
		var receivers []int32
		for v := int32(0); v < 16; v++ {
			if v != sender {
				receivers = append(receivers, v)
			}
		}
		senders := []radio.TX{{ID: sender, Msg: radio.Msg{A: 7}}}
		_, okU := oneLB(unit, senders, receivers)
		_, okP := oneLB(phys, senders, receivers)
		for i := range receivers {
			if okU[i] != okP[i] {
				t.Fatalf("round %d vertex %d: unit ok=%v phys ok=%v (single sender should agree)", round, receivers[i], okU[i], okP[i])
			}
		}
	}
}

func BenchmarkUnitNetSparseLB(b *testing.B) {
	g := graph.Grid(64, 64)
	net := NewUnitNet(g, 0, 1)
	senders := []radio.TX{{ID: 2000, Msg: radio.Msg{A: 1}}}
	receivers := []int32{2001, 2064}
	got := make([]radio.Msg, 2)
	ok := make([]bool, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.LocalBroadcast(senders, receivers, got, ok)
	}
}
