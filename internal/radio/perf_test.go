package radio

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestUintBitsMatchesLoop pins the math/bits implementation to the shift
// loop it replaced.
func TestUintBitsMatchesLoop(t *testing.T) {
	loop := func(x uint64) int {
		n := 0
		for x > 0 {
			n++
			x >>= 1
		}
		return n
	}
	cases := []uint64{0, 1, 2, 3, 4, 7, 8, 255, 256, 1<<32 - 1, 1 << 32, 1<<64 - 1}
	for x := uint64(0); x < 1<<12; x++ {
		cases = append(cases, x)
	}
	for _, x := range cases {
		if got, want := uintBits(x), loop(x); got != want {
			t.Fatalf("uintBits(%d) = %d, want %d", x, got, want)
		}
	}
}

// TestDefaultMsgBitsMatchesLoop pins DefaultMsgBits to its original
// definition: 8·lg + 80 with lg the smallest value ≥ 1 where 2^lg > n.
func TestDefaultMsgBitsMatchesLoop(t *testing.T) {
	loop := func(n int) int {
		lg := 1
		for 1<<lg <= n {
			lg++
		}
		return 8*lg + 80
	}
	for n := 0; n < 1<<14; n++ {
		if got, want := DefaultMsgBits(n), loop(n); got != want {
			t.Fatalf("DefaultMsgBits(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestEngineResetMatchesFresh runs a protocol-shaped random workload on a
// fresh engine and on a reused engine after Reset, and requires identical
// deliveries and meters — the contract the pooled trial contexts rely on.
func TestEngineResetMatchesFresh(t *testing.T) {
	graphs := []*graph.Graph{graph.Cycle(64), graph.Grid(6, 6), graph.Star(40)}
	run := func(e *Engine, g *graph.Graph, seed uint64) ([]RX, int64, int64) {
		r := rng.New(seed)
		var all []RX
		for round := 0; round < 50; round++ {
			var tx []TX
			var listeners []int32
			for v := int32(0); v < int32(g.N()); v++ {
				switch r.Intn(4) {
				case 0:
					tx = append(tx, TX{ID: v, Msg: Msg{A: uint64(v)}})
				case 1:
					listeners = append(listeners, v)
				}
			}
			out := make([]RX, len(listeners))
			e.Step(tx, listeners, out)
			all = append(all, out...)
		}
		return all, e.MaxEnergy(), e.Round()
	}
	// One engine reused across all graphs (including a size change), compared
	// against a fresh engine per graph.
	reused := NewEngine(graphs[0])
	for gi, g := range graphs {
		seed := uint64(1000 + gi)
		fresh := NewEngine(g)
		wantRX, wantMax, wantRound := run(fresh, g, seed)
		reused.Reset(g)
		gotRX, gotMax, gotRound := run(reused, g, seed)
		if len(gotRX) != len(wantRX) {
			t.Fatalf("graph %d: %d deliveries, want %d", gi, len(gotRX), len(wantRX))
		}
		for i := range gotRX {
			if gotRX[i] != wantRX[i] {
				t.Fatalf("graph %d: delivery %d = %+v, want %+v", gi, i, gotRX[i], wantRX[i])
			}
		}
		if gotMax != wantMax || gotRound != wantRound {
			t.Fatalf("graph %d: meters (%d, %d), want (%d, %d)", gi, gotMax, gotRound, wantMax, wantRound)
		}
	}
}

// TestResetAcrossSizesMatchesFresh reuses one engine across graphs of
// different sizes via Reset (growing, then shrinking) with Step rounds and
// listen windows interleaved and a window left open at every switch, and
// requires the trajectory of a fresh engine on each graph: every delivery,
// the clock, the violation counter and every device's meters. No scratch,
// window state and rows from either side included, may leak across graphs.
func TestResetAcrossSizesMatchesFresh(t *testing.T) {
	const budget = 40 // tight: some messages violate
	graphs := []*graph.Graph{graph.Cycle(100), graph.Grid(16, 16), graph.Star(40)}
	reused := NewEngine(graphs[0], WithMaxMsgBits(budget))
	bySide := map[bool]int{}
	for gi, g := range graphs {
		r := rng.New(uint64(500 + gi))
		fresh := NewEngine(g, WithMaxMsgBits(budget))
		reused.Reset(g)
		for call := 0; call < 4; call++ {
			for round := 0; round < 5; round++ {
				tx, listeners := stepPattern(g.N(), r)
				outR, outF := step(reused, tx, listeners), step(fresh, tx, listeners)
				for i := range outF {
					if outR[i] != outF[i] {
						t.Fatalf("graph %d call %d round %d: listener %d got %+v, fresh engine %+v",
							gi, call, round, listeners[i], outR[i], outF[i])
					}
				}
			}
			w := drawWindow(g.N(), r)
			got, want := runWindow(reused, w), runWindow(fresh, w)
			what := fmt.Sprintf("graph %d call %d", gi, call)
			requireSide(t, what, reused, w.senders, w.listeners)
			requireSide(t, what, fresh, w.senders, w.listeners)
			if len(w.senders) > 0 && len(w.listeners) > 0 {
				bySide[reused.ReceiverSide()]++
			}
			for pass := range want {
				if !sameHeard(got[pass], want[pass]) {
					t.Fatalf("graph %d call %d window pass %d: heard %+v, fresh engine %+v", gi, call, pass, got[pass], want[pass])
				}
			}
		}
		if reused.Round() != fresh.Round() || reused.MsgViolations() != fresh.MsgViolations() {
			t.Fatalf("graph %d: clock/violations (%d, %d), fresh engine (%d, %d)",
				gi, reused.Round(), reused.MsgViolations(), fresh.Round(), fresh.MsgViolations())
		}
		for v := int32(0); int(v) < g.N(); v++ {
			if reused.Energy(v) != fresh.Energy(v) || reused.Listens(v) != fresh.Listens(v) || reused.Transmits(v) != fresh.Transmits(v) {
				t.Fatalf("graph %d: device %d meters diverge from a fresh engine's", gi, v)
			}
		}
		w := drawWindow(g.N(), r)
		reused.Listen(w.senders, w.listeners) // abandoned: the next Reset discards it
		reused.StepPass(w.rounds, w.passes[0], nil)
	}
	if bySide[true] == 0 || bySide[false] == 0 {
		t.Fatalf("windows by row side %v: want both", bySide)
	}
}

// TestEngineResetKeepsOptions checks Reset preserves an explicit message
// budget but recomputes the default one for the new size.
func TestEngineResetKeepsOptions(t *testing.T) {
	e := NewEngine(graph.Cycle(16), WithMaxMsgBits(7))
	e.Reset(graph.Cycle(1024))
	if e.maxMsgBits != 7 {
		t.Fatalf("explicit budget lost: %d", e.maxMsgBits)
	}
	d := NewEngine(graph.Cycle(16))
	d.Reset(graph.Cycle(1024))
	if want := DefaultMsgBits(1024); d.maxMsgBits != want {
		t.Fatalf("default budget = %d, want %d", d.maxMsgBits, want)
	}
}

// TestEngineStepZeroAllocs is the steady-state allocation regression test:
// once the touched list has grown, Step must never allocate. The 64×64 case
// is BenchmarkEngineStepRaw's shape.
func TestEngineStepZeroAllocs(t *testing.T) {
	cases := []struct {
		side      int
		tx        []TX
		listeners []int32
	}{
		{32, []TX{{ID: 100, Msg: Msg{A: 1}}, {ID: 500, Msg: Msg{A: 2}}}, []int32{101, 132, 68, 501}},
		{64, []TX{{ID: 2000, Msg: Msg{A: 1}}}, []int32{2001, 2064, 1936}},
	}
	for _, c := range cases {
		e := NewEngine(graph.Grid(c.side, c.side))
		out := make([]RX, len(c.listeners))
		e.Step(c.tx, c.listeners, out) // warm the touched scratch
		allocs := testing.AllocsPerRun(200, func() {
			e.Step(c.tx, c.listeners, out)
		})
		if allocs != 0 {
			t.Fatalf("Engine.Step on Grid(%d, %d) allocates %v per call in steady state, want 0", c.side, c.side, allocs)
		}
	}
}
