package decay

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/progress"
	"repro/internal/radio"
	"repro/internal/rng"
)

// TestLocalBroadcastScratchZeroAllocs asserts the Decay rounds allocate
// nothing once a Scratch has been warmed — the property that keeps large
// physical-cost sweeps activity-bound instead of GC-bound. Every leaf
// sending to the hub (64 arcs each way) and the hub sending to four leaves
// take their rows from the receivers' side, and the 128-sender case is
// BenchmarkDecayLocalBroadcastRaw's shape; three leaves sending to the hub
// take theirs from the senders' side, whose engine buffers must be reused
// too.
func TestLocalBroadcastScratchZeroAllocs(t *testing.T) {
	bySide := map[bool]bool{}
	for _, c := range []struct {
		leaves, passes, senders int // senders 0: the hub sends to four leaves
	}{{64, 4, 64}, {128, 8, 128}, {64, 4, 0}, {64, 4, 3}} {
		g := graph.Star(c.leaves + 1)
		e := radio.NewEngine(g)
		p := ParamsFor(g.N(), c.passes)
		senders := make([]radio.TX, 0, c.senders)
		for v := 1; v <= c.senders; v++ {
			senders = append(senders, radio.TX{ID: int32(v), Msg: radio.Msg{A: uint64(v)}})
		}
		receivers := []int32{0}
		if c.senders == 0 {
			senders, receivers = []radio.TX{{ID: 0, Msg: radio.Msg{A: 9}}}, []int32{1, 2, 3, 4}
		}
		got := make([]radio.Msg, len(receivers))
		ok := make([]bool, len(receivers))
		var s Scratch
		s.LocalBroadcast(e, p, senders, receivers, rng.Derive(1, 0), got, ok) // warm
		call := uint64(1)
		allocs := testing.AllocsPerRun(50, func() {
			call++
			s.LocalBroadcast(e, p, senders, receivers, rng.Derive(1, call), got, ok)
		})
		if allocs != 0 {
			t.Fatalf("Scratch.LocalBroadcast with %d senders, %d receivers and %d passes allocates %v per call in steady state, want 0",
				len(senders), len(receivers), c.passes, allocs)
		}
		requireSide(t, fmt.Sprintf("%d senders to %d receivers", len(senders), len(receivers)), e, senders, receivers)
		bySide[e.ReceiverSide()] = true
	}
	if !bySide[true] || !bySide[false] {
		t.Fatalf("calls by row side (receivers' side true) %v: want both", bySide)
	}
}

// TestScratchBFSMatchesFresh pins a reused Scratch to a fresh one: the same
// seeds must label identically whether the scratch is fresh or reused,
// including across graphs of different sizes.
func TestScratchBFSMatchesFresh(t *testing.T) {
	var s Scratch
	for i, g := range []*graph.Graph{graph.Cycle(96), graph.Grid(7, 7), graph.Path(33)} {
		seed := uint64(100 + i)
		p := ParamsFor(g.N(), 6)
		eFresh := radio.NewEngine(g)
		want := new(Scratch).BFS(progress.Hooks{}, eFresh, p, []int32{0}, g.N(), seed)
		ePooled := radio.NewEngine(g)
		got := s.BFS(progress.Hooks{}, ePooled, p, []int32{0}, g.N(), seed)
		if len(got.Dist) != len(want.Dist) {
			t.Fatalf("graph %d: dist length %d, want %d", i, len(got.Dist), len(want.Dist))
		}
		for v := range want.Dist {
			if got.Dist[v] != want.Dist[v] {
				t.Fatalf("graph %d: dist[%d] = %d, want %d", i, v, got.Dist[v], want.Dist[v])
			}
		}
		if got.Rounds != want.Rounds || got.LBCalls != want.LBCalls || got.MaxDepth != want.MaxDepth {
			t.Fatalf("graph %d: result %+v, want %+v", i, got, want)
		}
	}
}
