package radio

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// randomShardGraph builds a random test topology with deliberately awkward
// shape for shard ownership: a G(n,p)-style random core, a high-degree hub,
// and a tail of isolated (degree-0) vertices.
func randomShardGraph(n int, r *rng.Source) *graph.Graph {
	b := graph.NewBuilder(n)
	core := n - n/8 // last n/8 vertices stay isolated
	if core < 2 {
		core = n
	}
	for u := 0; u < core; u++ {
		for e := 0; e < 3; e++ {
			v := r.Intn(core)
			if v != u {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	// Hub: vertex 0 is adjacent to every fourth core vertex, so one
	// adjacency list spans many shard ranges.
	for v := 1; v < core; v += 4 {
		b.AddEdge(0, int32(v))
	}
	return b.Graph()
}

// stepPattern draws one random, non-overlapping transmitter/listener split.
func stepPattern(n int, r *rng.Source) (tx []TX, listeners []int32) {
	for v := 0; v < n; v++ {
		switch r.Intn(5) {
		case 0:
			tx = append(tx, TX{ID: int32(v), Msg: Msg{Kind: 3, A: uint64(v), B: r.Uint64()}})
		case 1, 2:
			listeners = append(listeners, int32(v))
		}
	}
	return tx, listeners
}

// forceSharded drops the step-activity threshold to 1, so every step with
// any activity on an engine with shards > 1 runs the sharded kernel. The
// returned func restores the threshold.
func forceSharded() (restore func()) {
	old := shardStepMinWork
	shardStepMinWork = 1
	return func() { shardStepMinWork = old }
}

// TestShardedStepMatchesSequential is the central byte-identity property
// test: over random graphs × random slot patterns, a sharded engine must
// produce exactly the sequential engine's deliveries, per-device meters,
// round clock and violation counter, at every shard count — including CD
// engines, tight message budgets, and k > n.
func TestShardedStepMatchesSequential(t *testing.T) {
	defer forceSharded()()
	for _, n := range []int{1, 5, 33, 200} {
		for _, shards := range []int{2, 3, 7, 16, 200 + 5} {
			for _, cd := range []bool{false, true} {
				seed := uint64(n*1000 + shards*2 + 1)
				g := randomShardGraph(n, rng.New(seed))
				opts := []Option{WithMaxMsgBits(40)} // tight: some messages violate
				if cd {
					opts = append(opts, WithCollisionDetection())
				}
				seq := NewEngine(g, opts...)
				par := NewEngine(g, append(opts, WithShards(shards))...)
				r := rng.New(rng.Derive(seed, 0x51a7))
				for round := 0; round < 30; round++ {
					tx, listeners := stepPattern(n, r)
					outSeq := make([]RX, len(listeners))
					outPar := make([]RX, len(listeners))
					seq.Step(tx, listeners, outSeq)
					par.Step(tx, listeners, outPar)
					for i := range outSeq {
						if outSeq[i] != outPar[i] {
							t.Fatalf("n=%d shards=%d cd=%v round %d: listener %d got %+v, sequential %+v",
								n, shards, cd, round, listeners[i], outPar[i], outSeq[i])
						}
					}
				}
				if seq.Round() != par.Round() || seq.MsgViolations() != par.MsgViolations() {
					t.Fatalf("n=%d shards=%d cd=%v: clock/violations (%d, %d) vs sequential (%d, %d)",
						n, shards, cd, par.Round(), par.MsgViolations(), seq.Round(), seq.MsgViolations())
				}
				for v := int32(0); int(v) < n; v++ {
					if seq.Energy(v) != par.Energy(v) || seq.Listens(v) != par.Listens(v) || seq.Transmits(v) != par.Transmits(v) {
						t.Fatalf("n=%d shards=%d cd=%v: device %d meters (%d,%d,%d) vs sequential (%d,%d,%d)",
							n, shards, cd, v,
							par.Energy(v), par.Listens(v), par.Transmits(v),
							seq.Energy(v), seq.Listens(v), seq.Transmits(v))
					}
				}
			}
		}
	}
}

// TestStepThresholdDispatchMatches runs Step's dispatch at its real
// activity threshold, with no test hook: on a star just past 2¹⁶ leaves,
// rounds in which the hub transmits carry more than shardStepMinWork
// activity and run sharded, the rest stay sequential, and the trajectory of
// one engine switching between the two on every such round must match an
// always-sequential twin — the configuration the harness's big instances
// actually run.
func TestStepThresholdDispatchMatches(t *testing.T) {
	n := shardStepMinWork + 1
	g := graph.Star(n)
	seq := NewEngine(g)
	par := NewEngine(g, WithShards(4))
	r := rng.New(99)
	var sharded, sequential int
	for round := 0; round < 12; round++ {
		tx, listeners := stepPattern(n, r)
		if round%3 == 0 && (len(tx) == 0 || tx[0].ID != 0) {
			// Make every third round a hub round; drop the hub from the
			// listeners if stepPattern made it one.
			if len(listeners) > 0 && listeners[0] == 0 {
				listeners = listeners[1:]
			}
			tx = append(tx, TX{ID: 0, Msg: Msg{A: 7}})
		}
		if par.stepWork(tx, listeners) >= shardStepMinWork {
			sharded++
		} else {
			sequential++
		}
		outSeq := make([]RX, len(listeners))
		outPar := make([]RX, len(listeners))
		seq.Step(tx, listeners, outSeq)
		par.Step(tx, listeners, outPar)
		for i := range outSeq {
			if outSeq[i] != outPar[i] {
				t.Fatalf("round %d listener %d: %+v vs %+v", round, listeners[i], outPar[i], outSeq[i])
			}
		}
	}
	if sharded == 0 || sequential == 0 {
		t.Fatalf("%d sharded and %d sequential rounds, want both paths exercised", sharded, sequential)
	}
	if seq.MaxEnergy() != par.MaxEnergy() || seq.TotalEnergy() != par.TotalEnergy() || seq.Round() != par.Round() {
		t.Fatalf("aggregate divergence: (%d,%d,%d) vs (%d,%d,%d)",
			par.MaxEnergy(), par.TotalEnergy(), par.Round(),
			seq.MaxEnergy(), seq.TotalEnergy(), seq.Round())
	}
}

// TestSetShardsMidRun switches an engine between sequential and sharded
// execution between rounds — the pooled-context reconfiguration path — and
// requires the trajectory to match an always-sequential twin.
func TestSetShardsMidRun(t *testing.T) {
	defer forceSharded()()
	n := 80
	g := randomShardGraph(n, rng.New(21))
	seq := NewEngine(g)
	par := NewEngine(g)
	r := rng.New(rng.Derive(21, 2))
	for round := 0; round < 30; round++ {
		par.SetShards(1 + round%5) // 1, 2, 3, 4, 5, 1, ...
		tx, listeners := stepPattern(n, r)
		outSeq := make([]RX, len(listeners))
		outPar := make([]RX, len(listeners))
		seq.Step(tx, listeners, outSeq)
		par.Step(tx, listeners, outPar)
		for i := range outSeq {
			if outSeq[i] != outPar[i] {
				t.Fatalf("round %d: %+v vs %+v", round, outPar[i], outSeq[i])
			}
		}
	}
	if par.Shards() != 5 {
		t.Fatalf("Shards() = %d, want 5", par.Shards())
	}
	for v := int32(0); int(v) < n; v++ {
		if seq.Energy(v) != par.Energy(v) {
			t.Fatalf("device %d energy %d, sequential %d", v, par.Energy(v), seq.Energy(v))
		}
	}
}

// recoverFrom runs f and returns the value it panicked with (nil if none).
func recoverFrom(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// requireSamePanic runs step on a sequential and on a sharded engine over
// Path(64) and requires both to panic with the identical value: the sharded
// kernel re-raises a shard's panic on the caller's goroutine unchanged.
func requireSamePanic(t *testing.T, what string, step func(e *Engine)) {
	t.Helper()
	defer forceSharded()()
	g := graph.Path(64)
	want := recoverFrom(func() { step(NewEngine(g)) })
	if want == nil {
		t.Fatalf("sequential step did not panic on %s", what)
	}
	if got := recoverFrom(func() { step(NewEngine(g, WithShards(4))) }); got != want {
		t.Fatalf("sharded %s panic %v, want %v", what, got, want)
	}
}

// TestShardedDoubleTransmitPanics pins the duplicate-transmitter programming
// error to the sequential kernel's panic, on the caller's goroutine, under
// sharded execution.
func TestShardedDoubleTransmitPanics(t *testing.T) {
	requireSamePanic(t, "duplicate transmitter", func(e *Engine) {
		e.Step([]TX{{ID: 5}, {ID: 5}}, nil, nil)
	})
}

// TestShardedTransmitAndListenPanics pins the transmit+listen programming
// error under sharded execution, with the two roles owned by one shard.
func TestShardedTransmitAndListenPanics(t *testing.T) {
	requireSamePanic(t, "transmit+listen", func(e *Engine) {
		e.Step([]TX{{ID: 5}}, []int32{5}, make([]RX, 1))
	})
}

// TestShardedReset reuses one sharded engine across graphs of different
// sizes via Reset — including a shrink — and requires the trajectory of a
// fresh engine on each: shard ownership must be recomputed for the new
// topology and no scratch may leak across graphs.
func TestShardedReset(t *testing.T) {
	defer forceSharded()()
	graphs := []*graph.Graph{graph.Cycle(100), graph.Grid(16, 16), graph.Star(40)}
	reused := NewEngine(graphs[0], WithShards(3))
	for gi, g := range graphs {
		seed := uint64(500 + gi)
		fresh := NewEngine(g, WithShards(3))
		reused.Reset(g)
		r1, r2 := rng.New(seed), rng.New(seed)
		for round := 0; round < 20; round++ {
			txF, lF := stepPattern(g.N(), r1)
			txR, lR := stepPattern(g.N(), r2)
			outF := make([]RX, len(lF))
			outR := make([]RX, len(lR))
			fresh.Step(txF, lF, outF)
			reused.Step(txR, lR, outR)
			for i := range outF {
				if outF[i] != outR[i] {
					t.Fatalf("graph %d round %d: %+v vs fresh %+v", gi, round, outR[i], outF[i])
				}
			}
		}
		if fresh.Round() != reused.Round() || fresh.MsgViolations() != reused.MsgViolations() {
			t.Fatalf("graph %d: clock/violations diverge after Reset", gi)
		}
		for v := int32(0); int(v) < g.N(); v++ {
			if fresh.Energy(v) != reused.Energy(v) || fresh.Listens(v) != reused.Listens(v) || fresh.Transmits(v) != reused.Transmits(v) {
				t.Fatalf("graph %d: device %d meters diverge after Reset", gi, v)
			}
		}
	}
}

// BenchmarkStepShardedSmall guards the dispatch overhead: a sharded engine
// on a sub-threshold step must stay on the sequential fast path.
func BenchmarkStepShardedSmall(b *testing.B) {
	g := graph.Grid(64, 64)
	for _, shards := range []int{1, 4} {
		e := NewEngine(g, WithShards(shards))
		tx := []TX{{ID: 2000, Msg: Msg{A: 1}}}
		listeners := []int32{2001, 2002, 2064}
		out := make([]RX, len(listeners))
		e.Step(tx, listeners, out)
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Step(tx, listeners, out)
			}
		})
	}
}
