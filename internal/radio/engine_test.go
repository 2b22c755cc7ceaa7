package radio

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func step(e *Engine, tx []TX, listeners []int32) []RX {
	out := make([]RX, len(listeners))
	e.Step(tx, listeners, out)
	return out
}

// randomTestGraph builds a random test topology with deliberately awkward
// shape: a G(n,p)-style random core, a high-degree hub, and a tail of
// isolated (degree-0) vertices, so rounds mix clean deliveries, collisions
// and listeners nobody can reach.
func randomTestGraph(n int, r *rng.Source) *graph.Graph {
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
	// Hub: vertex 0 is adjacent to every fourth core vertex.
	for v := 1; v < core; v += 4 {
		b.AddEdge(0, int32(v))
	}
	return b.Graph()
}

// stepPattern draws one random, non-overlapping transmitter/listener split.
// Message sizes vary, so a tight budget sees both legal and oversized ones.
func stepPattern(n int, r *rng.Source) (tx []TX, listeners []int32) {
	for v := 0; v < n; v++ {
		switch r.Intn(5) {
		case 0:
			tx = append(tx, TX{ID: int32(v), Msg: Msg{Kind: 3, A: uint64(v), B: r.Uint64() >> r.Intn(64)}})
		case 1, 2:
			listeners = append(listeners, int32(v))
		}
	}
	return tx, listeners
}

// recoverFrom runs f and returns the value it panicked with (nil if none).
func recoverFrom(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestStepMatchesModel checks Step against the model itself (§1.1) rather
// than against another execution path: over random graphs and random
// transmitter/listener splits, a listener hears iff exactly one of its
// neighbors transmits and otherwise reads the zero RX, every awake device
// pays one unit per round, and every oversized message counts one
// violation. Every delivery, every device's meters, the clock and the
// violation counter are compared.
func TestStepMatchesModel(t *testing.T) {
	const budget = 40 // tight: some messages violate
	for seed := uint64(0); seed < 40; seed++ {
		r := rng.New(seed)
		n := 1 + r.Intn(200)
		g := randomTestGraph(n, r)
		e := NewEngine(g, WithMaxMsgBits(budget))
		energy, listens, transmits := make([]int64, n), make([]int64, n), make([]int64, n)
		var violations int64
		sender := make([]int, n) // tx index + 1 of a transmitting device, else 0
		const rounds = 20
		for round := 0; round < rounds; round++ {
			tx, listeners := stepPattern(n, r)
			clear(sender)
			for i, x := range tx {
				sender[x.ID] = i + 1
				energy[x.ID]++
				transmits[x.ID]++
				if x.Msg.Bits() > budget {
					violations++
				}
			}
			out := step(e, tx, listeners)
			for i, v := range listeners {
				energy[v]++
				listens[v]++
				heard, from := 0, 0
				for _, u := range g.Neighbors(v) {
					if sender[u] != 0 {
						heard, from = heard+1, sender[u]-1
					}
				}
				var want RX
				if heard == 1 {
					want = RX{Msg: tx[from].Msg, OK: true}
				}
				if out[i] != want {
					t.Fatalf("seed %d (n=%d) round %d: listener %d with %d transmitting neighbors got %+v, want %+v",
						seed, n, round, v, heard, out[i], want)
				}
			}
		}
		if e.Round() != rounds || e.MsgViolations() != violations {
			t.Fatalf("seed %d: clock/violations (%d, %d), want (%d, %d)", seed, e.Round(), e.MsgViolations(), rounds, violations)
		}
		for v := int32(0); int(v) < n; v++ {
			if e.Energy(v) != energy[v] || e.Listens(v) != listens[v] || e.Transmits(v) != transmits[v] {
				t.Fatalf("seed %d: device %d meters (%d,%d,%d), want (%d,%d,%d)", seed, v,
					e.Energy(v), e.Listens(v), e.Transmits(v), energy[v], listens[v], transmits[v])
			}
		}
	}
}

func TestSingleTransmitterDelivers(t *testing.T) {
	g := graph.Path(3) // 0-1-2
	e := NewEngine(g)
	out := step(e, []TX{{ID: 1, Msg: Msg{Kind: 7, A: 42}}}, []int32{0, 2})
	for i, rx := range out {
		if !rx.OK || rx.Msg.A != 42 || rx.Msg.Kind != 7 {
			t.Fatalf("listener %d: got %+v", i, rx)
		}
	}
}

func TestCollisionSilence(t *testing.T) {
	g := graph.Path(3) // 0 and 2 both neighbors of 1
	e := NewEngine(g)
	out := step(e, []TX{{ID: 0, Msg: Msg{A: 1}}, {ID: 2, Msg: Msg{A: 2}}}, []int32{1})
	if out[0].OK {
		t.Fatalf("collision delivered a message: %+v", out[0])
	}
}

func TestNoTransmitterSilence(t *testing.T) {
	e := NewEngine(graph.Cycle(4))
	out := step(e, nil, []int32{0, 1, 2, 3})
	for _, rx := range out {
		if rx.OK {
			t.Fatal("silence delivered a message")
		}
	}
}

func TestNonNeighborNotHeard(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	e := NewEngine(g)
	out := step(e, []TX{{ID: 0, Msg: Msg{A: 9}}}, []int32{2, 3})
	if out[0].OK || out[1].OK {
		t.Fatal("message crossed more than one hop")
	}
}

func TestTwoDisjointTransmissions(t *testing.T) {
	g := graph.Path(6) // 0-1-2-3-4-5
	e := NewEngine(g)
	out := step(e, []TX{{ID: 0, Msg: Msg{A: 10}}, {ID: 5, Msg: Msg{A: 50}}}, []int32{1, 4})
	if !out[0].OK || out[0].Msg.A != 10 {
		t.Fatalf("listener 1: %+v", out[0])
	}
	if !out[1].OK || out[1].Msg.A != 50 {
		t.Fatalf("listener 4: %+v", out[1])
	}
}

func TestTransmitterHearsNothing(t *testing.T) {
	// A transmitter that is also adjacent to another transmitter does not
	// receive; transmitters get no feedback in this model, and marking them
	// must not corrupt neighbor counters.
	g := graph.Complete(3)
	e := NewEngine(g)
	out := step(e, []TX{{ID: 0, Msg: Msg{A: 1}}, {ID: 1, Msg: Msg{A: 2}}}, []int32{2})
	if out[0].OK {
		t.Fatal("listener 2 should see a collision")
	}
	// Next round: only 0 transmits; 2 should hear it cleanly.
	out = step(e, []TX{{ID: 0, Msg: Msg{A: 3}}}, []int32{2})
	if !out[0].OK || out[0].Msg.A != 3 {
		t.Fatalf("scratch state leaked across rounds: %+v", out[0])
	}
}

func TestEnergyAccounting(t *testing.T) {
	g := graph.Path(3)
	e := NewEngine(g)
	step(e, []TX{{ID: 1, Msg: Msg{}}}, []int32{0})
	step(e, []TX{{ID: 1, Msg: Msg{}}}, []int32{0, 2})
	if e.Energy(1) != 2 || e.Transmits(1) != 2 || e.Listens(1) != 0 {
		t.Fatalf("transmitter energy: E=%d T=%d L=%d", e.Energy(1), e.Transmits(1), e.Listens(1))
	}
	if e.Energy(0) != 2 || e.Listens(0) != 2 {
		t.Fatalf("listener 0 energy: %d", e.Energy(0))
	}
	if e.Energy(2) != 1 {
		t.Fatalf("listener 2 energy: %d", e.Energy(2))
	}
	if e.MaxEnergy() != 2 || e.TotalEnergy() != 5 {
		t.Fatalf("aggregate energy: max=%d total=%d", e.MaxEnergy(), e.TotalEnergy())
	}
}

func TestIdleIsFree(t *testing.T) {
	e := NewEngine(graph.Cycle(5))
	e.SkipRounds(1000)
	step(e, nil, nil)
	if e.Round() != 1001 {
		t.Fatalf("round = %d", e.Round())
	}
	if e.TotalEnergy() != 0 {
		t.Fatal("idle rounds cost energy")
	}
}

func TestClockAdvances(t *testing.T) {
	e := NewEngine(graph.Path(2))
	for i := 0; i < 5; i++ {
		step(e, nil, []int32{0})
	}
	if e.Round() != 5 {
		t.Fatalf("round = %d", e.Round())
	}
}

func TestDoubleTransmitPanics(t *testing.T) {
	requirePanic(t, "device 0 transmits twice in round 0", func() {
		step(NewEngine(graph.Path(3)), []TX{{ID: 0}, {ID: 0}}, nil)
	})
}

func TestTransmitAndListenPanics(t *testing.T) {
	requirePanic(t, "device 0 both transmits and listens in round 0", func() {
		step(NewEngine(graph.Path(3)), []TX{{ID: 0}}, []int32{0})
	})
}

// requireSamePanic runs one programming error — the round's transmitters
// tx and listeners — through Step and through Listen, which opens a window
// with tx as its senders and listeners as its receivers, on Path(64), and
// requires both to panic with the identical value: a contract violation
// reads the same whichever way the round runs. Listen panics while it
// marks the two sides, before it builds any row.
func requireSamePanic(t *testing.T, what string, tx []TX, listeners []int32) {
	t.Helper()
	g := graph.Path(64)
	want := recoverFrom(func() { NewEngine(g).Step(tx, listeners, make([]RX, len(listeners))) })
	if want == nil {
		t.Fatalf("Step did not panic on %s", what)
	}
	if got := recoverFrom(func() { NewEngine(g).Listen(tx, listeners) }); got != want {
		t.Fatalf("listen-window %s panic %v, want Step's %v", what, got, want)
	}
}

// TestWindowDoubleTransmitPanicsLikeStep pins a duplicate transmitter to
// one panic value on both ways a round runs, Step and the listen window.
func TestWindowDoubleTransmitPanicsLikeStep(t *testing.T) {
	requireSamePanic(t, "duplicate transmitter", []TX{{ID: 5}, {ID: 5}}, []int32{7, 20})
}

// TestWindowTransmitAndListenPanicsLikeStep pins a device that both
// transmits and listens to one panic value on Step and on the listen window.
func TestWindowTransmitAndListenPanicsLikeStep(t *testing.T) {
	requireSamePanic(t, "transmit+listen", []TX{{ID: 5}}, []int32{5})
}

func TestMsgBitsAccounting(t *testing.T) {
	if b := (Msg{}).Bits(); b != 8 {
		t.Fatalf("empty msg bits = %d", b)
	}
	if b := (Msg{A: 1}).Bits(); b != 9 {
		t.Fatalf("1-bit msg = %d", b)
	}
	m := Msg{Kind: 1, A: 1 << 40, B: 3, C: 255}
	if b := m.Bits(); b != 8+41+2+8 {
		t.Fatalf("bits = %d", b)
	}
}

func TestMsgViolationCounter(t *testing.T) {
	e := NewEngine(graph.Path(2), WithMaxMsgBits(16))
	step(e, []TX{{ID: 0, Msg: Msg{A: ^uint64(0)}}}, []int32{1})
	if e.MsgViolations() != 1 {
		t.Fatalf("violations = %d", e.MsgViolations())
	}
	// RN[∞]: no limit.
	e2 := NewEngine(graph.Path(2), WithMaxMsgBits(0))
	step(e2, []TX{{ID: 0, Msg: Msg{A: ^uint64(0)}}}, []int32{1})
	if e2.MsgViolations() != 0 {
		t.Fatalf("RN[inf] violations = %d", e2.MsgViolations())
	}
}

func TestDefaultMsgBits(t *testing.T) {
	if b := DefaultMsgBits(1024); b != 8*11+80 {
		t.Fatalf("DefaultMsgBits(1024) = %d", b)
	}
	if DefaultMsgBits(1) >= DefaultMsgBits(1<<20) {
		t.Fatal("budget should grow with n")
	}
}

func TestManyListenersDenseGraph(t *testing.T) {
	n := 50
	g := graph.Complete(n)
	e := NewEngine(g)
	listeners := make([]int32, 0, n-1)
	for v := 1; v < n; v++ {
		listeners = append(listeners, int32(v))
	}
	out := step(e, []TX{{ID: 0, Msg: Msg{A: 5}}}, listeners)
	for i, rx := range out {
		if !rx.OK || rx.Msg.A != 5 {
			t.Fatalf("clique listener %d missed broadcast", i)
		}
	}
}

func BenchmarkStepSparse(b *testing.B) {
	g := graph.Grid(64, 64)
	e := NewEngine(g)
	tx := []TX{{ID: 2000, Msg: Msg{A: 1}}}
	listeners := []int32{2001, 2002, 2064}
	out := make([]RX, len(listeners))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step(tx, listeners, out)
	}
}
