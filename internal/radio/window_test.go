package radio

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// windowPattern is one random window: its declared senders, its listener
// set and the transmitters of its rounds, each a subset of the senders;
// rounds may be empty.
type windowPattern struct {
	senders   []TX
	listeners []int32
	rounds    [][]TX
}

// drawWindow draws a window on n devices. About half the windows are
// sender-heavy — a handful of devices listen and most of the rest send —
// so their listeners have fewer arcs than their senders and Listen builds
// receiver-side rows; in the others a third of the devices listen and
// half of the rest send.
func drawWindow(n int, r *rng.Source) windowPattern {
	var w windowPattern
	heavy := r.Intn(2) == 0
	few := 1 + r.Intn(3)
	for _, v := range r.Perm(n) {
		switch {
		case heavy && len(w.listeners) < few, !heavy && r.Intn(3) == 0:
			w.listeners = append(w.listeners, int32(v))
		case heavy && r.Intn(4) != 0, !heavy && r.Intn(2) == 0:
			w.senders = append(w.senders, TX{ID: int32(v)})
		}
	}
	rounds := 1 + r.Intn(12)
	for round := 0; round < rounds; round++ {
		var tx []TX
		if r.Intn(4) != 0 {
			for _, i := range r.Perm(len(w.senders)) {
				if r.Intn(3) == 0 {
					v := w.senders[i].ID
					tx = append(tx, TX{ID: v, Msg: Msg{Kind: 3, A: uint64(v), B: r.Uint64() >> r.Intn(64)}})
				}
			}
		}
		w.rounds = append(w.rounds, tx)
	}
	// Senders stay outside the listener set: whether a listener has heard
	// (and so may transmit) is decided only as the rounds run.
	// TestWindowChargesInOneAdd covers a retired listener transmitting.
	return w
}

// stepWindowRef runs w round by round through Step, with the still-waiting
// listeners as each round's listener set: the model a listen window must
// reproduce. It returns, per round, the listener positions that heard and
// their messages.
func stepWindowRef(e *Engine, w windowPattern) [][]Heard {
	waiting := append([]int32(nil), w.listeners...)
	pos := make([]int32, len(w.listeners))
	for i := range pos {
		pos[i] = int32(i)
	}
	var all [][]Heard
	for _, tx := range w.rounds {
		out := make([]RX, len(waiting))
		e.Step(tx, waiting, out)
		var heard []Heard
		k := 0
		for j := range waiting {
			if out[j].OK {
				heard = append(heard, Heard{Index: pos[j], Msg: out[j].Msg})
			} else {
				waiting[k], pos[k] = waiting[j], pos[j]
				k++
			}
		}
		waiting, pos = waiting[:k], pos[:k]
		all = append(all, heard)
	}
	return all
}

// sameHeard compares two rounds' deliveries as sets keyed by position: the
// window reports them in touch order, the reference in listener order.
func sameHeard(a, b []Heard) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int32]Msg, len(a))
	for _, h := range a {
		m[h.Index] = h.Msg
	}
	for _, h := range b {
		if msg, ok := m[h.Index]; !ok || msg != h.Msg {
			return false
		}
	}
	return true
}

func requireSameMeters(t *testing.T, what string, got, want *Engine) {
	t.Helper()
	if got.Round() != want.Round() || got.MsgViolations() != want.MsgViolations() {
		t.Fatalf("%s: clock/violations (%d, %d), per-round (%d, %d)",
			what, got.Round(), got.MsgViolations(), want.Round(), want.MsgViolations())
	}
	for v := int32(0); int(v) < got.N(); v++ {
		if got.Energy(v) != want.Energy(v) || got.Listens(v) != want.Listens(v) || got.Transmits(v) != want.Transmits(v) {
			t.Fatalf("%s: device %d meters (%d,%d,%d), per-round (%d,%d,%d)", what, v,
				got.Energy(v), got.Listens(v), got.Transmits(v),
				want.Energy(v), want.Listens(v), want.Transmits(v))
		}
	}
}

// TestWindowMatchesSteps is the engine-level byte-identity property: over
// random graphs and windows, consecutive windows on one engine deliver
// exactly what per-round Steps deliver and leave identical meters, clock
// and violation counter — with and without CD, on both row sources.
func TestWindowMatchesSteps(t *testing.T) {
	bySource := map[bool]int{}
	for seed := uint64(0); seed < 60; seed++ {
		r := rng.New(seed)
		n := 1 + r.Intn(90)
		g := randomTestGraph(n, r)
		opts := []Option{WithMaxMsgBits(40)} // tight: some messages violate
		if seed%3 == 1 {
			opts = append(opts, WithCollisionDetection())
		}
		ref := NewEngine(g, opts...)
		win := NewEngine(g, opts...)
		var heard []Heard
		for call := 0; call < 3; call++ {
			w := drawWindow(n, r)
			want := stepWindowRef(ref, w)
			win.Listen(w.senders, w.listeners)
			if byReceivers := degreeSum(g, w.listeners) < degreeSum(g, ids(w.senders)); byReceivers != win.byReceivers {
				t.Fatalf("seed %d call %d: receiver-side rows %v, want %v", seed, call, win.byReceivers, byReceivers)
			}
			bySource[win.byReceivers]++
			for round, tx := range w.rounds {
				heard = win.StepWindow(tx, heard[:0])
				if !sameHeard(heard, want[round]) {
					t.Fatalf("seed %d call %d round %d: heard %+v, per-round %+v", seed, call, round, heard, want[round])
				}
			}
			win.EndListen()
			requireSameMeters(t, "window", win, ref)
		}
	}
	if bySource[true] == 0 || bySource[false] == 0 {
		t.Fatalf("windows by row source %v: want both receiver-side and CSR rows", bySource)
	}
}

func ids(tx []TX) []int32 {
	out := make([]int32, len(tx))
	for i := range tx {
		out[i] = tx[i].ID
	}
	return out
}

func degreeSum(g *graph.Graph, vs []int32) int {
	s := 0
	for _, v := range vs {
		s += g.Degree(v)
	}
	return s
}

// TestWindowChargesInOneAdd pins when listener meters settle: a listener
// that hears in the window's third round is charged three rounds at once,
// and one still waiting at EndListen is charged every round of the window.
func TestWindowChargesInOneAdd(t *testing.T) {
	e := NewEngine(graph.Path(4)) // 0-1-2-3
	e.SkipRounds(10)
	e.Listen([]TX{{ID: 1}, {ID: 0}}, []int32{0, 3})
	e.StepWindow(nil, nil)
	e.StepWindow(nil, nil)
	heard := e.StepWindow([]TX{{ID: 1, Msg: Msg{A: 5}}}, nil)
	if len(heard) != 1 || heard[0].Index != 0 || heard[0].Msg.A != 5 {
		t.Fatalf("heard %+v, want listener 0 hearing A=5", heard)
	}
	if e.Energy(0) != 3 || e.Listens(0) != 3 {
		t.Fatalf("listener 0 charged (%d, %d), want 3 rounds", e.Energy(0), e.Listens(0))
	}
	if e.Energy(3) != 0 {
		t.Fatalf("waiting listener charged %d before EndListen", e.Energy(3))
	}
	e.StepWindow([]TX{{ID: 0}}, nil) // a listener that heard may transmit
	e.EndListen()
	if e.Energy(3) != 4 || e.Listens(3) != 4 || e.Energy(0) != 4 || e.Transmits(0) != 1 {
		t.Fatalf("after EndListen: E(3)=%d L(3)=%d E(0)=%d T(0)=%d, want 4 4 4 1",
			e.Energy(3), e.Listens(3), e.Energy(0), e.Transmits(0))
	}
	if e.Round() != 14 {
		t.Fatalf("round = %d, want 14", e.Round())
	}
}

// requirePanic runs f and requires a panic whose message contains want.
func requirePanic(t *testing.T, want string, f func()) {
	t.Helper()
	got := recoverFrom(f)
	if got == nil {
		t.Fatalf("no panic, want one containing %q", want)
	}
	if s, ok := got.(string); !ok || !strings.Contains(s, want) {
		t.Fatalf("panic %v, want one containing %q", got, want)
	}
}

// TestWindowProgrammingErrors pins the window's contract violations to
// panics, worded like Step's.
func TestWindowProgrammingErrors(t *testing.T) {
	g := graph.Path(4)
	requirePanic(t, "device 2 listens twice", func() {
		NewEngine(g).Listen(nil, []int32{1, 2, 2})
	})
	requirePanic(t, "device 1 both transmits and listens in round 1", func() {
		e := NewEngine(g)
		e.Listen([]TX{{ID: 1}}, []int32{1, 3})
		e.StepWindow(nil, nil)
		e.StepWindow([]TX{{ID: 1}}, nil)
	})
	requirePanic(t, "device 0 transmits twice", func() {
		e := NewEngine(g)
		e.Listen([]TX{{ID: 0}}, []int32{3})
		e.StepWindow([]TX{{ID: 0}, {ID: 0}}, nil)
	})
	// Path(4) is 0-1-2-3: senders {0} against receiver {3} keep CSR rows,
	// senders {1, 2} (four arcs against one) get receiver-side rows.
	for _, declared := range [][]TX{{{ID: 0}}, {{ID: 1}, {ID: 2}}} {
		requirePanic(t, "device 3 transmits in round 0 but was not declared a sender", func() {
			e := NewEngine(g)
			e.Listen(declared, []int32{0})
			e.StepWindow([]TX{{ID: 3}}, nil)
		})
	}
	requirePanic(t, "Step during an open listen window", func() {
		e := NewEngine(g)
		e.Listen(nil, []int32{3})
		e.Step(nil, nil, nil)
	})
	requirePanic(t, "SkipRounds during an open listen window", func() {
		e := NewEngine(g)
		e.Listen(nil, nil)
		e.SkipRounds(1)
	})
	requirePanic(t, "listen window already open", func() {
		e := NewEngine(g)
		e.Listen(nil, nil)
		e.Listen(nil, nil)
	})
	requirePanic(t, "without an open listen window", func() {
		NewEngine(g).StepWindow(nil, nil)
	})
}

// TestResetDiscardsWindow requires Reset to drop an open window — even one
// abandoned by a panic, on receiver-side rows — without charging its
// listeners, leaving an engine indistinguishable from a fresh one.
func TestResetDiscardsWindow(t *testing.T) {
	g := graph.Path(4)
	e := NewEngine(g)
	e.Listen([]TX{{ID: 1}, {ID: 2}}, []int32{0, 3}) // four sender arcs, two receiver arcs
	if !e.byReceivers {
		t.Fatal("senders {1, 2} against receivers {0, 3} kept CSR rows, want receiver-side rows")
	}
	e.StepWindow([]TX{{ID: 2}}, nil)
	recoverFrom(func() { e.Listen(nil, nil) }) // second window: panics, first stays open
	e.Reset(g)
	fresh := NewEngine(g)
	requireSameMeters(t, "after Reset", e, fresh)
	e.Step([]TX{{ID: 1}}, []int32{0, 2}, make([]RX, 2)) // Step works again
	e.Listen(nil, []int32{0, 3})                        // no stale listener marks
	requirePanic(t, "device 1 transmits in round 1 but was not declared a sender", func() {
		e.StepWindow([]TX{{ID: 1}}, nil) // no stale sender marks
	})
	e.Reset(g)
	e.Step([]TX{{ID: 1}}, []int32{0, 2}, make([]RX, 2))
	e.Listen(nil, []int32{0, 3})
	e.EndListen()
	fresh.Step([]TX{{ID: 1}}, []int32{0, 2}, make([]RX, 2))
	fresh.Listen(nil, []int32{0, 3})
	fresh.EndListen()
	requireSameMeters(t, "reused after Reset", e, fresh)
}

// TestWindowRoundZeroAllocs pins warmed window rounds — deliveries
// appended into a reused buffer — at zero allocations on both row sources,
// the property the Decay scratch's steady state depends on: the hub sends
// to every leaf over its CSR row, and to a few leaves over receiver-side
// rows whose buffers are reused.
func TestWindowRoundZeroAllocs(t *testing.T) {
	g := graph.Star(65)
	e := NewEngine(g)
	leaves := make([]int32, 0, 64)
	for v := int32(1); v <= 64; v++ {
		leaves = append(leaves, v)
	}
	few := leaves[:3]
	tx := []TX{{ID: 0, Msg: Msg{A: 1}}}
	var heard []Heard
	window := func(listeners []int32) {
		e.Listen(tx, listeners)
		heard = e.StepWindow(nil, heard[:0])
		heard = e.StepWindow(tx, heard[:0])
		e.EndListen()
	}
	window(leaves) // warm: every leaf hears
	window(few)
	e.Listen(tx, few)
	if !e.byReceivers {
		t.Fatal("the hub sending to three leaves kept CSR rows, want receiver-side rows")
	}
	e.EndListen()
	var nAll, nFew int
	allocs := testing.AllocsPerRun(100, func() {
		window(leaves)
		nAll = len(heard)
		window(few)
		nFew = len(heard)
	})
	if allocs != 0 || nAll != len(leaves) || nFew != len(few) {
		t.Fatalf("window rounds allocate %v (heard %d and %d), want 0 allocations and %d and %d deliveries",
			allocs, nAll, nFew, len(leaves), len(few))
	}
}
