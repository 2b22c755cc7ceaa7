package radio

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// windowPattern is one listen window: its declared senders, its listener
// set, and for each pass the round in which each sender transmits. Sender
// k's message has A = k, so a delivery names its sender.
type windowPattern struct {
	senders   []TX
	listeners []int32
	rounds    int
	passes    [][]uint8
}

// drawWindow draws a window on n devices. About half the windows are
// sender-heavy — a handful of devices listen and most of the rest send —
// so their listeners have fewer arcs than their senders and Listen builds
// the rows from the receivers' side; in the others a third of the devices
// listen and half of the rest send. Passes are 1 to 12 rounds long, so
// some senders collide in every round they use and some pick one alone.
func drawWindow(n int, r *rng.Source) windowPattern {
	var w windowPattern
	heavy := r.Intn(2) == 0
	few := 1 + r.Intn(3)
	for _, v := range r.Perm(n) {
		switch {
		case heavy && len(w.listeners) < few, !heavy && r.Intn(3) == 0:
			w.listeners = append(w.listeners, int32(v))
		case heavy && r.Intn(4) != 0, !heavy && r.Intn(2) == 0:
			k := len(w.senders)
			w.senders = append(w.senders, TX{ID: int32(v), Msg: Msg{Kind: 3, A: uint64(k), B: r.Uint64() >> r.Intn(64)}})
		}
	}
	w.rounds = 1 + r.Intn(12)
	for pass := 1 + r.Intn(4); pass > 0; pass-- {
		when := make([]uint8, len(w.senders))
		for k := range when {
			when[k] = uint8(1 + r.Intn(w.rounds))
		}
		w.passes = append(w.passes, when)
	}
	return w
}

// stepWindowRef runs w round by round through Step — in round r of a pass
// the senders whose slot is r transmit, in sender order, and the
// still-waiting listeners listen — the model a listen window must
// reproduce. It returns, per pass, the deliveries by listener position.
func stepWindowRef(e *Engine, w windowPattern) [][]Heard {
	waiting := append([]int32(nil), w.listeners...)
	pos := make([]int32, len(w.listeners))
	for i := range pos {
		pos[i] = int32(i)
	}
	var all [][]Heard
	for _, when := range w.passes {
		var heard []Heard
		for round := 1; round <= w.rounds; round++ {
			var tx []TX
			for k, s := range w.senders {
				if int(when[k]) == round {
					tx = append(tx, s)
				}
			}
			out := make([]RX, len(waiting))
			e.Step(tx, waiting, out)
			k := 0
			for j := range waiting {
				if out[j].OK {
					heard = append(heard, Heard{Index: pos[j], From: int32(out[j].Msg.A)})
				} else {
					waiting[k], pos[k] = waiting[j], pos[j]
					k++
				}
			}
			waiting, pos = waiting[:k], pos[:k]
		}
		all = append(all, heard)
	}
	return all
}

// runWindow runs w through a listen window on e, one StepPass per pass,
// and returns the deliveries of each pass.
func runWindow(e *Engine, w windowPattern) [][]Heard {
	e.Listen(w.senders, w.listeners)
	var all [][]Heard
	for _, when := range w.passes {
		all = append(all, e.StepPass(w.rounds, when, nil))
	}
	e.EndListen()
	return all
}

// sameHeard compares two passes' deliveries as sets keyed by position: the
// window reports them in row order, the reference in round order.
func sameHeard(a, b []Heard) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int32]int32, len(a))
	for _, h := range a {
		m[h.Index] = h.From
	}
	for _, h := range b {
		if from, ok := m[h.Index]; !ok || from != h.From {
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

// requireWindowMatchesSteps runs w through a listen window on win and round
// by round through Step on ref, and requires the same deliveries in every
// pass and the same meters, clock and violation counter afterwards, with
// the window's rows on the side the degree-sum rule picks. It returns that
// side, true for the receivers'.
func requireWindowMatchesSteps(t *testing.T, what string, win, ref *Engine, w windowPattern) bool {
	t.Helper()
	want := stepWindowRef(ref, w)
	got := runWindow(win, w)
	requireSide(t, what, win, w.senders, w.listeners)
	for pass := range want {
		if !sameHeard(got[pass], want[pass]) {
			t.Fatalf("%s pass %d: heard %+v, per-round %+v", what, pass, got[pass], want[pass])
		}
	}
	requireSameMeters(t, what, win, ref)
	return win.ReceiverSide()
}

// fromReceivers reports whether Listen must build the rows of a window with
// these senders and receivers from the receivers' adjacency: whether the
// receivers have no more arcs than the senders.
func fromReceivers(g *graph.Graph, senders []TX, receivers []int32) bool {
	var s, r int
	for i := range senders {
		s += g.Degree(senders[i].ID)
	}
	for _, v := range receivers {
		r += g.Degree(v)
	}
	return r <= s
}

// requireSide requires the latest window on e, with these senders and
// receivers, to have built its rows on the side fromReceivers picks.
func requireSide(t *testing.T, what string, e *Engine, senders []TX, receivers []int32) {
	t.Helper()
	if want := fromReceivers(e.Graph(), senders, receivers); e.ReceiverSide() != want {
		t.Fatalf("%s: rows from the receivers' side %v, want %v (senders %v, receivers %v)",
			what, e.ReceiverSide(), want, senders, receivers)
	}
}

// TestWindowMatchesSteps is the engine-level byte-identity property: over
// random graphs and windows, consecutive windows on one engine deliver
// exactly what per-round Steps deliver, from the same senders, and leave
// identical meters, clock and violation counter. The engine must build
// every window's rows on the side the degree-sum rule picks, and both sides
// must occur.
func TestWindowMatchesSteps(t *testing.T) {
	bySide := map[bool]int{}
	for seed := uint64(0); seed < 60; seed++ {
		r := rng.New(seed)
		n := 1 + r.Intn(90)
		g := randomTestGraph(n, r)
		budget := WithMaxMsgBits(40) // tight: some messages violate
		ref := NewEngine(g, budget)
		win := NewEngine(g, budget)
		for call := 0; call < 3; call++ {
			w := drawWindow(n, r)
			side := requireWindowMatchesSteps(t, fmt.Sprintf("seed %d call %d", seed, call), win, ref, w)
			if len(w.senders) > 0 && len(w.listeners) > 0 {
				bySide[side]++
			}
		}
	}
	if bySide[true] == 0 || bySide[false] == 0 {
		t.Fatalf("windows by row side %v: want rows from both the receivers' and the senders' side", bySide)
	}
}

// TestWindowChargesInOneAdd pins when meters settle. Each window runs
// three 4-round passes with senders {1, 2, 3} adjacent to hub 0, which
// listens together with device 4, which has no sending neighbor; sender
// 2's message is oversized. The hub hears nobody in pass 1 (every sender
// in round 2), and in pass 2 round 1 collides and round 3 is clean, so it
// hears sender 2 there and is charged 4 + 3 rounds at once. Device 4 is
// charged all 12 rounds at EndListen, each sender one transmission per
// pass, the budget one violation per pass. On Star(5) the receivers have
// more arcs than the senders and the engine must build the rows from the
// senders' side; giving every sender an arc to an idle device 5 (and
// device 4 its only arc there) turns them to the receivers' side.
func TestWindowChargesInOneAdd(t *testing.T) {
	b := graph.NewBuilder(6)
	for _, a := range [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 5}, {2, 5}, {3, 5}, {4, 5}} {
		b.AddEdge(a[0], a[1])
	}
	senders := []TX{{ID: 1}, {ID: 2, Msg: Msg{A: ^uint64(0)}}, {ID: 3}}
	bySide := map[bool]bool{}
	for _, c := range []struct {
		g         *graph.Graph
		receivers []int32
		hub       int32 // the hub's position in receivers
	}{{graph.Star(5), []int32{0, 4}, 0}, {b.Graph(), []int32{4, 0}, 1}} {
		e := NewEngine(c.g, WithMaxMsgBits(40))
		e.SkipRounds(10)
		e.Listen(senders, c.receivers)
		requireSide(t, "hub window", e, senders, c.receivers)
		bySide[e.ReceiverSide()] = true
		if heard := e.StepPass(4, []uint8{2, 2, 2}, nil); len(heard) != 0 {
			t.Fatalf("pass 1 heard %+v, want nothing", heard)
		}
		if e.Energy(0) != 0 || e.Round() != 14 {
			t.Fatalf("after pass 1: hub charged %d, clock %d; want 0 and 14", e.Energy(0), e.Round())
		}
		heard := e.StepPass(4, []uint8{1, 3, 1}, nil)
		if len(heard) != 1 || heard[0] != (Heard{Index: c.hub, From: 1}) {
			t.Fatalf("pass 2 heard %+v, want the hub hearing sender position 1", heard)
		}
		if e.Energy(0) != 7 || e.Listens(0) != 7 {
			t.Fatalf("hub charged (%d, %d), want 7 rounds", e.Energy(0), e.Listens(0))
		}
		if e.Energy(4) != 0 {
			t.Fatalf("waiting device 4 charged %d before EndListen", e.Energy(4))
		}
		e.StepPass(4, []uint8{4, 4, 1}, nil)
		e.EndListen()
		if e.Energy(4) != 12 || e.Listens(4) != 12 || e.Energy(0) != 7 {
			t.Fatalf("after EndListen: E(4)=%d L(4)=%d E(0)=%d, want 12 12 7", e.Energy(4), e.Listens(4), e.Energy(0))
		}
		for _, s := range senders {
			if e.Energy(s.ID) != 3 || e.Transmits(s.ID) != 3 || e.Listens(s.ID) != 0 {
				t.Fatalf("sender %d meters (%d, %d, %d), want one transmission per pass", s.ID,
					e.Energy(s.ID), e.Transmits(s.ID), e.Listens(s.ID))
			}
		}
		if e.Round() != 22 || e.MsgViolations() != 3 || e.TotalEnergy() != 12+7+9 {
			t.Fatalf("clock %d, violations %d, total energy %d; want 22, 3 and 28", e.Round(), e.MsgViolations(), e.TotalEnergy())
		}
	}
	if !bySide[true] || !bySide[false] {
		t.Fatalf("windows by row side %v: want both", bySide)
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
// panics: at Listen, worded like Step's, and at StepPass, a pass too long
// for the masks, a slot outside the pass and a slot list that does not
// match the senders. StepPass checks these before it reads a row, so one
// window shows them; the longest legal pass runs on both row sides.
func TestWindowProgrammingErrors(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	requirePanic(t, "device 2 listens twice in round 0", func() {
		NewEngine(g).Listen(nil, []int32{1, 2, 2})
	})
	requirePanic(t, "device 0 transmits twice in round 0", func() {
		NewEngine(g).Listen([]TX{{ID: 0}, {ID: 0}}, []int32{3})
	})
	requirePanic(t, "device 1 both transmits and listens in round 3", func() {
		e := NewEngine(g)
		e.SkipRounds(3)
		e.Listen([]TX{{ID: 1}}, []int32{3, 1})
	})
	open := func() *Engine {
		e := NewEngine(g)
		e.Listen([]TX{{ID: 1}, {ID: 2}}, []int32{0})
		return e
	}
	requirePanic(t, "a pass of 64 rounds", func() { open().StepPass(64, []uint8{1, 1}, nil) })
	requirePanic(t, "a pass of 0 rounds", func() { open().StepPass(0, []uint8{1, 1}, nil) })
	requirePanic(t, "device 2 transmits in round 5 of a 4-round pass", func() { open().StepPass(4, []uint8{1, 5}, nil) })
	requirePanic(t, "device 2 transmits in round 0 of a 4-round pass", func() { open().StepPass(4, []uint8{1, 0}, nil) })
	requirePanic(t, "3 transmit rounds for 2 senders", func() { open().StepPass(4, []uint8{1, 1, 1}, nil) })
	// Senders {0, 2} (three arcs) against receiver {1} (two) build the rows
	// from the receivers' side, and collide in round 63 before sender 0
	// alone uses round 62; sender {0} against receivers {1, 3} (three arcs)
	// builds them from the senders', and device 1 hears in round 63.
	bySide := map[bool]bool{}
	for _, w := range []windowPattern{
		{senders: []TX{{ID: 0}, {ID: 2, Msg: Msg{A: 1}}}, listeners: []int32{1}, rounds: 63, passes: [][]uint8{{63, 63}, {62, 63}}},
		{senders: []TX{{ID: 0}}, listeners: []int32{1, 3}, rounds: 63, passes: [][]uint8{{63}}},
	} {
		side := requireWindowMatchesSteps(t, "63-round pass", NewEngine(g), NewEngine(g), w)
		bySide[side] = true
	}
	if !bySide[true] || !bySide[false] {
		t.Fatalf("63-round passes by row side %v: want both", bySide)
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
	requirePanic(t, "ChargeListen during an open listen window", func() {
		e := NewEngine(g)
		e.Listen(nil, nil)
		e.ChargeListen(3, 1)
	})
	requirePanic(t, "listen window already open", func() {
		e := NewEngine(g)
		e.Listen(nil, nil)
		e.Listen(nil, nil)
	})
	requirePanic(t, "without an open listen window", func() {
		NewEngine(g).StepPass(1, nil, nil)
	})
}

// TestResetDiscardsWindow requires Reset to drop an open window — on either
// row side, even one abandoned by a panic — without charging its listeners,
// leaving an engine indistinguishable from a fresh one: no stale listener
// or sender mark and no stale row survives.
func TestResetDiscardsWindow(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	for _, c := range []struct {
		w            windowPattern
		receiverSide bool
	}{
		// Four sender arcs against two receiver arcs: rows from the receivers.
		{windowPattern{senders: []TX{{ID: 1}, {ID: 2}}, listeners: []int32{0, 3}, rounds: 3, passes: [][]uint8{{1, 2}}}, true},
		// One sender arc against four receiver arcs: rows from the senders.
		{windowPattern{senders: []TX{{ID: 0}}, listeners: []int32{1, 2}, rounds: 3, passes: [][]uint8{{2}}}, false},
	} {
		w := c.w
		e := NewEngine(g)
		e.Listen(w.senders, w.listeners)
		if e.ReceiverSide() != c.receiverSide {
			t.Fatalf("abandoned window %v: rows from the receivers' side %v, want %v", w, e.ReceiverSide(), c.receiverSide)
		}
		e.StepPass(w.rounds, w.passes[0], nil)
		recoverFrom(func() { e.Listen(nil, nil) }) // second window: panics, first stays open
		e.Reset(g)
		fresh := NewEngine(g)
		requireSameMeters(t, "after Reset", e, fresh)
		if e.ReceiverSide() {
			t.Fatal("Reset kept the abandoned window's row side")
		}
		// The abandoned window's devices swap roles: a stale mark would
		// panic, a stale row would deliver.
		e.Step([]TX{{ID: 1}}, []int32{0, 2}, make([]RX, 2))
		fresh.Step([]TX{{ID: 1}}, []int32{0, 2}, make([]RX, 2))
		swapped := windowPattern{senders: []TX{{ID: 3}}, listeners: []int32{1, 2, 0}, rounds: 2, passes: [][]uint8{{1}, {2}}}
		want := runWindow(fresh, swapped)
		got := runWindow(e, swapped)
		requireSide(t, "swapped window", e, swapped.senders, swapped.listeners)
		for pass := range want {
			if !sameHeard(got[pass], want[pass]) {
				t.Fatalf("pass %d after Reset: heard %+v, fresh engine %+v", pass, got[pass], want[pass])
			}
		}
		requireSameMeters(t, "reused after Reset", e, fresh)
	}
}

// TestWindowRoundZeroAllocs pins warmed passes — deliveries appended into a
// reused buffer — at zero allocations on both row sides, the property the
// Decay scratch's steady state depends on: the hub sends to every leaf
// (rows from the receivers' side: 64 leaf arcs against the hub's 64), and
// three leaves send to the hub (rows from the senders' side), which hears
// in the second pass.
func TestWindowRoundZeroAllocs(t *testing.T) {
	g := graph.Star(65)
	e := NewEngine(g)
	leaves := make([]int32, 0, 64)
	for v := int32(1); v <= 64; v++ {
		leaves = append(leaves, v)
	}
	hub := []TX{{ID: 0, Msg: Msg{A: 1}}}
	three := []TX{{ID: 1}, {ID: 2}, {ID: 3}}
	heard := make([]Heard, 0, 64)
	window := func(senders []TX, receivers []int32, passes [][]uint8) {
		e.Listen(senders, receivers)
		for _, when := range passes {
			heard = e.StepPass(4, when, heard[:0])
		}
		e.EndListen()
	}
	toLeaves, toHub := [][]uint8{{3}}, [][]uint8{{1, 1, 1}, {3, 1, 2}}
	hubOnly := []int32{0}
	var nAll, nHub int
	var allSide, hubSide bool
	run := func() {
		window(hub, leaves, toLeaves)
		nAll, allSide = len(heard), e.ReceiverSide()
		window(three, hubOnly, toHub)
		nHub, hubSide = len(heard), e.ReceiverSide()
	}
	run() // warm
	allocs := testing.AllocsPerRun(100, run)
	if allocs != 0 || nAll != len(leaves) || nHub != 1 {
		t.Fatalf("window passes allocate %v (heard %d and %d), want 0 allocations and %d and 1 deliveries",
			allocs, nAll, nHub, len(leaves))
	}
	if !allSide || hubSide {
		t.Fatalf("rows from the receivers' side: hub to leaves %v, leaves to hub %v; want true and false", allSide, hubSide)
	}
}

// fuzzWindow decodes a window from fuzz input: n ≤ 16 devices, 1 to 4
// passes from bits 1 and 2 of the second byte, a pass length of 1 to 63
// rounds, one bit per device pair for the edges, one byte per device for
// its role (idle, sender or receiver), one slot per sender per pass, and
// messages of varied size. Input that runs out reads as zeros.
func fuzzWindow(data []byte) (*graph.Graph, windowPattern) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var cur, left byte
	bit := func() bool {
		if left == 0 {
			cur, left = next(), 8
		}
		left--
		return cur>>left&1 == 1
	}
	n := 1 + int(next()%16)
	passes := 1 + int((next()>>1)%4)
	w := windowPattern{rounds: 1 + int(next()%63)}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if bit() {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	for v := int32(0); int(v) < n; v++ {
		switch next() % 3 {
		case 1:
			k := len(w.senders)
			w.senders = append(w.senders, TX{ID: v, Msg: Msg{A: uint64(k), B: uint64(next()) << (next() % 57)}})
		case 2:
			w.listeners = append(w.listeners, v)
		}
	}
	for ; passes > 0; passes-- {
		when := make([]uint8, len(w.senders))
		for k := range when {
			when[k] = 1 + next()%uint8(w.rounds)
		}
		w.passes = append(w.passes, when)
	}
	return b.Graph(), w
}

// FuzzPassMatchesSteps requires a listen window to deliver, pass by pass,
// exactly what per-round Step delivers on a decoded graph, sender/receiver
// split and slot schedule, and to leave the same meters, clock and
// violation counter.
func FuzzPassMatchesSteps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 4, 0xff, 0x1b, 1, 2, 3})
	f.Add([]byte{15, 7, 62, 0xa5, 0x5a, 0xff, 0x0f, 0xf0, 0x33, 0xcc, 0x81, 0x42, 0x24, 0x18, 0xe7, 0x7e, 0xbd, 0xdb,
		0x96, 0x69, 0x1e, 0x2d, 0x4b, 0x87, 9, 200, 13, 7, 1, 0, 2, 5, 60, 61, 62, 63, 3, 3, 3, 3})
	f.Add([]byte{8, 5, 11, 0xff, 0xff, 0xff, 0xff, 0x55, 0x55, 0x66, 0x99, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, w := fuzzWindow(data)
		budget := WithMaxMsgBits(40)
		win, ref := NewEngine(g, budget), NewEngine(g, budget)
		requireWindowMatchesSteps(t, "fuzzed window", win, ref, w)
	})
}
