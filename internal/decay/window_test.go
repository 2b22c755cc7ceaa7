package decay

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/progress"
	"repro/internal/radio"
	"repro/internal/rng"
)

// stepLocalBroadcast is the per-round Local-Broadcast the listen window
// replaced, kept as the reference: every round rescans the senders for the
// slot's transmitters and hands the still-waiting receivers to Step. got
// may be nil, as for Scratch.LocalBroadcast.
func stepLocalBroadcast(e *radio.Engine, p Params, senders []radio.TX, receivers []int32, callSeed uint64, got []radio.Msg, ok []bool) {
	clear(got)
	clear(ok)
	if len(senders) == 0 && len(receivers) == 0 {
		e.SkipRounds(p.Duration())
		return
	}
	active := append([]int32(nil), receivers...)
	idx := make([]int, len(receivers))
	for i := range idx {
		idx[i] = i
	}
	slotOf := make([]int, len(senders))
	out := make([]radio.RX, len(receivers))
	var r rng.Source
	for pass := 0; pass < p.Passes; pass++ {
		for i := range senders {
			r.Reseed(rng.Derive(callSeed, uint64(pass), uint64(senders[i].ID)))
			slotOf[i] = r.GeometricSlot(p.Slots)
		}
		for slot := 1; slot <= p.Slots; slot++ {
			var tx []radio.TX
			for i := range senders {
				if slotOf[i] == slot {
					tx = append(tx, senders[i])
				}
			}
			if len(tx) == 0 && len(active) == 0 {
				e.SkipRounds(1)
				continue
			}
			e.Step(tx, active, out[:len(active)])
			w := 0
			for j := range active {
				if out[j].OK {
					if got != nil {
						got[idx[j]] = out[j].Msg
					}
					ok[idx[j]] = true
				} else {
					active[w], idx[w] = active[j], idx[j]
					w++
				}
			}
			active, idx = active[:w], idx[:w]
		}
	}
}

// windowTestGraph draws one topology for the comparison: G(n,p), a star
// (whose split makes the leaves contend for the hub), a random tree or a
// grid, with n = 1 and n = 2 drawn often.
func windowTestGraph(r *rng.Source) (g *graph.Graph, star bool) {
	n := 1 + r.Intn(70)
	if r.Intn(4) == 0 {
		n = 1 + r.Intn(2)
	}
	switch r.Intn(4) {
	case 0:
		return graph.GNP(n, r.Float64()*0.3, r), false
	case 1:
		return graph.Star(n), true
	case 2:
		return graph.RandomTree(n, r), false
	default:
		rows := 1 + r.Intn(8)
		return graph.Grid(rows, 1+(n-1)/rows), false
	}
}

// windowTestSplit draws disjoint senders and receivers in shuffled order,
// either side possibly empty. On a star the hub listens and most leaves
// send. A sender-heavy split (one in four elsewhere) has a handful of
// receivers and most other vertices sending, so the engine's rows come
// from the receivers' side. Some messages exceed the tight 40-bit budget
// the comparison's engines use, so the violation counter is compared too.
func windowTestSplit(n int, star bool, r *rng.Source) ([]radio.TX, []int32) {
	pSend, pRecv := r.Intn(4), r.Intn(4) // out of 4; 0 leaves a side empty
	few := 0
	if !star && r.Intn(4) == 0 {
		pSend, pRecv, few = 3, 0, 1+r.Intn(3)
	}
	var senders []radio.TX
	var receivers []int32
	for _, v := range r.Perm(n) {
		roll := r.Intn(4)
		switch {
		case star && v == 0, len(receivers) < few:
			receivers = append(receivers, int32(v))
		case star:
			if roll != 0 {
				senders = append(senders, radio.TX{ID: int32(v), Msg: radio.Msg{A: uint64(v), C: r.Uint64() >> r.Intn(64)}})
			}
		case roll < pSend:
			senders = append(senders, radio.TX{ID: int32(v), Msg: radio.Msg{A: uint64(v), C: r.Uint64() >> r.Intn(64)}})
		case roll < pSend+pRecv:
			receivers = append(receivers, int32(v))
		}
	}
	return senders, receivers
}

// fromReceivers reports whether a listen window with these senders and
// receivers must build its rows from the receivers' adjacency: whether the
// receivers have no more arcs than the senders.
func fromReceivers(g *graph.Graph, senders []radio.TX, receivers []int32) bool {
	var s, r int
	for _, t := range senders {
		s += g.Degree(t.ID)
	}
	for _, v := range receivers {
		r += g.Degree(v)
	}
	return r <= s
}

// requireSide requires the latest listen window on e, with these senders
// and receivers, to have built its rows on the side fromReceivers picks.
func requireSide(t *testing.T, what string, e *radio.Engine, senders []radio.TX, receivers []int32) {
	t.Helper()
	if want := fromReceivers(e.Graph(), senders, receivers); e.ReceiverSide() != want {
		t.Fatalf("%s: rows from the receivers' side %v, want %v", what, e.ReceiverSide(), want)
	}
}

// TestLocalBroadcastMatchesPerRoundSteps is the byte-identity property of
// the listen-window Local-Broadcast: over random graphs, sender/receiver
// splits and pass counts, several consecutive calls on one engine through
// one reused Scratch must fill got/ok exactly like the per-round reference
// and leave every device's Energy/Listens/Transmits, the clock and the
// violation counter identical. Calls whose receivers have no more arcs
// than their senders must take their rows from the receivers' side, the
// others from the senders'; both must occur.
func TestLocalBroadcastMatchesPerRoundSteps(t *testing.T) {
	seeds := uint64(300)
	if testing.Short() {
		seeds = 60
	}
	var s Scratch
	bySide := map[bool]int{}
	var violations int64
	for seed := uint64(0); seed < seeds; seed++ {
		r := rng.New(rng.Derive(0x10ca1, seed))
		g, star := windowTestGraph(r)
		budget := radio.WithMaxMsgBits(40)
		win, ref := radio.NewEngine(g, budget), radio.NewEngine(g, budget)
		calls := 1 + r.Intn(4)
		for call := 0; call < calls; call++ {
			senders, receivers := windowTestSplit(g.N(), star, r)
			p := ParamsFor(g.N(), 1+r.Intn(4))
			callSeed := r.Uint64()
			got, ok := make([]radio.Msg, len(receivers)), make([]bool, len(receivers))
			wantGot, wantOK := make([]radio.Msg, len(receivers)), make([]bool, len(receivers))
			s.LocalBroadcast(win, p, senders, receivers, callSeed, got, ok)
			stepLocalBroadcast(ref, p, senders, receivers, callSeed, wantGot, wantOK)
			if len(senders) > 0 && len(receivers) > 0 {
				requireSide(t, fmt.Sprintf("seed %d call %d", seed, call), win, senders, receivers)
				bySide[win.ReceiverSide()]++
			}
			for i := range receivers {
				if got[i] != wantGot[i] || ok[i] != wantOK[i] {
					t.Fatalf("seed %d call %d: receiver %d got (%+v, %v), per-round (%+v, %v)",
						seed, call, receivers[i], got[i], ok[i], wantGot[i], wantOK[i])
				}
			}
			requireSameMeters(t, fmt.Sprintf("seed %d call %d", seed, call), win, ref)
		}
		violations += win.MsgViolations()
	}
	if bySide[true] == 0 || bySide[false] == 0 {
		t.Fatalf("calls by row side (receivers' side true) %v: want both", bySide)
	}
	if violations == 0 {
		t.Fatal("no message exceeded the budget: the violation counter went untested")
	}
}

// requireSameMeters requires every device's Energy/Listens/Transmits, the
// clock and the violation counter of got to equal want's.
func requireSameMeters(t *testing.T, what string, got, want *radio.Engine) {
	t.Helper()
	if got.Round() != want.Round() || got.MsgViolations() != want.MsgViolations() {
		t.Fatalf("%s: clock/violations (%d, %d), per-round (%d, %d)",
			what, got.Round(), got.MsgViolations(), want.Round(), want.MsgViolations())
	}
	for v := int32(0); int(v) < got.N(); v++ {
		if got.Energy(v) != want.Energy(v) || got.Listens(v) != want.Listens(v) || got.Transmits(v) != want.Transmits(v) {
			t.Fatalf("%s: device %d meters (%d,%d,%d), per-round (%d,%d,%d)", what, v,
				got.Energy(v), got.Listens(v), got.Transmits(v), want.Energy(v), want.Listens(v), want.Transmits(v))
		}
	}
}

// bfsWave is what one call of a Decay BFS lists: whether its receivers
// are the frontier's unlabeled neighbours rather than every unlabeled
// vertex, and whether they have no more arcs than its senders, which must
// put the listen window's rows on the receivers' side.
type bfsWave struct {
	frontierOnly, receiverSide bool
}

// stepBFS is Scratch.BFS with every Local-Broadcast run round by round
// through stepLocalBroadcast, every unlabeled vertex listening in every
// call. It returns the labels and, for each call, the receivers Scratch.BFS
// lists by its rule: the frontier's unlabeled neighbours while the frontier
// has fewer arcs than the length of Scratch.BFS's list of unlabeled
// vertices, else every unlabeled vertex. That list starts with every
// vertex but the sources, and each call listing every unlabeled vertex
// cuts it to the ones still unlabeled after the call.
func stepBFS(e *radio.Engine, p Params, srcs []int32, maxDist int, seed uint64) (dist []int32, waves []bfsWave) {
	g := e.Graph()
	dist = make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	for _, v := range srcs {
		dist[v] = 0
	}
	frontier := append([]int32(nil), srcs...)
	var unlabeled []int32
	for v := range dist {
		if dist[v] == -1 {
			unlabeled = append(unlabeled, int32(v))
		}
	}
	kept := len(unlabeled)
	for k := int32(1); int(k) <= maxDist && len(frontier) > 0 && len(unlabeled) > 0; k++ {
		var senders []radio.TX
		frontierArcs := 0
		for _, v := range frontier {
			senders = append(senders, radio.TX{ID: v, Msg: radio.Msg{Kind: 1, A: uint64(k - 1)}})
			frontierArcs += g.Degree(v)
		}
		listed, frontierOnly := unlabeled, frontierArcs < kept
		if frontierOnly {
			listed = nil
			for _, v := range unlabeled {
				if slices.ContainsFunc(g.Neighbors(v), func(u int32) bool { return dist[u] == k-1 }) {
					listed = append(listed, v)
				}
			}
		}
		waves = append(waves, bfsWave{frontierOnly, fromReceivers(g, senders, listed)})
		ok := make([]bool, len(unlabeled))
		stepLocalBroadcast(e, p, senders, unlabeled, rng.Derive(seed, uint64(k)), nil, ok)
		frontier = frontier[:0]
		var rest []int32
		for j, v := range unlabeled {
			if ok[j] {
				dist[v] = k
				frontier = append(frontier, v)
			} else {
				rest = append(rest, v)
			}
		}
		unlabeled = rest
		if !frontierOnly {
			kept = len(unlabeled)
		}
	}
	return dist, waves
}

// bfsTestGraph is one topology of the whole-BFS comparisons; bothSides
// marks the graphs on which every search must build rows on both sides,
// and lists names the receiver lists every search must use: "both" (the
// frontier's neighbours in some calls, every unlabeled vertex in others),
// "frontier" (only the frontier's neighbours) or "" (either).
type bfsTestGraph struct {
	name      string
	g         *graph.Graph
	bothSides bool
	lists     string
}

// bfsTestGraphs returns the whole-BFS comparisons' graphs at n ≈ 4096.
func bfsTestGraphs() []bfsTestGraph {
	r := rng.New(4096)
	return []bfsTestGraph{
		{"gnp", graph.ConnectedGNP(4096, 0.002, r), true, "both"},
		{"star", graph.Star(4097), true, ""},
		{"grid", graph.Grid(64, 64), false, "frontier"},
		{"tree", graph.RandomTree(4096, r), true, ""},
	}
}

// receiverLists names the receiver lists of a search's calls, as
// bfsTestGraph.lists does.
func receiverLists(waves []bfsWave) string {
	frontier, all := false, false
	for _, w := range waves {
		frontier, all = frontier || w.frontierOnly, all || !w.frontierOnly
	}
	switch {
	case frontier && all:
		return "both"
	case frontier:
		return "frontier"
	}
	return "all"
}

// TestBFSMatchesPerRoundSteps compares whole Decay BFSs at n ≈ 4096 with
// the same searches run round by round through Step, every unlabeled
// vertex listening in every wave: labels, every device's meters, the clock
// and the violation counter must be equal, at 1 to 3 passes. Each wave's
// listen window must build its rows on the side the degree-sum rule picks
// for the receivers the wave lists, which stepBFS derives by Scratch.BFS's
// own rule. Each search starts at the last vertex — a leaf of the star, a
// corner of the grid — so its narrow first waves list only the frontier's
// neighbours and take their rows from the senders' side. On G(n,p), the
// star and the tree a later wave sends to fewer arcs than its own (on the
// star, the hub to every other leaf), so each of their searches must use
// both sides. G(n,p)'s wide middle waves list every unlabeled vertex, so
// its searches must use both lists. The grid's frontier never has as many
// arcs as the BFS's list of unlabeled vertices has entries (n - 1, since
// only a wave listing them all cuts it), so its waves list only the
// frontier's neighbours.
func TestBFSMatchesPerRoundSteps(t *testing.T) {
	var s Scratch
	for _, c := range bfsTestGraphs() {
		for passes := 1; passes <= 3; passes++ {
			n := c.g.N()
			p := ParamsFor(n, passes)
			src := []int32{int32(n - 1)}
			seed := rng.Derive(0xbf5, uint64(passes), uint64(n))
			budget := radio.WithMaxMsgBits(8) // every label but 0 is oversized
			win, ref := radio.NewEngine(c.g, budget), radio.NewEngine(c.g, budget)
			var got []bool // each call's row side, read from the engine after the call
			h := progress.Hooks{Obs: progress.Funcs{OnRoundBatch: func(string, int64) {
				got = append(got, win.ReceiverSide())
			}}}
			res := s.BFS(h, win, p, src, n, seed)
			want, waves := stepBFS(ref, p, src, n, seed)
			what := fmt.Sprintf("%s passes %d", c.name, passes)
			for v := range want {
				if res.Dist[v] != want[v] {
					t.Fatalf("%s: vertex %d labelled %d, per-round %d", what, v, res.Dist[v], want[v])
				}
			}
			requireSameMeters(t, what, win, ref)
			if win.MsgViolations() == 0 {
				t.Fatalf("%s: no oversized label", what)
			}
			if res.Rounds != ref.Round() || res.LBCalls != int64(len(waves)) {
				t.Fatalf("%s: %d rounds in %d calls, per-round %d in %d", what, res.Rounds, res.LBCalls, ref.Round(), len(waves))
			}
			var sides []bool
			for _, w := range waves {
				sides = append(sides, w.receiverSide)
			}
			if !slices.Equal(got, sides) {
				t.Fatalf("%s: calls by row side (receivers' side true) %v, by the degree-sum rule %v", what, got, sides)
			}
			if c.bothSides && (!slices.Contains(got, true) || !slices.Contains(got, false)) {
				t.Fatalf("%s: calls by row side (receivers' side true) %v, want both", what, got)
			}
			if lists := receiverLists(waves); c.lists != "" && lists != c.lists {
				t.Fatalf("%s: receiver lists %q, want %q", what, lists, c.lists)
			}
		}
	}
}

// TestCanceledBFSSettlesLikeShorterSearch cancels Decay BFSs through
// progress.Hooks.Ctx once k ∈ {1, 3} waves have run, on the gnp and grid
// graphs of TestBFSMatchesPerRoundSteps at 1 to 3 passes, and requires
// what the same search run round by round to maxDist k leaves: labels,
// every device's meters, the clock, the violation counter, Rounds and
// LBCalls. A cancellation stops the search before its next wave, with
// every meter settled.
func TestCanceledBFSSettlesLikeShorterSearch(t *testing.T) {
	var s Scratch
	for _, c := range bfsTestGraphs() {
		if c.name != "gnp" && c.name != "grid" {
			continue
		}
		n := c.g.N()
		src := []int32{int32(n - 1)}
		for passes := 1; passes <= 3; passes++ {
			p := ParamsFor(n, passes)
			seed := rng.Derive(0xbf5, uint64(passes), uint64(n))
			for _, k := range []int{1, 3} {
				budget := radio.WithMaxMsgBits(8)
				win, ref := radio.NewEngine(c.g, budget), radio.NewEngine(c.g, budget)
				ctx, cancel := context.WithCancel(context.Background())
				waves := 0
				h := progress.Hooks{Ctx: ctx, Obs: progress.Funcs{OnRoundBatch: func(string, int64) {
					if waves++; waves == k {
						cancel()
					}
				}}}
				res := s.BFS(h, win, p, src, n, seed)
				cancel()
				want, sides := stepBFS(ref, p, src, k, seed)
				what := fmt.Sprintf("%s passes %d canceled after %d waves", c.name, passes, k)
				if !slices.Equal(res.Dist, want) {
					t.Fatalf("%s: labels differ from a search to maxDist %d", what, k)
				}
				requireSameMeters(t, what, win, ref)
				if res.LBCalls != int64(k) || res.LBCalls != int64(len(sides)) || res.Rounds != ref.Round() {
					t.Fatalf("%s: %d rounds in %d calls, per-round to maxDist %d: %d in %d",
						what, res.Rounds, res.LBCalls, k, ref.Round(), len(sides))
				}
			}
		}
	}
}

// fuzzBFS decodes a Decay BFS from fuzz input: n ≤ 64 vertices, a shape
// (edges from one bit per vertex pair, a star, a grid of 1 to 8 rows, or a
// tree with one parent byte per vertex), 1 to 3 passes, 1 to 3 distinct
// sources, a radius of 0 to 65, a wave count after which the search is
// canceled (0: never), a message budget of 8 to 11 bits and a seed. Input
// that runs out reads as zeros.
func fuzzBFS(data []byte) (g *graph.Graph, srcs []int32, passes, radius, cancelAfter, budget int, seed uint64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 1 + int(next()%64)
	switch next() % 4 {
	case 0:
		var cur, left byte
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if left == 0 {
					cur, left = next(), 8
				}
				if left--; cur>>left&1 == 1 {
					b.AddEdge(int32(u), int32(v))
				}
			}
		}
		g = b.Graph()
	case 1:
		g = graph.Star(n)
	case 2:
		rows := 1 + int(next()%8)
		g = graph.Grid(rows, max(n/rows, 1))
	default:
		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			b.AddEdge(int32(v), int32(int(next())%v))
		}
		g = b.Graph()
	}
	passes = 1 + int(next()%3)
	for k := 1 + int(next()%3); k > 0; k-- {
		if v := int32(int(next()) % g.N()); !slices.Contains(srcs, v) {
			srcs = append(srcs, v)
		}
	}
	radius, cancelAfter, budget = int(next()%66), int(next()%8), 8+int(next()%4)
	seed = uint64(next())<<8 | uint64(next())
	return g, srcs, passes, radius, cancelAfter, budget, seed
}

// FuzzBFSMatchesSteps requires a whole Decay BFS, on a decoded graph,
// source set, pass count, radius and cancellation, to leave what stepBFS
// leaves run to the same radius (the smaller of the radius and the
// cancellation's wave count): labels, every device's meters, the clock,
// the violation counter, Rounds, LBCalls and MaxDepth, and each wave's
// listen window on the row side the degree-sum rule picks for the
// receivers it lists. The Scratch first runs another search on the same
// graph, so the compared one starts from used buffers.
func FuzzBFSMatchesSteps(f *testing.F) {
	f.Add([]byte{})
	gnp := []byte{63, 0}
	for i := 0; i < 252; i++ {
		gnp = append(gnp, []byte{0x01, 0x40, 0x02, 0x00, 0x10, 0x00, 0x80, 0x04}[i%8])
	}
	f.Add(append(gnp, 1, 0, 63, 65, 0, 0, 0x1d, 0x42))   // sparse edges from the last vertex
	f.Add([]byte{63, 1, 1, 0, 63, 65, 0, 0, 0x51, 0x17}) // star from a leaf: the hub, then every other leaf
	f.Add([]byte{63, 2, 7, 0, 0, 63, 65, 0, 2, 0x97, 3}) // 8×8 grid from its last corner
	f.Add([]byte{63, 2, 7, 1, 0, 63, 65, 3, 0, 0x97, 3}) // the grid canceled after three waves
	tree := []byte{63, 3}
	for v := 1; v < 64; v++ {
		tree = append(tree, byte(v*37%251))
	}
	f.Add(append(tree, 1, 1, 0, 40, 65, 0, 1, 0x7e, 5)) // a tree from two sources
	f.Fuzz(func(t *testing.T, data []byte) {
		g, srcs, passes, radius, cancelAfter, bits, seed := fuzzBFS(data)
		n := g.N()
		p := ParamsFor(n, passes)
		budget := radio.WithMaxMsgBits(bits)
		var s Scratch
		s.BFS(progress.Hooks{}, radio.NewEngine(g, budget), p, []int32{int32(n - 1)}, n, ^seed)
		win, ref := radio.NewEngine(g, budget), radio.NewEngine(g, budget)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var sides []bool
		h := progress.Hooks{Ctx: ctx, Obs: progress.Funcs{OnRoundBatch: func(string, int64) {
			if sides = append(sides, win.ReceiverSide()); len(sides) == cancelAfter {
				cancel()
			}
		}}}
		res := s.BFS(h, win, p, srcs, radius, seed)
		to := radius
		if cancelAfter > 0 {
			to = min(radius, cancelAfter)
		}
		want, waves := stepBFS(ref, p, srcs, to, seed)
		what := fmt.Sprintf("n=%d srcs %v passes %d radius %d cancel after %d", n, srcs, passes, radius, cancelAfter)
		if !slices.Equal(res.Dist, want) {
			t.Fatalf("%s: labels %v, per-round %v", what, res.Dist, want)
		}
		requireSameMeters(t, what, win, ref)
		if res.Rounds != ref.Round() || res.LBCalls != int64(len(waves)) || res.MaxDepth != slices.Max(want) {
			t.Fatalf("%s: %d rounds in %d calls to depth %d, per-round %d in %d to depth %d",
				what, res.Rounds, res.LBCalls, res.MaxDepth, ref.Round(), len(waves), slices.Max(want))
		}
		for i, w := range waves {
			if sides[i] != w.receiverSide {
				t.Fatalf("%s: call %d rows from the receivers' side %v, by the degree-sum rule %v", what, i+1, sides[i], w.receiverSide)
			}
		}
	})
}
