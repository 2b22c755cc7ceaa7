package decay

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// stepLocalBroadcast is the per-round Local-Broadcast the listen window
// replaced, kept as the reference: every round rescans the senders for the
// slot's transmitters and hands the still-waiting receivers to Step.
func stepLocalBroadcast(e *radio.Engine, p Params, senders []radio.TX, receivers []int32, callSeed uint64, got []radio.Msg, ok []bool) {
	for i := range ok {
		ok[i] = false
		got[i] = radio.Msg{}
	}
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
					got[idx[j]] = out[j].Msg
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
// from the receivers' side. Some messages exceed the RN[O(log n)] budget,
// so the violation counter is compared too.
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

// degreeSums returns the arcs of the senders and of the receivers.
func degreeSums(g *graph.Graph, senders []radio.TX, receivers []int32) (s, r int) {
	for _, t := range senders {
		s += g.Degree(t.ID)
	}
	for _, v := range receivers {
		r += g.Degree(v)
	}
	return s, r
}

// TestLocalBroadcastMatchesPerRoundSteps is the byte-identity property of
// the listen-window Local-Broadcast: over random graphs, sender/receiver
// splits and pass counts, several consecutive calls on one engine through
// one reused Scratch must fill got/ok exactly like the per-round reference
// and leave every device's Energy/Listens/Transmits, the clock and the
// violation counter identical. Calls whose receivers have fewer arcs than
// their senders run on receiver-side rows; both kinds must occur.
func TestLocalBroadcastMatchesPerRoundSteps(t *testing.T) {
	seeds := uint64(300)
	if testing.Short() {
		seeds = 60
	}
	var s Scratch
	var byReceivers, byCSR int
	for seed := uint64(0); seed < seeds; seed++ {
		r := rng.New(rng.Derive(0x10ca1, seed))
		g, star := windowTestGraph(r)
		win, ref := radio.NewEngine(g), radio.NewEngine(g)
		calls := 1 + r.Intn(4)
		for call := 0; call < calls; call++ {
			senders, receivers := windowTestSplit(g.N(), star, r)
			p := ParamsFor(g.N(), 1+r.Intn(4))
			callSeed := r.Uint64()
			if sArcs, rArcs := degreeSums(g, senders, receivers); rArcs < sArcs {
				byReceivers++
			} else if len(senders) > 0 {
				byCSR++
			}
			got, ok := make([]radio.Msg, len(receivers)), make([]bool, len(receivers))
			wantGot, wantOK := make([]radio.Msg, len(receivers)), make([]bool, len(receivers))
			s.LocalBroadcast(win, p, senders, receivers, callSeed, got, ok)
			stepLocalBroadcast(ref, p, senders, receivers, callSeed, wantGot, wantOK)
			for i := range receivers {
				if got[i] != wantGot[i] || ok[i] != wantOK[i] {
					t.Fatalf("seed %d call %d: receiver %d got (%+v, %v), per-round (%+v, %v)",
						seed, call, receivers[i], got[i], ok[i], wantGot[i], wantOK[i])
				}
			}
			if win.Round() != ref.Round() || win.MsgViolations() != ref.MsgViolations() {
				t.Fatalf("seed %d call %d: clock/violations (%d, %d), per-round (%d, %d)",
					seed, call, win.Round(), win.MsgViolations(), ref.Round(), ref.MsgViolations())
			}
			for v := int32(0); int(v) < g.N(); v++ {
				if win.Energy(v) != ref.Energy(v) || win.Listens(v) != ref.Listens(v) || win.Transmits(v) != ref.Transmits(v) {
					t.Fatalf("seed %d call %d: device %d meters (%d,%d,%d), per-round (%d,%d,%d)", seed, call, v,
						win.Energy(v), win.Listens(v), win.Transmits(v), ref.Energy(v), ref.Listens(v), ref.Transmits(v))
				}
			}
		}
	}
	if byReceivers == 0 || byCSR == 0 {
		t.Fatalf("%d calls on receiver-side rows and %d with senders on CSR rows: want both", byReceivers, byCSR)
	}
}
