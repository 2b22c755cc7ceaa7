// Package decay implements the Decay protocol of Bar-Yehuda, Goldreich and
// Itai, in the form the paper uses it: the Local-Broadcast primitive of
// Lemma 2.4. Given disjoint sender and receiver sets S and R, after one
// Local-Broadcast every receiver with at least one sender-neighbor has, with
// probability 1 - f, received some message from one such neighbor.
//
// Costs (Lemma 2.4): O(log Δ · log f⁻¹) time; senders spend O(log f⁻¹)
// energy; receivers that hear a message spend O(log Δ) energy in
// expectation; receivers that hear nothing spend O(log Δ · log f⁻¹).
//
// The package also provides the classic everyone-awake Decay BFS baseline
// (O(D log² n) time and — crucially for the paper — Θ(D log² n) energy per
// vertex), the comparator for the energy-efficient Recursive-BFS. Its
// meters are the schedule's, but a narrow wave hands the engine only the
// listeners next to its frontier and charges the silent rest in one add
// each, so simulating a wave costs its frontier, not every unlabeled
// vertex.
package decay

import (
	"repro/internal/progress"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/scratch"
)

// PhaseBFS is the progress phase name of the Decay BFS wavefront loop; each
// round batch is one wavefront step (p.Duration() physical rounds).
const PhaseBFS = "decay-bfs"

// Params fixes the shape of one Local-Broadcast: Passes repetitions of
// Slots decay steps. Every Local-Broadcast with the same Params takes
// exactly Duration() rounds, which is what keeps sleeping devices
// synchronized with active ones.
type Params struct {
	Slots  int // slots per pass: ⌈log₂ Δ⌉ + 1, with Δ ≤ n-1
	Passes int // repetitions: Θ(log f⁻¹)
}

// ParamsFor returns Local-Broadcast parameters for an n-device network with
// the given number of passes. Slots is ⌈log₂ n⌉ + 1 so that any neighborhood
// size is covered.
func ParamsFor(n, passes int) Params {
	slots := 1
	for 1<<slots < n {
		slots++
	}
	if passes < 1 {
		passes = 1
	}
	return Params{Slots: slots + 1, Passes: passes}
}

// Duration returns the fixed number of physical rounds per Local-Broadcast.
func (p Params) Duration() int64 {
	return int64(p.Slots) * int64(p.Passes)
}

// Scratch owns the reusable buffers behind the Decay primitives. A zero
// Scratch is ready to use; buffers grow to the largest call seen and are
// then reused, so steady-state Local-Broadcast rounds allocate nothing.
// A Scratch is not safe for concurrent use; the trial harness keeps one per
// worker.
type Scratch struct {
	when  []uint8       // each sender's decay slot in the current pass
	heard []radio.Heard // one pass's deliveries
	rnd   rng.Source

	// BFS state. settled[v] counts the narrow steps (see BFS) v's
	// listening is charged for: those that listed it, and those before.
	dist      []int32
	settled   []int32
	frontier  []int32
	unlabeled []int32
	ok        []bool
	senders   []radio.TX
}

// LocalBroadcast runs one Local-Broadcast on the engine. senders carry their
// messages; receivers[i]'s result is written to got[i], ok[i]. A receiver
// stops listening as soon as it hears a message (the energy optimization of
// Lemma 2.4); senders transmit once per pass in a decay-distributed slot.
// callSeed must be fresh per call (derive it from a root seed and a call
// counter). ok must have len(receivers), and so must got unless it is nil:
// a caller that reads only who heard passes nil and no message is stored.
//
// The call is one listen window on the engine (radio.Engine.Listen), run a
// pass at a time: each pass draws every sender's slot and hands the slots
// to Engine.StepPass, which resolves each waiting receiver from its row of
// sending neighbours, built once per call from the side with fewer arcs.
// So the call costs that build plus, per pass, the senders and the rows
// still waiting, not one walk of every transmitter's arcs per round, and a
// receiver with no sending neighbour is touched only when it is marked and
// charged.
func (s *Scratch) LocalBroadcast(e *radio.Engine, p Params, senders []radio.TX, receivers []int32, callSeed uint64, got []radio.Msg, ok []bool) {
	if (got != nil && len(got) != len(receivers)) || len(ok) != len(receivers) {
		panic("decay: result slices must match receivers length")
	}
	clear(got)
	clear(ok)
	if len(senders) == 0 && len(receivers) == 0 {
		e.SkipRounds(p.Duration())
		return
	}
	// A pass delivers to each receiver at most once, so heard never grows
	// past len(receivers).
	when := scratch.Grow(s.when, len(senders))
	heard := scratch.Grow(s.heard, len(receivers))
	s.when, s.heard = when, heard
	e.Listen(senders, receivers)
	for pass := 0; pass < p.Passes; pass++ {
		// Each sender independently picks its decay slot for this pass,
		// from the seed Derive(callSeed, pass, ID).
		passSeed := rng.Derive(callSeed, uint64(pass))
		for i := range senders {
			s.rnd.Reseed(rng.Extend(passSeed, uint64(senders[i].ID)))
			when[i] = uint8(s.rnd.GeometricSlot(p.Slots))
		}
		for _, h := range e.StepPass(p.Slots, when, heard[:0]) {
			ok[h.Index] = true
			if got != nil {
				got[h.Index] = senders[h.From].Msg
			}
		}
	}
	e.EndListen()
}

// BFSResult carries the outcome of a Decay BFS run.
type BFSResult struct {
	Dist     []int32 // hop distance from the source set, -1 where not reached
	Rounds   int64   // physical rounds consumed
	LBCalls  int64   // Local-Broadcast invocations
	MaxDepth int32   // largest assigned label
}

// BFS runs the classic Decay BFS from srcs: in wavefront step k every vertex
// labeled k-1 is a sender and every unlabeled vertex listens. Every vertex
// stays awake until labeled, which is exactly why this baseline costs
// Θ(D log² n) energy per vertex. The search stops after maxDist wavefront
// steps or when a step labels nothing. srcs must be duplicate-free.
//
// A listener with no sending neighbour hears only silence and draws
// nothing, so a step need list as receivers only the vertices that can
// hear. Each step takes the cheaper of two lists, as graph.MultiSourceBFS
// picks its direction. While the frontier has fewer arcs than the BFS's
// list of unlabeled vertices has entries, the step is narrow: its
// receivers are the frontier's unlabeled neighbours, found from its arcs.
// Otherwise it is wide and lists every unlabeled vertex. A wide step
// drops from the list the vertices it labels, as a narrow one does not.
// Either way each receiver hears exactly what it would with everyone
// listening. A vertex left out of a narrow step owes that step's
// p.Duration() rounds of listening, and Engine.ChargeListen charges them
// when a narrow step next lists it, or when a walk of the list before a
// wide step or at the end of the search meets it; that walk also drops
// the vertices narrow steps labeled. So a narrow step costs its
// frontier's arcs, not every unlabeled vertex, and labels, meters, clock
// and violation count are those of the schedule with every unlabeled
// vertex listed.
//
// The wavefront loop polls h.Err before every step — a canceled context
// stops the search within one wavefront step and returns the labels
// assigned so far, with all meters settled — and reports each completed
// step as a round batch of p.Duration() physical rounds under PhaseBFS.
// The zero Hooks observe nothing and never cancel.
//
// The returned Dist slice aliases the Scratch and is valid until the next
// BFS call on the same Scratch; copy it to retain it longer.
func (s *Scratch) BFS(h progress.Hooks, e *radio.Engine, p Params, srcs []int32, maxDist int, seed uint64) BFSResult {
	h.Start(PhaseBFS)
	defer h.End(PhaseBFS)
	g := e.Graph()
	n := g.N()
	start := e.Round()
	dur := p.Duration()
	dist := scratch.Grow(s.dist, n)
	settled := scratch.Grow(s.settled, n)
	s.dist, s.settled = dist, settled
	for i := range dist {
		dist[i] = -1
	}
	clear(settled)
	frontier := append(s.frontier[:0], srcs...)
	frontierArcs := 0
	for _, v := range srcs {
		dist[v] = 0
		frontierArcs += g.Degree(v)
	}
	unlabeled := s.unlabeled[:0]
	for v := int32(0); v < int32(n); v++ {
		if dist[v] == -1 {
			unlabeled = append(unlabeled, v)
		}
	}
	left := len(unlabeled)
	// unlabeled holds the unlabeled vertices as of its latest walk: a
	// narrow step neither drops the vertices it labels nor charges the
	// ones it leaves out, and marks the list stale until settle walks it.
	var narrow int32 // narrow steps so far
	stale := false
	settle := func() {
		w := 0
		for _, v := range unlabeled {
			if dist[v] != -1 {
				continue
			}
			if idle := narrow - settled[v]; idle > 0 {
				e.ChargeListen(v, int64(idle)*dur)
				settled[v] = narrow
			}
			unlabeled[w] = v
			w++
		}
		unlabeled, stale = unlabeled[:w], false
	}
	ok := scratch.Grow(s.ok, n)
	s.ok = ok
	senders := s.senders
	var res BFSResult
	for k := int32(1); int(k) <= maxDist && len(frontier) > 0 && left > 0; k++ {
		if h.Err() != nil {
			break // canceled: partial labels, meters settled below
		}
		// Sized to the wave, not to n: a narrow search keeps a small
		// buffer, and a wide wave allocates once rather than doubling.
		senders = scratch.Grow(senders, len(frontier))
		for i, v := range frontier {
			senders[i] = radio.TX{ID: v, Msg: radio.Msg{Kind: 1, A: uint64(k - 1)}}
		}
		var receivers []int32
		wide := frontierArcs >= len(unlabeled)
		if wide {
			if stale {
				settle()
			}
			receivers = unlabeled
		} else {
			// The senders hold the frontier, so its buffer takes the
			// receivers. settled[u] == narrow marks u as already taken;
			// before that, u is charged the narrow steps that left it out.
			narrow, stale = narrow+1, true
			receivers = frontier[:0]
			for i := range senders {
				for _, u := range g.Neighbors(senders[i].ID) {
					if dist[u] == -1 && settled[u] != narrow {
						if idle := narrow - 1 - settled[u]; idle > 0 {
							e.ChargeListen(u, int64(idle)*dur)
						}
						settled[u] = narrow
						receivers = append(receivers, u)
					}
				}
			}
			frontier = receivers
		}
		s.LocalBroadcast(e, p, senders, receivers, rng.Derive(seed, uint64(k)), nil, ok[:len(receivers)])
		res.LBCalls++
		h.Rounds(PhaseBFS, dur)
		// The receivers that heard form the next frontier, and a wide
		// step's list keeps the rest; in place when they share a buffer,
		// since neither write passes the read.
		frontier, frontierArcs = frontier[:0], 0
		w := 0
		for j, v := range receivers {
			if ok[j] {
				dist[v] = k
				frontier = append(frontier, v)
				frontierArcs += g.Degree(v)
			} else if wide {
				unlabeled[w] = v
				w++
			}
		}
		if wide {
			unlabeled = unlabeled[:w]
		}
		if len(frontier) > 0 {
			left -= len(frontier)
			res.MaxDepth = k
		}
	}
	if stale {
		settle() // every vertex still unlabeled listened through every step
	}
	s.frontier, s.unlabeled, s.senders = frontier, unlabeled, senders
	res.Dist = dist
	res.Rounds = e.Round() - start
	return res
}
