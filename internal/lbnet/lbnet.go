package lbnet

import (
	"repro/internal/decay"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// Net is a radio network driven by collective Local-Broadcast calls.
type Net interface {
	// N returns the number of vertices at this level.
	N() int
	// GlobalN returns the physical network size n, the parameter in all
	// logarithmic factors and failure probabilities.
	GlobalN() int
	// LocalBroadcast performs one collective Local-Broadcast: every listed
	// sender transmits its message; every listed receiver listens. All other
	// vertices sleep. got[i], ok[i] report the delivery for receivers[i]:
	// with at least one sending neighbor, a receiver hears some neighbor's
	// message with probability at least 1-f. Senders and receivers must be
	// disjoint and duplicate-free. The call advances the clock by exactly
	// one LB unit regardless of participation.
	LocalBroadcast(senders []radio.TX, receivers []int32, got []radio.Msg, ok []bool)
	// SkipLB advances the clock by k LB units with every vertex asleep.
	SkipLB(k int64)
	// LBTime returns the number of LB units elapsed, including skipped ones.
	LBTime() int64
	// LBEnergy returns how many Local-Broadcasts vertex v has participated
	// in (as sender or receiver) — the paper's energy measure in LB units.
	LBEnergy(v int32) int64
	// Graph returns the reference topology of this level. It exists for
	// analysis and tests; algorithm code must not use it to communicate.
	Graph() *graph.Graph
}

// MaxLBEnergy returns the maximum per-vertex LB-unit energy on net.
func MaxLBEnergy(net Net) int64 {
	var m int64
	if lb, ok := net.(metered); ok {
		for _, e := range lb.lbMeters() {
			m = max(m, e)
		}
		return m
	}
	for v := range int32(net.N()) {
		m = max(m, net.LBEnergy(v))
	}
	return m
}

// TotalLBEnergy returns the aggregate LB-unit energy on net.
func TotalLBEnergy(net Net) int64 {
	var s int64
	if lb, ok := net.(metered); ok {
		for _, e := range lb.lbMeters() {
			s += e
		}
		return s
	}
	for v := range int32(net.N()) {
		s += net.LBEnergy(v)
	}
	return s
}

// metered is a Net that keeps its LB-unit energies in one slice, which
// MaxLBEnergy and TotalLBEnergy read directly.
type metered interface{ lbMeters() []int64 }

// meters is the shared accounting embedded by UnitNet and PhysNet. A
// PhysNet's energy stays nil, reading 0 for every vertex, until its first
// Local-Broadcast: a Decay BFS drives the engine without one.
type meters struct {
	lbTime int64
	energy []int64
}

func (m *meters) lbMeters() []int64 { return m.energy }

func (m *meters) charge(senders []radio.TX, receivers []int32) {
	for i := range senders {
		m.energy[senders[i].ID]++
	}
	for _, v := range receivers {
		m.energy[v]++
	}
	m.lbTime++
}

// UnitNet is an abstract network with ideal Local-Broadcast semantics: a
// receiver with at least one sending neighbor hears the message of its
// minimum-ID sending neighbor with probability 1-failProb (default:
// always). Minimum-ID delivery is a legal, adversarial and fully
// deterministic resolution of the Lemma 2.4 guarantee. UnitNet is fast, and
// it is the cost model in which the paper states its headline bounds.
//
// A listener with no sending neighbour hears nothing and draws no failure
// coin, so on a UnitNet it changes nothing but its own meter. A caller
// running a fixed schedule of slots (a Recursive-BFS stage, the wavefront
// BFS, cluster growth) may therefore pass Deliver only the listeners that
// can hear and the senders next to them — or, like a vnet cast stage,
// find each such listener's minimum-ID sending neighbour itself and draw
// its coin with Lost — and settle everyone's energy with Charge and the
// clock with SkipLB; LocalBroadcast is Deliver plus one unit per
// participant.
type UnitNet struct {
	meters
	g        *graph.Graph
	failProb float64
	rnd      *rng.Source

	// from[v] indexes the sender v hears in the current call (-1 = none
	// yet); touched lists the vertices to reset afterwards.
	from    []int32
	touched []int32
}

// NewUnitNet builds a UnitNet on g. failProb injects per-receiver delivery
// failures (0 for exact semantics); seed drives the failure coin flips.
func NewUnitNet(g *graph.Graph, failProb float64, seed uint64) *UnitNet {
	n := g.N()
	u := &UnitNet{
		meters:   meters{energy: make([]int64, n)},
		g:        g,
		failProb: failProb,
		rnd:      rng.New(rng.Derive(seed, 0x0417)),
		from:     make([]int32, n),
	}
	for i := range u.from {
		u.from[i] = -1
	}
	return u
}

// N implements Net.
func (u *UnitNet) N() int { return u.g.N() }

// GlobalN implements Net.
func (u *UnitNet) GlobalN() int { return u.g.N() }

// Graph implements Net.
func (u *UnitNet) Graph() *graph.Graph { return u.g }

// SkipLB implements Net.
func (u *UnitNet) SkipLB(k int64) {
	if k < 0 {
		panic("lbnet: negative skip")
	}
	u.lbTime += k
}

// LBTime implements Net.
func (u *UnitNet) LBTime() int64 { return u.lbTime }

// LBEnergy implements Net.
func (u *UnitNet) LBEnergy(v int32) int64 { return u.energy[v] }

// LocalBroadcast implements Net with ideal LB semantics: Deliver resolves
// the slot, then every participant pays one unit and the clock advances one.
func (u *UnitNet) LocalBroadcast(senders []radio.TX, receivers []int32, got []radio.Msg, ok []bool) {
	u.Deliver(senders, receivers, got, ok)
	u.charge(senders, receivers)
}

// Deliver resolves one Local-Broadcast exactly as LocalBroadcast does —
// each receiver hears its minimum-ID sending neighbor, a legal
// (adversarial) resolution of the Lemma 2.4 guarantee that keeps runs
// deterministic, and loses it when its coin (Lost) says so — but charges
// no meters and leaves the clock alone. Coins are drawn in receiver order,
// one per receiver with a sending neighbour, so dropping receivers without
// one leaves every other receiver's outcome unchanged; a slot with no
// sender or no receiver delivers nothing and draws no randomness.
func (u *UnitNet) Deliver(senders []radio.TX, receivers []int32, got []radio.Msg, ok []bool) {
	if len(got) != len(receivers) || len(ok) != len(receivers) {
		panic("lbnet: result slices must match receivers length")
	}
	// With no senders every receiver hears silence (the marking below marks
	// nobody and draws no randomness); with no receivers the marking is
	// write-only.
	if len(senders) == 0 || len(receivers) == 0 {
		for i := range receivers {
			got[i], ok[i] = radio.Msg{}, false
		}
		return
	}
	from, touched := u.from, u.touched
	for i := range senders {
		s := senders[i].ID
		for _, v := range u.g.Neighbors(s) {
			if from[v] == -1 {
				touched = append(touched, v)
				from[v] = int32(i)
			} else if s < senders[from[v]].ID {
				from[v] = int32(i)
			}
		}
	}
	for i, v := range receivers {
		if from[v] != -1 && !u.Lost() {
			got[i], ok[i] = senders[from[v]].Msg, true
		} else {
			got[i], ok[i] = radio.Msg{}, false
		}
	}
	for _, v := range touched {
		from[v] = -1
	}
	u.touched = touched[:0]
}

// Lost draws the failure coin of one receiver that has a sending
// neighbour and reports whether its delivery is lost: true with
// probability failProb, and never, drawing nothing, when failProb is 0.
// This is Deliver's rule, so a caller that resolves receivers itself — it
// finds each one's minimum-ID sending neighbour from the receiver's side —
// keeps Deliver's outcomes by drawing one coin per receiver with a sending
// neighbour, in the order Deliver would have listed them.
func (u *UnitNet) Lost() bool { return u.failProb > 0 && u.rnd.Bernoulli(u.failProb) }

// Charge adds k LB units to vertex v's energy without advancing the clock:
// the energy of k slots of a schedule in which v was awake, when those
// slots run through Deliver or are skipped.
func (u *UnitNet) Charge(v int32, k int64) { u.energy[v] += k }

// PhysNet adapts a radio engine into a Net: each collective Local-Broadcast
// runs one Decay Local-Broadcast (Lemma 2.4) on the physical channel, so
// both LB-unit meters (here) and physical round/energy meters (engine) are
// populated.
type PhysNet struct {
	meters
	eng     *radio.Engine
	p       decay.Params
	seed    uint64
	scratch decay.Scratch
}

// NewPhysNet wraps eng. p fixes the Local-Broadcast shape (and hence the
// LB-unit → rounds conversion factor p.Duration()).
func NewPhysNet(eng *radio.Engine, p decay.Params, seed uint64) *PhysNet {
	return &PhysNet{
		eng:  eng,
		p:    p,
		seed: seed,
	}
}

// N implements Net.
func (p *PhysNet) N() int { return p.eng.N() }

// GlobalN implements Net.
func (p *PhysNet) GlobalN() int { return p.eng.N() }

// Graph implements Net.
func (p *PhysNet) Graph() *graph.Graph { return p.eng.Graph() }

// Engine exposes the physical meters.
func (p *PhysNet) Engine() *radio.Engine { return p.eng }

// Params returns the Local-Broadcast shape.
func (p *PhysNet) Params() decay.Params { return p.p }

// SkipLB implements Net.
func (p *PhysNet) SkipLB(k int64) {
	if k < 0 {
		panic("lbnet: negative skip")
	}
	p.lbTime += k
	p.eng.SkipRounds(k * p.p.Duration())
}

// LBTime implements Net.
func (p *PhysNet) LBTime() int64 { return p.lbTime }

// LBEnergy implements Net.
func (p *PhysNet) LBEnergy(v int32) int64 {
	if p.energy == nil {
		return 0
	}
	return p.energy[v]
}

// LocalBroadcast implements Net by running the Decay protocol on reused
// scratch, so steady-state physical rounds allocate nothing; the first
// call allocates the LB meters.
func (p *PhysNet) LocalBroadcast(senders []radio.TX, receivers []int32, got []radio.Msg, ok []bool) {
	if p.energy == nil {
		p.energy = make([]int64, p.eng.N())
	}
	callSeed := rng.Derive(p.seed, uint64(p.lbTime), 0x1b)
	p.scratch.LocalBroadcast(p.eng, p.p, senders, receivers, callSeed, got, ok)
	p.charge(senders, receivers)
}
