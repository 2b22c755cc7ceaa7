// Package radio implements the RN[b] radio network model of the paper
// (§1.1): synchronized discrete timesteps on an unknown undirected graph
// where, each step, a device idles (free), listens (1 energy) or transmits
// (1 energy), and a listener receives a message iff exactly one of its
// neighbors transmits. There is no collision detection: a listener cannot
// distinguish silence from a collision.
//
// The package provides two front-ends over one physics core:
//
//   - Engine: a vectorized step API used by the protocol layers. It is
//     activity-proportional — the cost of a step is O(Σ deg(transmitters) +
//     #listeners), and rounds in which nobody is awake are skipped in O(1).
//     This mirrors the paper's central concern: sleeping radios are free.
//     A step is one sequential walk over the CSR adjacency of the
//     transmitters into per-neighbor counters; parallelism lives between
//     trials, each on its own engine, never inside one. A listen window
//     (Listen, StepWindow, EndListen) runs many rounds over one fixed
//     sender set and one fixed listener set — a Local-Broadcast — with its
//     rows restricted to the smaller side: a transmission walks the
//     sender's CSR row, or, when the listeners have fewer arcs than the
//     senders, only the sender's arcs into the listener set. A window
//     costs its transmissions over those rows plus a pass over both sides,
//     byte-identical to stepping its rounds one by one.
//
//   - Sim/Device: a goroutine-per-device blocking API (Listen, Transmit,
//     Idle) on which free-form protocols can be written as ordinary
//     sequential Go code.
//
// Energy is metered per device exactly as the paper defines it: the number of
// timesteps spent listening or transmitting.
package radio

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/scratch"
)

// Msg is a radio message. The paper's algorithms need only a handful of
// small integer fields, so messages are fixed-shape rather than raw bytes;
// Bits reports the size charged against the RN[b] message budget.
type Msg struct {
	Kind uint8  // protocol-level tag
	A    uint64 // primary field (IDs, labels, distances)
	B    uint64 // secondary field
	C    uint64 // tertiary field (seeds)
	// Hdr is the transport header used by the cluster-graph simulation
	// (§3): each virtual level pushes its O(log n)-bit cluster ID so that
	// cast receivers can filter out messages from foreign clusters. Levels
	// stack by shifting, so the whole stack costs O(depth · log n) bits.
	Hdr uint64
}

// Bits returns the encoded size of m in bits: an 8-bit kind plus a varint-
// style charge for each field. This is the quantity checked against the
// RN[O(log n)] message-size budget.
func (m Msg) Bits() int {
	return 8 + uintBits(m.A) + uintBits(m.B) + uintBits(m.C) + uintBits(m.Hdr)
}

func uintBits(x uint64) int { return bits.Len64(x) }

// TX is a transmission request: device ID plus message.
type TX struct {
	ID  int32
	Msg Msg
}

// RX is a delivery result for a listener.
type RX struct {
	Msg Msg
	OK  bool // true iff exactly one neighbor transmitted
	// Noise is set only on engines with receiver-side collision detection
	// (WithCollisionDetection): it distinguishes two-or-more transmitters
	// (noise) from zero (silence). Without CD both cases read as
	// OK == false, Noise == false — the paper's default model (§1.1,
	// footnote 2). The §5 lower bounds hold even with CD.
	Noise bool
}

// Engine simulates the physics of one radio network. It is not safe for
// concurrent use; the Sim front-end serializes access.
type Engine struct {
	g     *graph.Graph
	round int64

	energy    []int64
	listens   []int64
	transmits []int64

	maxMsgBits    int
	msgBitsSet    bool // maxMsgBits was fixed by option; Reset keeps it
	msgViolations int64
	cd            bool

	// scratch for Step, sized n, reset between calls via touched list.
	cnt     []int32
	from    []int32
	touched []int32

	// Listen-window state (see Listen). lpos[v] is v's position in the
	// window's receiver list plus one while v waits in an open window, and 0
	// otherwise; window is that list and windowStart the round it opened.
	// spos[v] is v's position in the declared senders plus one during the
	// window, and 0 otherwise. When the receivers have fewer arcs than the
	// senders (byReceivers), sender k's row is rowBuf[rowOff[k]:rowOff[k+1]]
	// for k = spos[v], its arcs into the receiver set; otherwise it is v's
	// CSR row.
	lpos        []int32
	spos        []int32
	window      []int32
	senders     []TX
	byReceivers bool
	rowOff      []int32
	rowBuf      []int32
	windowOpen  bool
	windowStart int64
}

// Option configures an Engine.
type Option func(*Engine)

// WithMaxMsgBits sets the RN[b] message budget in bits. Oversized messages
// are still delivered (so simulations proceed) but counted; tests assert the
// violation counter stays zero. Zero disables the check (RN[∞]).
func WithMaxMsgBits(b int) Option {
	return func(e *Engine) { e.maxMsgBits, e.msgBitsSet = b, true }
}

// DefaultMsgBits returns the default RN[O(log n)] budget used by protocol
// code: 8·⌈log₂(n+1)⌉ + 80 bits, enough for a kind tag, three O(log n)-bit
// fields and one 64-bit shared-randomness seed.
func DefaultMsgBits(n int) int {
	lg := graph.Log2Ceil(n + 1)
	if lg < 1 {
		lg = 1
	}
	return 8*lg + 80
}

// WithCollisionDetection enables receiver-side CD: listeners can
// distinguish noise (>= 2 transmitting neighbors) from silence. The paper's
// algorithms do not need it (Local-Broadcast recovers the same power within
// polylog factors, §1.1), but the §5 lower bounds are stated to survive it,
// which the lowerbound package exercises.
func WithCollisionDetection() Option {
	return func(e *Engine) { e.cd = true }
}

// NewEngine builds an engine over graph g.
func NewEngine(g *graph.Graph, opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	e.Reset(g)
	return e
}

// Reset re-targets the engine at g, zeroing all meters, the clock and the
// step scratch. It reuses the engine's allocations whenever g is no larger
// than any graph the engine has seen, so one engine can serve many trials of
// same-size instances without allocating; the trial harness relies on this.
// An engine after Reset(g) is indistinguishable from NewEngine(g) with the
// same options; an open listen window is discarded without charging anyone.
func (e *Engine) Reset(g *graph.Graph) {
	n := g.N()
	e.g = g
	if cap(e.cnt) < n {
		e.energy = make([]int64, n)
		e.listens = make([]int64, n)
		e.transmits = make([]int64, n)
		e.cnt = make([]int32, n)
		e.from = make([]int32, n)
		e.lpos = make([]int32, n)
		e.spos = make([]int32, n)
	} else {
		e.energy = e.energy[:n]
		e.listens = e.listens[:n]
		e.transmits = e.transmits[:n]
		e.cnt = e.cnt[:n]
		e.from = e.from[:n]
		e.lpos = e.lpos[:n]
		e.spos = e.spos[:n]
		clear(e.energy)
		clear(e.listens)
		clear(e.transmits)
		clear(e.cnt)
		clear(e.from)
		clear(e.lpos)
		clear(e.spos)
	}
	e.touched = e.touched[:0]
	e.window, e.senders, e.windowOpen = nil, nil, false
	e.round = 0
	e.msgViolations = 0
	if !e.msgBitsSet {
		e.maxMsgBits = DefaultMsgBits(n)
	}
}

// Graph returns the underlying topology.
func (e *Engine) Graph() *graph.Graph { return e.g }

// N returns the number of devices.
func (e *Engine) N() int { return e.g.N() }

// Round returns the current global time.
func (e *Engine) Round() int64 { return e.round }

// SkipRounds advances the clock by k rounds in which every device idles.
// Nobody idles while a listen window is open, so there it panics.
func (e *Engine) SkipRounds(k int64) {
	if k < 0 {
		panic("radio: negative round skip")
	}
	if e.windowOpen {
		panic("radio: SkipRounds during an open listen window")
	}
	e.round += k
}

// Energy returns the energy spent so far by device v.
func (e *Engine) Energy(v int32) int64 { return e.energy[v] }

// Listens returns the number of listen steps of device v.
func (e *Engine) Listens(v int32) int64 { return e.listens[v] }

// Transmits returns the number of transmit steps of device v.
func (e *Engine) Transmits(v int32) int64 { return e.transmits[v] }

// MaxEnergy returns the maximum per-device energy — the paper's energy cost
// of an algorithm.
func (e *Engine) MaxEnergy() int64 {
	var m int64
	for _, v := range e.energy {
		if v > m {
			m = v
		}
	}
	return m
}

// TotalEnergy returns the aggregate energy over all devices.
func (e *Engine) TotalEnergy() int64 {
	var s int64
	for _, v := range e.energy {
		s += v
	}
	return s
}

// EnergySnapshot copies the per-device energy vector.
func (e *Engine) EnergySnapshot() []int64 {
	out := make([]int64, len(e.energy))
	copy(out, e.energy)
	return out
}

// ResetMeters zeroes energy counters and the clock (topology unchanged).
func (e *Engine) ResetMeters() {
	clear(e.energy)
	clear(e.listens)
	clear(e.transmits)
	e.round = 0
	e.msgViolations = 0
}

// MsgViolations returns how many transmitted messages exceeded the RN[b]
// budget. Protocol tests assert this is zero.
func (e *Engine) MsgViolations() int64 { return e.msgViolations }

// Step executes one physical round. tx lists the transmitting devices with
// their messages; listeners lists the listening devices. All other devices
// idle. Results are written to out (which must have len(listeners)):
// out[i] corresponds to listeners[i] and has OK set iff exactly one neighbor
// of that listener transmitted. A device must not both transmit and listen
// in the same round, and must not appear twice in tx; both are programming
// errors that panic. Listeners must be duplicate-free (caller contract).
// Step panics while a listen window is open: the window owns the rounds.
func (e *Engine) Step(tx []TX, listeners []int32, out []RX) {
	if len(out) != len(listeners) {
		panic(fmt.Sprintf("radio: out length %d != listeners length %d", len(out), len(listeners)))
	}
	if e.windowOpen {
		panic("radio: Step during an open listen window")
	}
	e.mark(tx)
	for i, v := range listeners {
		c := e.cnt[v]
		if c == -1 {
			panic(fmt.Sprintf("radio: device %d both transmits and listens in round %d", v, e.round))
		}
		e.energy[v]++
		e.listens[v]++
		switch {
		case c == 1:
			out[i] = RX{Msg: tx[e.from[v]].Msg, OK: true}
		case c >= 2 && e.cd:
			out[i] = RX{Noise: true} // collision detected
		default:
			out[i] = RX{} // silence, or collision without CD: no feedback
		}
	}
	// Reset scratch: exactly the counters recorded during the mark phase.
	for _, t := range e.touched {
		e.cnt[t] = 0
	}
	e.touched = e.touched[:0]
	e.round++
}

// mark is the mark phase shared by Step and StepWindow: it
// meters every transmitter and walks its row — its CSR row, or inside a
// listen window the row Listen chose (see windowRow) — into the
// per-neighbor counters, recording every counter the first time it is
// touched so teardown never re-walks a neighborhood. Afterwards cnt[v] is
// -1 for a transmitter and otherwise the number of v's transmitting
// neighbors whose rows hold v, with from[v] the tx index of the last of
// them.
func (e *Engine) mark(tx []TX) {
	for i := range tx {
		t := &tx[i]
		if e.cnt[t.ID] == -1 {
			panic(fmt.Sprintf("radio: device %d transmits twice in round %d", t.ID, e.round))
		}
		row := e.g.Neighbors(t.ID)
		if e.windowOpen {
			row = e.windowRow(t.ID)
		}
		if e.maxMsgBits > 0 && t.Msg.Bits() > e.maxMsgBits {
			e.msgViolations++
		}
		e.energy[t.ID]++
		e.transmits[t.ID]++
		for _, u := range row {
			if e.cnt[u] >= 0 {
				if e.cnt[u] == 0 {
					e.touched = append(e.touched, u)
				}
				e.cnt[u]++
				e.from[u] = int32(i)
			}
		}
		e.touched = append(e.touched, t.ID)
		e.cnt[t.ID] = -1 // transmitter marker; also catches transmit+listen
	}
}

// windowRow returns the row Listen chose for transmitter v of the open
// window, which holds at least v's arcs into the receiver set. A
// transmitter the window did not declare panics.
func (e *Engine) windowRow(v int32) []int32 {
	k := e.spos[v]
	if k == 0 {
		panic(fmt.Sprintf("radio: device %d transmits in round %d but was not declared a sender of the listen window", v, e.round))
	}
	if !e.byReceivers {
		return e.g.Neighbors(v)
	}
	return e.rowBuf[e.rowOff[k]:e.rowOff[k+1]]
}

// Heard is one delivery of a listen-window round: the listener at position
// Index of the window's receiver list heard Msg from its only transmitting
// neighbor.
type Heard struct {
	Index int32
	Msg   Msg
}

// Listen opens a listen window: every device in receivers listens in each
// following round until it hears a message or EndListen closes the window,
// exactly as if each of those rounds were a Step with the still-waiting
// receivers as listeners. Only the devices in senders may transmit in the
// window's rounds (their messages here are ignored; each round's tx carries
// its own). Rounds advance only through StepWindow until EndListen; Step
// and SkipRounds panic meanwhile. senders and receivers must stay
// unmodified until EndListen. A receiver listed twice panics, as does
// opening a second window.
//
// Each sender's row is restricted to the smaller side. When the receivers'
// degrees sum to less than the senders', Listen builds every sender's arcs
// into the receiver set from the receivers' adjacency, a count pass and a
// fill pass into engine scratch, and a transmission walks only those;
// otherwise a transmission walks the sender's CSR row. Either way a waiting
// receiver's counter counts exactly its transmitting neighbors, since all
// of its arcs to senders are in the rows, so deliveries and meters are the
// same. Opening costs O(#senders + #receivers), plus O(Σ deg(receivers))
// when the rows are built.
//
// A listener's meters settle in one add each when it hears (StepWindow) or
// when the window closes (EndListen) — until then Energy and Listens omit
// its open window. The window reports clean deliveries only: an engine
// WithCollisionDetection gives waiting listeners no noise feedback.
func (e *Engine) Listen(senders []TX, receivers []int32) {
	if e.windowOpen {
		panic("radio: listen window already open")
	}
	e.window, e.senders, e.windowOpen, e.windowStart = receivers, senders, true, e.round
	var recvArcs, sendArcs int
	for i, v := range receivers {
		if e.lpos[v] != 0 {
			panic(fmt.Sprintf("radio: device %d listens twice in round %d", v, e.round))
		}
		e.lpos[v] = int32(i) + 1
		recvArcs += e.g.Degree(v)
	}
	for i := range senders {
		v := senders[i].ID
		e.spos[v] = int32(i) + 1
		sendArcs += e.g.Degree(v)
	}
	e.byReceivers = recvArcs < sendArcs
	if !e.byReceivers {
		return
	}
	// Count each sender's arcs into the receiver set at rowOff[k], k its
	// spos; prefix sums leave rowOff[k] at the end of row k, and the fill
	// pass moves it back to the row's start, so row k ends where row k+1
	// starts and the last row at rowOff[len(senders)+1].
	off := scratch.Grow(e.rowOff, len(senders)+2)
	clear(off)
	for _, r := range receivers {
		for _, x := range e.g.Neighbors(r) {
			if k := e.spos[x]; k != 0 {
				off[k]++
			}
		}
	}
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	buf := scratch.Grow(e.rowBuf, int(off[len(off)-1]))
	for _, r := range receivers {
		for _, x := range e.g.Neighbors(r) {
			if k := e.spos[x]; k != 0 {
				off[k]--
				buf[off[k]] = r
			}
		}
	}
	e.rowOff, e.rowBuf = off, buf
}

// StepWindow executes one round of the open listen window with tx as the
// transmitters (same rules as Step's tx; every transmitter must be one of
// the window's senders, and a waiting listener must not transmit). It
// appends to heard every waiting listener that heard exactly one
// transmitting neighbor, charges each of them the rounds it listened, ends
// their wait, and returns the extended slice. The round costs the lengths
// of the transmitters' rows, each restricted to the smaller side (see
// Listen) — O(1) without transmitters.
func (e *Engine) StepWindow(tx []TX, heard []Heard) []Heard {
	if !e.windowOpen {
		panic("radio: StepWindow without an open listen window")
	}
	e.mark(tx)
	k := e.round - e.windowStart + 1 // rounds listened, this one included
	for _, u := range e.touched {
		if p := e.lpos[u]; p != 0 {
			switch e.cnt[u] {
			case -1:
				panic(fmt.Sprintf("radio: device %d both transmits and listens in round %d", u, e.round))
			case 1:
				heard = append(heard, Heard{Index: p - 1, Msg: tx[e.from[u]].Msg})
				e.energy[u] += k
				e.listens[u] += k
				e.lpos[u] = 0
			}
		}
		e.cnt[u] = 0
	}
	e.touched = e.touched[:0]
	e.round++
	return heard
}

// EndListen closes the listen window, charging every listener still
// waiting for each round the window ran, in O(#senders + #receivers).
func (e *Engine) EndListen() {
	k := e.round - e.windowStart
	for _, v := range e.window {
		if e.lpos[v] != 0 {
			e.energy[v] += k
			e.listens[v] += k
			e.lpos[v] = 0
		}
	}
	for i := range e.senders {
		e.spos[e.senders[i].ID] = 0
	}
	e.window, e.senders, e.windowOpen = nil, nil, false
}
