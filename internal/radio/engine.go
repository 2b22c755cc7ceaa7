// Package radio implements the RN[b] radio network model of the paper
// (§1.1): synchronized discrete timesteps on an unknown undirected graph
// where, each step, a device idles (free), listens (1 energy) or transmits
// (1 energy), and a listener receives a message iff exactly one of its
// neighbors transmits. There is no collision detection: a listener cannot
// distinguish silence from a collision.
//
// Engine is the package's one API, and a caller drives the channel with it
// a round at a time (Step) or a Local-Broadcast at a time (a listen
// window: Listen, StepPass, EndListen).
//
// Step is activity-proportional — the cost of a step is
// O(Σ deg(transmitters) + #listeners), and rounds in which nobody is awake
// are skipped in O(1). This mirrors the paper's central concern: sleeping
// radios are free. A step is one sequential walk over the CSR adjacency of
// the transmitters into per-neighbor counters; parallelism lives between
// trials, each on its own engine, never inside one.
//
// A listen window runs a Local-Broadcast over one fixed sender set and one
// fixed listener set a pass at a time, each sender transmitting once per
// pass in a round of its choosing: Listen gives every listener with a
// sending neighbor a row of its senders, built from the smaller side's
// adjacency, and a pass resolves each waiting listener from its row with
// two bit masks. A window costs that build plus, per pass, the senders and
// the rows still waiting, byte-identical to stepping its rounds one by one.
//
// Energy is metered per device exactly as the paper defines it: the number of
// timesteps spent listening or transmitting. A listener with no
// transmitting neighbour hears silence, so a caller may leave it out of
// the rounds it runs and charge its listening in one add (ChargeListen),
// as the Decay BFS does for the unlabeled vertices away from its frontier.
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

// RX is a delivery result for a listener. Silence and a collision both
// read as the zero RX.
type RX struct {
	Msg Msg
	OK  bool // true iff exactly one neighbor transmitted
}

// Engine simulates the physics of one radio network. It is not safe for
// concurrent use.
type Engine struct {
	g     *graph.Graph
	round int64

	// A device's energy is listens + transmits: every step it is awake is
	// one of the two.
	listens   []int64
	transmits []int64

	maxMsgBits    int
	msgBitsSet    bool // maxMsgBits was fixed by option; Reset keeps it
	msgViolations int64

	// scratch for Step, sized n, reset between calls via touched list.
	cnt     []int32
	from    []int32
	touched []int32

	// Listen-window state (see Listen). lpos[v] is v's position in the
	// window's receiver list plus one while v waits in an open window, and 0
	// otherwise; window is that list and windowStart the round it opened.
	// spos[v] is v's position in the declared senders plus one during the
	// window, and 0 otherwise. rows holds the waiting receivers that have a
	// sending neighbor, their sender positions in rowBuf; receiverSide
	// records which builder the latest Listen ran: true when it built them
	// from the receivers' adjacency.
	lpos         []int32
	spos         []int32
	window       []int32
	senders      []TX
	rows         []passRow
	rowBuf       []int32
	receiverSide bool
	windowOpen   bool
	windowStart  int64
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
		e.listens = make([]int64, n)
		e.transmits = make([]int64, n)
		e.cnt = make([]int32, n)
		e.from = make([]int32, n)
		e.lpos = make([]int32, n)
		e.spos = make([]int32, n)
	} else {
		e.listens = e.listens[:n]
		e.transmits = e.transmits[:n]
		e.cnt = e.cnt[:n]
		e.from = e.from[:n]
		e.lpos = e.lpos[:n]
		e.spos = e.spos[:n]
		clear(e.listens)
		clear(e.transmits)
		clear(e.cnt)
		clear(e.from)
		clear(e.lpos)
		clear(e.spos)
	}
	e.touched = e.touched[:0]
	e.window, e.senders, e.rows, e.windowOpen = nil, nil, e.rows[:0], false
	e.receiverSide = false
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

// ChargeListen charges device v k rounds of listening, in energy and
// Listens, without advancing the clock: the listening of a device that
// was awake through k rounds its caller ran without listing it, because
// no neighbour of it transmitted in them, so it heard only silence. Like
// SkipRounds it panics while a listen window is open, since the window
// settles its own listeners.
func (e *Engine) ChargeListen(v int32, k int64) {
	if k < 0 {
		panic("radio: negative listen charge")
	}
	if e.windowOpen {
		panic("radio: ChargeListen during an open listen window")
	}
	e.listens[v] += k
}

// Energy returns the energy spent so far by device v.
func (e *Engine) Energy(v int32) int64 { return e.listens[v] + e.transmits[v] }

// Listens returns the number of listen steps of device v.
func (e *Engine) Listens(v int32) int64 { return e.listens[v] }

// Transmits returns the number of transmit steps of device v.
func (e *Engine) Transmits(v int32) int64 { return e.transmits[v] }

// MaxEnergy returns the maximum per-device energy — the paper's energy cost
// of an algorithm.
func (e *Engine) MaxEnergy() int64 {
	var m int64
	for v, l := range e.listens {
		m = max(m, l+e.transmits[v])
	}
	return m
}

// TotalEnergy returns the aggregate energy over all devices.
func (e *Engine) TotalEnergy() int64 {
	var s int64
	for v, l := range e.listens {
		s += l + e.transmits[v]
	}
	return s
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
		e.listens[v]++
		if c == 1 {
			out[i] = RX{Msg: tx[e.from[v]].Msg, OK: true}
		} else {
			out[i] = RX{} // silence or collision: no feedback
		}
	}
	// Reset scratch: exactly the counters recorded during the mark phase.
	for _, t := range e.touched {
		e.cnt[t] = 0
	}
	e.touched = e.touched[:0]
	e.round++
}

// mark is Step's mark phase: it meters every transmitter and walks its CSR
// row into the per-neighbor counters, recording every counter the first
// time it is touched so teardown never re-walks a neighborhood. Afterwards
// cnt[v] is -1 for a transmitter and otherwise the number of v's
// transmitting neighbors, with from[v] the tx index of the last of them.
func (e *Engine) mark(tx []TX) {
	for i := range tx {
		t := &tx[i]
		if e.cnt[t.ID] == -1 {
			panic(fmt.Sprintf("radio: device %d transmits twice in round %d", t.ID, e.round))
		}
		if e.maxMsgBits > 0 && t.Msg.Bits() > e.maxMsgBits {
			e.msgViolations++
		}
		e.transmits[t.ID]++
		for _, u := range e.g.Neighbors(t.ID) {
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

// Heard is one delivery of a pass: the receiver at position Index of the
// window's receiver list heard the sender at position From of its senders.
type Heard struct {
	Index, From int32
}

// passRow is one waiting receiver of an open window that has a sending
// neighbor: its position in the receiver list, and its sending neighbors'
// positions in the sender list, rowBuf[lo:hi].
type passRow struct {
	recv, lo, hi int32
}

// maxPassRounds is the longest pass StepPass runs: a receiver resolves a
// pass from one bit per round of a uint64, and round 0 is never used.
const maxPassRounds = 63

// Listen opens a listen window: every device in receivers listens in each
// following round until it hears a message or EndListen closes the window,
// and the window's rounds run one pass at a time (StepPass), each declared
// sender transmitting its message once per pass. Until EndListen, Step and
// SkipRounds panic, and senders and receivers must stay unmodified.
//
// The two sets must be disjoint and duplicate-free, as Step requires of one
// round: a device listed twice as a sender, a device in both sets and a
// receiver listed twice panic with Step's wording, as does opening a second
// window.
//
// Listen gives every receiver with at least one sending neighbor a row of
// its senders' positions, built from the smaller side: from the receivers'
// adjacency when Σ deg(receivers) ≤ Σ deg(senders), otherwise from the
// senders' (ReceiverSide reports which). A receiver without a sending
// neighbor gets no row and is never visited again before EndListen.
// Opening costs O(#senders + #receivers + the smaller degree sum).
//
// A listener's meters settle in one add each when it hears (StepPass) or
// when the window closes (EndListen) — until then Energy and Listens omit
// its open window. A device without a sending neighbour hears silence in
// every round of the window, so a caller may list only the receivers that
// can hear and charge the others with ChargeListen once the window closes;
// the meters come out the same.
func (e *Engine) Listen(senders []TX, receivers []int32) {
	if e.windowOpen {
		panic("radio: listen window already open")
	}
	e.window, e.senders, e.windowOpen, e.windowStart = receivers, senders, true, e.round
	var sendArcs, recvArcs int
	for i := range senders {
		t := &senders[i]
		if e.spos[t.ID] != 0 {
			panic(fmt.Sprintf("radio: device %d transmits twice in round %d", t.ID, e.round))
		}
		e.spos[t.ID] = int32(i) + 1
		sendArcs += e.g.Degree(t.ID)
	}
	for i, v := range receivers {
		if e.spos[v] != 0 {
			panic(fmt.Sprintf("radio: device %d both transmits and listens in round %d", v, e.round))
		}
		if e.lpos[v] != 0 {
			panic(fmt.Sprintf("radio: device %d listens twice in round %d", v, e.round))
		}
		e.lpos[v] = int32(i) + 1
		recvArcs += e.g.Degree(v)
	}
	if recvArcs <= sendArcs {
		e.rowsFromReceivers(recvArcs)
	} else {
		e.rowsFromSenders(sendArcs)
	}
}

// rowsFromReceivers builds the rows from the receivers' adjacency, in one
// pass over their arcs into the buffers sized by that arc count.
func (e *Engine) rowsFromReceivers(arcs int) {
	rows := scratch.Grow(e.rows, min(len(e.window), arcs))
	buf := scratch.Grow(e.rowBuf, arcs)
	var nrows int
	var end int32
	for i, v := range e.window {
		lo := end
		for _, x := range e.g.Neighbors(v) {
			if k := e.spos[x]; k != 0 {
				buf[end] = k - 1
				end++
			}
		}
		if end > lo {
			rows[nrows] = passRow{recv: int32(i), lo: lo, hi: end}
			nrows++
		}
	}
	e.rows, e.rowBuf, e.receiverSide = rows[:nrows], buf, true
}

// rowsFromSenders builds the rows from the senders' adjacency without
// visiting a receiver that no sender reaches. A count pass opens a row at
// a receiver's first arc from a sender, keeping the row's index in from[]
// and its arc count in cnt[] (Step's scratch, zero between rounds); the
// rows are then laid out back to back, the counters cleared, and a fill
// pass appends each sender to its receivers' rows.
func (e *Engine) rowsFromSenders(arcs int) {
	rows := scratch.Grow(e.rows, min(len(e.window), arcs))[:0]
	for k := range e.senders {
		for _, u := range e.g.Neighbors(e.senders[k].ID) {
			if p := e.lpos[u]; p != 0 {
				if e.cnt[u] == 0 {
					e.from[u] = int32(len(rows))
					rows = append(rows, passRow{recv: p - 1})
				}
				e.cnt[u]++
			}
		}
	}
	var end int32
	for j := range rows {
		u := e.window[rows[j].recv]
		rows[j].lo, rows[j].hi = end, end
		end += e.cnt[u]
		e.cnt[u] = 0
	}
	buf := scratch.Grow(e.rowBuf, int(end))
	for k := range e.senders {
		for _, u := range e.g.Neighbors(e.senders[k].ID) {
			if e.lpos[u] != 0 {
				r := &rows[e.from[u]]
				buf[r.hi] = int32(k)
				r.hi++
			}
		}
	}
	e.rows, e.rowBuf, e.receiverSide = rows, buf, false
}

// StepPass runs one pass of rounds rounds in the open listen window: the
// sender at position k transmits once, in the pass's round when[k] ∈
// [1, rounds], and every waiting receiver listens until it hears. A
// receiver with a row resolves the whole pass from it with two masks —
// once holds the rounds some sender of the row uses, more the rounds two
// or more use — and hears in the lowest round of once &^ more, from the
// one sender of its row in that round: the round and sender Step would
// deliver, since its row holds exactly its sending neighbors. StepPass
// appends every such delivery to heard, charges the receiver the rounds
// it listened in one add, ends its wait, and returns the extended slice.
// Each sender pays one transmission per pass, each oversized message one
// violation, and the clock advances by rounds. A pass costs O(#senders)
// plus the rows of the receivers still waiting; rounds must lie in
// [1, maxPassRounds] and when must have one entry per sender.
func (e *Engine) StepPass(rounds int, when []uint8, heard []Heard) []Heard {
	if !e.windowOpen {
		panic("radio: StepPass without an open listen window")
	}
	if rounds < 1 || rounds > maxPassRounds {
		panic(fmt.Sprintf("radio: a pass of %d rounds, want 1 to %d", rounds, maxPassRounds))
	}
	if len(when) != len(e.senders) {
		panic(fmt.Sprintf("radio: %d transmit rounds for %d senders", len(when), len(e.senders)))
	}
	for k := range e.senders {
		t := &e.senders[k]
		if r := when[k]; r < 1 || int(r) > rounds {
			panic(fmt.Sprintf("radio: device %d transmits in round %d of a %d-round pass", t.ID, r, rounds))
		}
		if e.maxMsgBits > 0 && t.Msg.Bits() > e.maxMsgBits {
			e.msgViolations++
		}
		e.transmits[t.ID]++
	}
	before := e.round - e.windowStart // rounds listened in earlier passes
	rows, w := e.rows, 0
	for _, r := range rows {
		row := e.rowBuf[r.lo:r.hi]
		var once, more uint64
		for _, k := range row {
			b := uint64(1) << when[k]
			more |= once & b
			once |= b
		}
		clean := once &^ more
		if clean == 0 {
			rows[w] = r
			w++
			continue
		}
		round := uint8(bits.TrailingZeros64(clean))
		from := row[0]
		for _, k := range row {
			if when[k] == round {
				from = k
				break
			}
		}
		v := e.window[r.recv]
		e.listens[v] += before + int64(round)
		e.lpos[v] = 0
		heard = append(heard, Heard{Index: r.recv, From: from})
	}
	e.rows = rows[:w]
	e.round += int64(rounds)
	return heard
}

// EndListen closes the listen window, charging every listener still
// waiting for each round the window ran, in O(#senders + #receivers).
func (e *Engine) EndListen() {
	k := e.round - e.windowStart
	for _, v := range e.window {
		if e.lpos[v] != 0 {
			e.listens[v] += k
			e.lpos[v] = 0
		}
	}
	for i := range e.senders {
		e.spos[e.senders[i].ID] = 0
	}
	e.window, e.senders, e.rows, e.windowOpen = nil, nil, e.rows[:0], false
}

// ReceiverSide reports whether the latest listen window built its rows
// from the receivers' adjacency rather than the senders' (see Listen). It
// holds from Listen until the next Listen or Reset, so a caller can read it
// after EndListen; tests use it to require windows on both sides.
func (e *Engine) ReceiverSide() bool { return e.receiverSide }
