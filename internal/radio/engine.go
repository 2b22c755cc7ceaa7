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
//     A step is one walk over the CSR adjacency of the transmitters into
//     per-neighbor counters. It runs sequentially, or — on an engine built
//     WithShards(k) when the step carries enough activity — split into k
//     parallel shards, which is how million-vertex instances use every core
//     inside a single trial. Both are byte-identical in every observable
//     (outputs, meters, clock, violation counter) at every shard count.
//     A listen window (Listen, StepWindow, EndListen) runs many rounds over
//     one fixed listener set — a Local-Broadcast — for the cost of its
//     transmissions plus one pass over the listeners, byte-identical to
//     stepping those rounds one by one.
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
	"runtime"
	"sync"

	"repro/internal/graph"
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
	lpos        []int32
	window      []int32
	windowOpen  bool
	windowStart int64

	// Sharded execution state (see stepSharded). shards is the
	// configured shard count; bounds caches the vertex ownership boundaries
	// for the current graph (recomputed lazily after Reset or SetShards);
	// shardScratch holds one touched list and violation counter per shard.
	shards       int
	bounds       []int32
	shardScratch []shardScratch

	// Persistent shard workers (see parallelShards): pool holds the parked
	// goroutines executing shards 1..k-1, phaseWG joins each phase, and
	// curTX/curListeners/curOut stage the step arguments for the workers —
	// passing them through a closure would allocate on every step.
	pool         *shardPool
	phaseWG      sync.WaitGroup
	curTX        []TX
	curListeners []int32
	curOut       []RX
}

// shardScratch is the per-shard private state of one sharded step. Entries
// are written only by their owning shard goroutine during a step and read by
// the coordinator after the join, so no field needs atomics.
type shardScratch struct {
	touched    []int32
	violations int64
	panicked   any
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

// WithShards configures the engine to execute sufficiently large steps as k
// parallel shards (see Step). k <= 1 keeps every step sequential.
// Sharded and sequential execution are byte-identical — outputs, meters, the
// round clock and the message-violation counter never depend on the shard
// count — so the option is purely a performance knob.
func WithShards(k int) Option {
	return func(e *Engine) { e.shards = k }
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
	} else {
		e.energy = e.energy[:n]
		e.listens = e.listens[:n]
		e.transmits = e.transmits[:n]
		e.cnt = e.cnt[:n]
		e.from = e.from[:n]
		e.lpos = e.lpos[:n]
		clear(e.energy)
		clear(e.listens)
		clear(e.transmits)
		clear(e.cnt)
		clear(e.from)
		clear(e.lpos)
	}
	e.touched = e.touched[:0]
	e.window, e.windowOpen = nil, false
	e.bounds = e.bounds[:0] // shard ownership is per-graph; recompute lazily
	e.round = 0
	e.msgViolations = 0
	if !e.msgBitsSet {
		e.maxMsgBits = DefaultMsgBits(n)
	}
}

// SetShards reconfigures the shard count of an existing engine (the pooled
// trial contexts use it when switching between trial-parallel and
// intra-trial-parallel scheduling). Like WithShards, it never changes
// results.
func (e *Engine) SetShards(k int) {
	if k == e.shards {
		return
	}
	e.shards = k
	e.bounds = e.bounds[:0]
}

// Shards returns the configured shard count (1 when sharding is off).
func (e *Engine) Shards() int {
	if e.shards < 1 {
		return 1
	}
	return e.shards
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

// shardStepMinWork is the activity threshold (Σ deg(transmitters) +
// #listeners) below which Step stays sequential even on a sharded engine:
// under it, the fixed cost of waking the shard goroutines exceeds the work
// being split. A var, not a const, so tests can force either path.
var shardStepMinWork = 1 << 16

// Step executes one physical round. tx lists the transmitting devices with
// their messages; listeners lists the listening devices. All other devices
// idle. Results are written to out (which must have len(listeners)):
// out[i] corresponds to listeners[i] and has OK set iff exactly one neighbor
// of that listener transmitted. A device must not both transmit and listen
// in the same round, and must not appear twice in tx; both are programming
// errors that panic. Listeners must be duplicate-free (caller contract).
// Step panics while a listen window is open: the window owns the rounds.
//
// On an engine configured with WithShards(k > 1), a step whose activity
// (Σ deg(transmitters) + #listeners) reaches shardStepMinWork executes as k
// parallel shards (see stepSharded); every other step runs sequentially.
// Results are byte-identical either way.
func (e *Engine) Step(tx []TX, listeners []int32, out []RX) {
	if len(out) != len(listeners) {
		panic(fmt.Sprintf("radio: out length %d != listeners length %d", len(out), len(listeners)))
	}
	if e.windowOpen {
		panic("radio: Step during an open listen window")
	}
	// An unsharded engine must not even pay for measuring the step's
	// activity: one bare step is ~50ns.
	if e.shards > 1 && e.stepWork(tx, listeners) >= shardStepMinWork {
		e.stepSharded(tx, listeners, out)
		return
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

// mark is the sequential mark phase shared by Step and StepWindow: it
// meters every transmitter and walks its CSR adjacency into the
// per-neighbor counters, recording every counter the first time it is
// touched so teardown never re-walks a neighborhood. Afterwards cnt[v] is
// -1 for a transmitter and otherwise the number of v's transmitting
// neighbors, with from[v] the tx index of the last of them.
func (e *Engine) mark(tx []TX) {
	for i := range tx {
		t := &tx[i]
		if e.cnt[t.ID] == -1 {
			panic(fmt.Sprintf("radio: device %d transmits twice in round %d", t.ID, e.round))
		}
		if e.maxMsgBits > 0 && t.Msg.Bits() > e.maxMsgBits {
			e.msgViolations++
		}
		e.energy[t.ID]++
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
// receivers as listeners. Rounds advance only through StepWindow until
// EndListen; Step and SkipRounds panic meanwhile. Opening costs
// O(#receivers); receivers must stay unmodified until EndListen. A device
// listed twice panics, as does opening a second window.
//
// A listener's meters settle in one add each when it hears (StepWindow) or
// when the window closes (EndListen) — until then Energy and Listens omit
// its open window. The window reports clean deliveries only: an engine
// WithCollisionDetection gives waiting listeners no noise feedback.
func (e *Engine) Listen(receivers []int32) {
	if e.windowOpen {
		panic("radio: listen window already open")
	}
	e.window, e.windowOpen, e.windowStart = receivers, true, e.round
	for i, v := range receivers {
		if e.lpos[v] != 0 {
			panic(fmt.Sprintf("radio: device %d listens twice in round %d", v, e.round))
		}
		e.lpos[v] = int32(i) + 1
	}
}

// StepWindow executes one round of the open listen window with tx as the
// transmitters (same rules as Step's tx; a waiting listener must not
// transmit). It appends to heard every waiting listener that heard exactly
// one transmitting neighbor, charges each of them the rounds it listened,
// ends their wait, and returns the extended slice. The round costs
// O(Σ deg(tx)) — O(1) without transmitters — and always runs sequentially,
// even on a sharded engine.
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
// waiting for each round the window ran, in O(#receivers).
func (e *Engine) EndListen() {
	k := e.round - e.windowStart
	for _, v := range e.window {
		if e.lpos[v] != 0 {
			e.energy[v] += k
			e.listens[v] += k
			e.lpos[v] = 0
		}
	}
	e.window, e.windowOpen = nil, false
}

// stepWork estimates the activity of one step — the quantity the model
// charges for: Σ deg(transmitters) + #listeners.
func (e *Engine) stepWork(tx []TX, listeners []int32) int {
	w := len(listeners)
	for i := range tx {
		w += e.g.Degree(tx[i].ID)
	}
	return w
}

// stepSharded executes one physical round as e.shards parallel shards, in
// three barrier-separated phases:
//
//   - Mark: vertex IDs are partitioned into contiguous ranges balanced by
//     CSR arc count (graph.ShardBounds). Shard s owns the IDs in
//     [bounds[s], bounds[s+1]) exclusively: it alone writes their cnt/from
//     counters and transmitter meters, so marking needs no atomics. Each
//     shard scans the tx slice in index order — exactly the sequential
//     order — and marks, per transmitter, only the sub-range of its sorted
//     adjacency list the shard owns (graph.NeighborsRange): per-shard mark
//     work is O(Σdeg/k + |tx|·(1 + log deg)).
//
//   - Listen: listeners are partitioned by position, |listeners|/k
//     contiguous slots per shard, so resolution is balanced and scan-free.
//     Listeners are duplicate-free (Step's caller contract), so position
//     ownership gives every listener's meters and out slot exactly one
//     writer; the phase only reads the counters the mark phase settled,
//     which is why the barrier sits between them.
//
//   - Teardown: each shard resets exactly the counters it recorded during
//     its mark phase, after every reader is done.
//
// Because ownership is exclusive within every phase and the mark scan order
// matches the sequential path, every counter, winner index, meter and
// delivery is byte-identical to the sequential path's.
//
// Programming-error panics (duplicate transmitter, transmit+listen) are
// recovered inside the shard, joined, and re-raised here — first shard wins
// — so they surface on the caller's goroutine just as in the sequential
// path. As there, engine state after such a panic is unspecified.
func (e *Engine) stepSharded(tx []TX, listeners []int32, out []RX) {
	k := e.shards
	if len(e.bounds) != k+1 {
		e.bounds = e.g.ShardBounds(k, e.bounds)
	}
	if len(e.shardScratch) < k {
		e.shardScratch = append(e.shardScratch, make([]shardScratch, k-len(e.shardScratch))...)
	}
	e.curTX, e.curListeners, e.curOut = tx, listeners, out
	e.parallelShards(k, phaseMark)
	if !e.shardsPanicked(k) {
		e.parallelShards(k, phaseListen)
	}
	e.parallelShards(k, phaseTeardown)
	e.curTX, e.curListeners, e.curOut = nil, nil, nil
	// Join: fold the per-shard violation counters into the engine and
	// re-raise the first captured panic on the caller's goroutine.
	var panicked any
	for s := 0; s < k; s++ {
		st := &e.shardScratch[s]
		e.msgViolations += st.violations
		st.violations = 0
		if st.panicked != nil && panicked == nil {
			panicked = st.panicked
		}
		st.panicked = nil
	}
	if panicked != nil {
		panic(panicked)
	}
	e.round++
}

// phaseCode names one barrier-separated phase of a sharded step. Phases are
// dispatched by code, not by closure: a closure handed to a worker
// goroutine would allocate on every step, and the sharded hot paths are
// pinned at zero allocations in steady state.
type phaseCode uint8

const (
	phaseMark phaseCode = iota
	phaseListen
	phaseTeardown
)

// shardPool holds the parked worker goroutines of one engine: chans[i]
// feeds the worker that executes shard i+1 (shard 0 runs on the caller).
// The pool is a separate allocation referencing only its channels — never
// the engine — so an unreachable engine stays collectable and its runtime
// cleanup can close the channels, letting the workers exit instead of
// leaking.
type shardPool struct {
	chans []chan shardReq
}

// shardReq asks a parked worker to run one phase of one step. The engine
// pointer rides along in the request so idle workers hold no reference to
// their engine between steps.
type shardReq struct {
	e     *Engine
	code  phaseCode
	shard int
}

func shardWorker(ch chan shardReq) {
	for req := range ch {
		req.e.runShard(req.code, req.shard)
		req.e.phaseWG.Done()
	}
}

// ensureWorkers grows the persistent worker pool to serve k shards. Workers
// are spawned once and parked on per-shard channels between phases, so a
// steady-state sharded step costs 2(k-1) channel operations per phase and
// zero allocations or goroutine spawns. A shrunken shard count simply
// leaves the extra workers parked.
func (e *Engine) ensureWorkers(k int) {
	if e.pool == nil {
		e.pool = &shardPool{}
		runtime.AddCleanup(e, func(p *shardPool) {
			for _, ch := range p.chans {
				close(ch)
			}
		}, e.pool)
	}
	for len(e.pool.chans) < k-1 {
		ch := make(chan shardReq, 1)
		e.pool.chans = append(e.pool.chans, ch)
		go shardWorker(ch)
	}
}

// parallelShards runs one phase on every shard s in [0, k): shard 0 on the
// calling goroutine, shards 1..k-1 on the engine's persistent workers, and
// joins. The phase reads its step arguments from curTX/curListeners/curOut,
// staged by the caller; the channel send publishes them to the workers and
// the WaitGroup join publishes the workers' writes back.
func (e *Engine) parallelShards(k int, code phaseCode) {
	e.ensureWorkers(k)
	e.phaseWG.Add(k - 1)
	for s := 1; s < k; s++ {
		e.pool.chans[s-1] <- shardReq{e: e, code: code, shard: s}
	}
	e.runShard(code, 0)
	e.phaseWG.Wait()
}

// runShard executes one phase on one shard, capturing a panic (first one
// per shard wins) into the shard's scratch slot rather than crashing the
// process; stepSharded re-raises it after the join.
func (e *Engine) runShard(code phaseCode, s int) {
	defer func() {
		if r := recover(); r != nil && e.shardScratch[s].panicked == nil {
			e.shardScratch[s].panicked = r
		}
	}()
	switch code {
	case phaseMark:
		e.shardMark(s, e.curTX)
	case phaseListen:
		e.shardListen(s, e.shards, e.curTX, e.curListeners, e.curOut)
	case phaseTeardown:
		e.shardTeardown(s)
	}
}

// shardsPanicked reports whether any shard has captured a panic — the
// signal to skip the listen phase, whose reads would be meaningless over a
// half-marked round.
func (e *Engine) shardsPanicked(k int) bool {
	for s := 0; s < k; s++ {
		if e.shardScratch[s].panicked != nil {
			return true
		}
	}
	return false
}

// shardMark is the mark phase of one shard: transmitter accounting for the
// IDs it owns and counter updates for the owned sub-range of every
// transmitter's adjacency.
func (e *Engine) shardMark(s int, tx []TX) {
	st := &e.shardScratch[s]
	lo, hi := e.bounds[s], e.bounds[s+1]
	touched := st.touched[:0]
	// The deferred store keeps the full list — the teardown phase walks it —
	// and survives a mid-mark panic, so teardown still resets what was
	// marked before the abort.
	defer func() { st.touched = touched }()
	for i := range tx {
		t := &tx[i]
		own := t.ID >= lo && t.ID < hi
		if own {
			if e.cnt[t.ID] == -1 {
				panic(fmt.Sprintf("radio: device %d transmits twice in round %d", t.ID, e.round))
			}
			if e.maxMsgBits > 0 && t.Msg.Bits() > e.maxMsgBits {
				st.violations++
			}
			e.energy[t.ID]++
			e.transmits[t.ID]++
		}
		for _, u := range e.g.NeighborsRange(t.ID, lo, hi) {
			if e.cnt[u] >= 0 {
				if e.cnt[u] == 0 {
					touched = append(touched, u)
				}
				e.cnt[u]++
				e.from[u] = int32(i)
			}
		}
		if own {
			touched = append(touched, t.ID)
			e.cnt[t.ID] = -1
		}
	}
}

// shardListen resolves the contiguous position range of listeners shard s
// owns, identically to the sequential listener loop.
func (e *Engine) shardListen(s, k int, tx []TX, listeners []int32, out []RX) {
	plo, phi := s*len(listeners)/k, (s+1)*len(listeners)/k
	for i := plo; i < phi; i++ {
		v := listeners[i]
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
			out[i] = RX{Noise: true}
		default:
			out[i] = RX{}
		}
	}
}

// shardTeardown resets exactly the counters shard s recorded while marking.
func (e *Engine) shardTeardown(s int) {
	st := &e.shardScratch[s]
	for _, t := range st.touched {
		e.cnt[t] = 0
	}
	st.touched = st.touched[:0]
}
