// Package labelcast implements the paper's motivating application (§1): once
// a BFS labeling exists, a network of battery-powered sensors disseminates
// messages with a duty-cycled polling schedule. With polling period P, the
// node labeled i wakes only at slots congruent to i (mod P): it listens for
// messages arriving from layer i-1 and forwards them when layer i+1 wakes.
// Latency grows by an additive O(P) while steady-state listening energy
// drops by a factor of P — the trade-off quantified by experiment E14.
package labelcast

import (
	"repro/internal/lbnet"
	"repro/internal/progress"
	"repro/internal/radio"
	"repro/internal/scratch"
)

// MsgData is the payload kind flooded by Broadcast.
const MsgData = 0x50

// Progress phase names emitted by the hooked dissemination loops.
const (
	// PhaseBroadcast frames one polled Broadcast; round batches count
	// polling slots.
	PhaseBroadcast = "labelcast/broadcast"
	// PhaseAscend frames one ToSource gradient ascent; round batches count
	// polling slots.
	PhaseAscend = "labelcast/ascend"
)

// roundsBatch is how many polling slots accumulate before a RoundBatch event
// is emitted: coarse enough that an attached observer costs one call per
// batch, fine enough that progress still streams during long disseminations.
const roundsBatch = 64

// Result summarizes one polled broadcast.
type Result struct {
	// DeliveredAll reports whether every labeled vertex got the message.
	DeliveredAll bool
	// Delivered counts vertices that got the message.
	Delivered int
	// MaxLatency is the number of slots from injection to the last
	// delivery (only meaningful when DeliveredAll).
	MaxLatency int64
	// Slots is the total number of slots simulated.
	Slots int64
	// IdleListens counts listen slots in which nothing was delivered — the
	// polling overhead a node pays for staying reachable.
	IdleListens int64
}

// Scratch owns the reusable per-call buffers of Broadcast and ToSource so
// repeated dissemination runs (e.g. pooled harness trials) allocate nothing
// in steady state. A zero Scratch is ready to use; it is not safe for
// concurrent use.
type Scratch struct {
	has       []bool
	offers    []int
	senders   []radio.TX
	receivers []int32
	got       []radio.Msg
	ok        []bool
}

// Broadcast floods one message from the label-0 vertex under polling period
// period: in slot t, holders with label ℓ ≡ t-1 (mod period) transmit and
// non-holders with label i ≡ t (mod period) listen. Unlabeled vertices
// (negative label) sleep throughout. The simulation stops when everyone has
// the message or maxSlots elapse. The slot loop polls h.Err every slot — a
// canceled context stops the dissemination with all meters settled and the
// partial delivery recorded in the Result — and reports simulated slots in
// batches under PhaseBroadcast.
func (s *Scratch) Broadcast(h progress.Hooks, net lbnet.Net, labels []int32, period int, maxSlots int64) Result {
	h.Start(PhaseBroadcast)
	defer h.End(PhaseBroadcast)
	if period < 1 {
		period = 1
	}
	n := net.N()
	has := scratch.Grow(s.has, n)
	s.has = has
	for i := range has {
		has[i] = false
	}
	labeled := 0
	for v := 0; v < n; v++ {
		if labels[v] == 0 {
			has[v] = true
		}
		if labels[v] >= 0 {
			labeled++
		}
	}
	var res Result
	senders := s.senders[:0]
	receivers := s.receivers[:0]
	got := scratch.Grow(s.got, n)
	ok := scratch.Grow(s.ok, n)
	s.got, s.ok = got, ok
	delivered := 0
	for v := 0; v < n; v++ {
		if has[v] {
			delivered++
		}
	}
	pending := int64(0)
	for t := int64(1); t <= maxSlots; t++ {
		if h.Err() != nil {
			break // canceled: partial delivery, meters settled
		}
		if pending++; pending == roundsBatch {
			h.Rounds(PhaseBroadcast, pending)
			pending = 0
		}
		residue := int32(t % int64(period))
		senders, receivers = senders[:0], receivers[:0]
		for v := int32(0); v < int32(n); v++ {
			l := labels[v]
			if l < 0 {
				continue
			}
			switch {
			case has[v] && (int64(l)+1)%int64(period) == int64(residue):
				senders = append(senders, radio.TX{ID: v, Msg: radio.Msg{Kind: MsgData, A: uint64(l)}})
			case !has[v] && int64(l)%int64(period) == int64(residue):
				receivers = append(receivers, v)
			}
		}
		if len(senders) == 0 && len(receivers) == 0 {
			net.SkipLB(1)
			res.Slots++
			continue
		}
		net.LocalBroadcast(senders, receivers, got[:len(receivers)], ok[:len(receivers)])
		res.Slots++
		for j, v := range receivers {
			if ok[j] && got[j].Kind == MsgData {
				has[v] = true
				delivered++
				res.MaxLatency = t
			} else {
				res.IdleListens++
			}
		}
		if delivered == labeled {
			break
		}
	}
	h.Rounds(PhaseBroadcast, pending)
	s.senders, s.receivers = senders, receivers
	res.Delivered = delivered
	res.DeliveredAll = delivered == labeled
	return res
}

// SteadyStateListens returns the polling energy a node spends per horizon
// slots while idle (no traffic): one listen every period slots. It is the
// analytic counterpart displayed next to measured results in E14.
func SteadyStateListens(horizon int64, period int) int64 {
	if period < 1 {
		period = 1
	}
	return horizon / int64(period)
}
