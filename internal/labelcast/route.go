package labelcast

import (
	"repro/internal/lbnet"
	"repro/internal/progress"
	"repro/internal/radio"
	"repro/internal/scratch"
)

// MsgUp is the payload kind routed toward the source.
const MsgUp = 0x51

// RouteResult summarizes one gradient routing toward the source.
type RouteResult struct {
	// Reached reports whether the label-0 vertex received the message.
	Reached bool
	// Slots is the number of polling slots consumed.
	Slots int64
	// Hops is the number of layer transitions the message made.
	Hops int
}

// ToSource routes a message from origin to the label-0 vertex along strictly
// decreasing labels — the other half of the paper's §1 application: any
// sensor can raise an alarm, which climbs the BFS gradient to the base
// station (then Broadcast disseminates it). The schedule piggybacks on the
// same polling pattern as Broadcast: the label-i vertices wake at slots
// ≡ i (mod period), so a holder with label ℓ transmits when layer ℓ-1 is
// awake. Each holder offers the message for retries frames. O(1)
// transmissions per on-path vertex; listening is the polling duty cycle.
// The slot loop polls h.Err every slot — a canceled context stops the ascent
// with all meters settled — and reports simulated slots in batches under
// PhaseAscend.
func (s *Scratch) ToSource(h progress.Hooks, net lbnet.Net, labels []int32, origin int32, period, retries int, maxSlots int64) RouteResult {
	h.Start(PhaseAscend)
	defer h.End(PhaseAscend)
	if period < 1 {
		period = 1
	}
	if retries < 1 {
		retries = 1
	}
	n := net.N()
	var res RouteResult
	if labels[origin] < 0 {
		return res
	}
	if labels[origin] == 0 {
		res.Reached = true
		return res
	}
	holder := scratch.Grow(s.has, n)
	offers := scratch.Grow(s.offers, n) // remaining frames a holder transmits in
	s.has, s.offers = holder, offers
	for i := 0; i < n; i++ {
		holder[i], offers[i] = false, 0
	}
	holder[origin] = true
	offers[origin] = retries
	bestLabel := labels[origin]
	senders := s.senders[:0]
	receivers := s.receivers[:0]
	got := scratch.Grow(s.got, n)
	ok := scratch.Grow(s.ok, n)
	s.got, s.ok = got, ok
	pending := int64(0)
	defer func() { h.Rounds(PhaseAscend, pending) }()
	for t := int64(1); t <= maxSlots; t++ {
		if h.Err() != nil {
			break // canceled: meters settled, message not delivered
		}
		if pending++; pending == roundsBatch {
			h.Rounds(PhaseAscend, pending)
			pending = 0
		}
		res.Slots++
		residue := int32(t % int64(period))
		senders, receivers = senders[:0], receivers[:0]
		for v := int32(0); v < int32(n); v++ {
			l := labels[v]
			if l < 0 {
				continue
			}
			switch {
			case holder[v] && offers[v] > 0 && l > 0 && (int64(l-1))%int64(period) == int64(residue):
				senders = append(senders, radio.TX{ID: v, Msg: radio.Msg{Kind: MsgUp, A: uint64(l)}})
			case !holder[v] && int64(l)%int64(period) == int64(residue):
				// The polling wake: every awake vertex listens; only a
				// label ℓ-1 vertex accepts a label-ℓ upward message.
				receivers = append(receivers, v)
			}
		}
		if len(senders) == 0 && len(receivers) == 0 {
			net.SkipLB(1)
			continue
		}
		net.LocalBroadcast(senders, receivers, got[:len(receivers)], ok[:len(receivers)])
		for i := range senders {
			v := senders[i].ID
			if offers[v] > 0 {
				offers[v]--
			}
		}
		for j, v := range receivers {
			if !ok[j] || got[j].Kind != MsgUp {
				continue
			}
			if int32(got[j].A) != labels[v]+1 {
				continue // foreign layer; polling listener ignores it
			}
			if !holder[v] {
				holder[v] = true
				offers[v] = retries
				if labels[v] < bestLabel {
					bestLabel = labels[v]
					res.Hops++
				}
				if labels[v] == 0 {
					res.Reached = true
					s.senders, s.receivers = senders, receivers
					return res
				}
			}
		}
	}
	s.senders, s.receivers = senders, receivers
	return res
}
