// Package diameter implements the paper's §5.1 upper bounds: the
// 2-approximation of Theorem 5.3 (leader election + BFS + Find Maximum) and
// the nearly-3/2-approximation of Theorem 5.4 (the Holzer–Peleg–Roditty–
// Wattenhofer / Roditty–Vassilevska-Williams sampling algorithm implemented
// on top of the energy-efficient BFS), together with the Find Minimum /
// Find Maximum primitives they rely on: binary search driven by layered
// convergecast and broadcast sweeps over a BFS-tree gradient, costing O(1)
// energy per vertex per sweep.
package diameter

import (
	"repro/internal/lbnet"
	"repro/internal/radio"
)

// Message kinds for the sweep protocols.
const (
	// MsgSweepFlag relays an existence bit toward the root.
	MsgSweepFlag = 0x40
	// MsgSweepBcast relays a value from the root to everyone.
	MsgSweepBcast = 0x41
)

// Tree is a BFS-gradient labeling used to schedule sweeps: Labels[v] is the
// hop distance from the root, Height the largest label. Unreachable
// vertices (negative label) never participate.
type Tree struct {
	Labels  []int32
	Height  int32
	byLayer [][]int32
	root    int32
}

// NewTree wraps BFS labels into a sweep schedule.
func NewTree(labels []int32) Tree {
	var h int32
	for _, l := range labels {
		if l > h {
			h = l
		}
	}
	tr := Tree{Labels: labels, Height: h, root: -1}
	tr.byLayer = make([][]int32, h+1)
	for v, l := range labels {
		if l >= 0 {
			tr.byLayer[l] = append(tr.byLayer[l], int32(v))
		}
		if l == 0 && tr.root < 0 {
			tr.root = int32(v)
		}
	}
	return tr
}

// Root returns the tree root (label-0 vertex), or -1 if none.
func (tr Tree) Root() int32 { return tr.root }

// convergecast floods an existence bit (with an optional payload) from all
// flagged vertices to the root: in stage k (descending from Height to 1) the
// flagged layer-k vertices transmit and unflagged layer-(k-1) vertices
// listen. It returns whether the root ended up flagged and the message it
// holds. Each vertex participates in at most 2 of the Height
// Local-Broadcasts, so a sweep costs O(1) energy per vertex.
func convergecast(net lbnet.Net, tr Tree, has []bool, msg []radio.Msg) (bool, radio.Msg) {
	var senders []radio.TX
	var receivers []int32
	n := net.N()
	got := make([]radio.Msg, n)
	ok := make([]bool, n)
	for k := tr.Height; k >= 1; k-- {
		senders, receivers = senders[:0], receivers[:0]
		for _, v := range tr.byLayer[k] {
			if has[v] {
				senders = append(senders, radio.TX{ID: v, Msg: msg[v]})
			}
		}
		for _, v := range tr.byLayer[k-1] {
			if !has[v] {
				receivers = append(receivers, v)
			}
		}
		if len(senders) == 0 {
			net.SkipLB(1)
			continue
		}
		net.LocalBroadcast(senders, receivers, got[:len(receivers)], ok[:len(receivers)])
		for j, v := range receivers {
			if ok[j] {
				has[v] = true
				msg[v] = got[j]
			}
		}
	}
	if tr.root < 0 {
		return false, radio.Msg{}
	}
	return has[tr.root], msg[tr.root]
}

// broadcast floods m from the root to every vertex along ascending layers.
func broadcast(net lbnet.Net, tr Tree, m radio.Msg, has []bool, msg []radio.Msg) {
	for i := range has {
		has[i] = false
	}
	if tr.root >= 0 {
		has[tr.root] = true
		msg[tr.root] = m
	}
	var senders []radio.TX
	var receivers []int32
	n := net.N()
	got := make([]radio.Msg, n)
	ok := make([]bool, n)
	for k := int32(1); k <= tr.Height; k++ {
		senders, receivers = senders[:0], receivers[:0]
		for _, v := range tr.byLayer[k-1] {
			if has[v] {
				senders = append(senders, radio.TX{ID: v, Msg: msg[v]})
			}
		}
		receivers = append(receivers, tr.byLayer[k]...)
		if len(senders) == 0 {
			net.SkipLB(1)
			continue
		}
		net.LocalBroadcast(senders, receivers, got[:len(receivers)], ok[:len(receivers)])
		for j, v := range receivers {
			if ok[j] {
				has[v] = true
				msg[v] = got[j]
			}
		}
	}
}

// KeyInf is the sentinel for vertices not participating in a Find query.
const KeyInf = int64(1) << 50

// FindMin locates the minimum of key(v) over participating vertices by
// binary search over [0, maxKey]: O(log maxKey) convergecast/broadcast sweep
// pairs, hence O(log maxKey) energy per vertex and O(Height · log maxKey)
// Local-Broadcast time. It returns the minimum key and the payload of the
// unique holder (callers make keys unique by embedding vertex IDs; ties
// deliver an arbitrary holder's payload). found is false when every key is
// KeyInf (or exceeds maxKey), and also when no holder's payload reached the
// root: on a lossy channel a missed convergecast can settle the search on a
// key nobody holds, or lose the holder's payload on its way up.
func FindMin(net lbnet.Net, tr Tree, maxKey int64, key func(int32) int64, payload func(int32) radio.Msg) (minKey int64, holder radio.Msg, found bool) {
	n := net.N()
	has := make([]bool, n)
	msg := make([]radio.Msg, n)
	flagMsg := radio.Msg{Kind: MsgSweepFlag, A: 1}
	lo, hi := int64(0), maxKey+1
	for lo < hi {
		mid := lo + (hi-lo)/2
		for v := int32(0); v < int32(n); v++ {
			has[v] = key(v) <= mid
			msg[v] = flagMsg
		}
		exists, _ := convergecast(net, tr, has, msg)
		bit := uint64(0)
		if exists {
			bit = 1
		}
		broadcast(net, tr, radio.Msg{Kind: MsgSweepBcast, A: bit}, has, msg)
		if exists {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > maxKey {
		return 0, radio.Msg{}, false
	}
	// Relay the holder's payload to the root, then share it with everyone.
	for v := int32(0); v < int32(n); v++ {
		has[v] = key(v) == lo
		if has[v] && payload != nil {
			msg[v] = payload(v)
		} else {
			msg[v] = flagMsg
		}
	}
	// The broadcast runs either way, so the schedule stays data-independent.
	exists, m := convergecast(net, tr, has, msg)
	broadcast(net, tr, m, has, msg)
	if !exists {
		return 0, radio.Msg{}, false
	}
	return lo, m, true
}

// FindMax is FindMin on reflected keys: it returns the maximum key (among
// keys in [0, maxKey]) and the holder's payload.
func FindMax(net lbnet.Net, tr Tree, maxKey int64, key func(int32) int64, payload func(int32) radio.Msg) (int64, radio.Msg, bool) {
	refl := func(v int32) int64 {
		k := key(v)
		if k < 0 || k > maxKey {
			return KeyInf
		}
		return maxKey - k
	}
	r, m, found := FindMin(net, tr, maxKey, refl, payload)
	if !found {
		return 0, radio.Msg{}, false
	}
	return maxKey - r, m, true
}
