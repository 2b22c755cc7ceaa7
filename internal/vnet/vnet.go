package vnet

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/lbnet"
	"repro/internal/radio"
)

// MsgCast is the message kind used inside casts.
const MsgCast = 0x20

// VNet is the cluster graph of a parent network, usable as an lbnet.Net.
type VNet struct {
	parent lbnet.Net
	// unit is the parent when it is a *lbnet.UnitNet, else nil. Casts on a
	// unit-cost parent resolve only the steps that can deliver and charge
	// the others (see castStage).
	unit *lbnet.UnitNet
	cl   *cluster.Clustering
	g    *graph.Graph // cluster graph (reference topology)

	// Precomputed schedule data.
	membersAtLayer [][][]int32 // [cluster][layer] -> member vertices
	maxLayerOf     []int32     // [cluster] -> deepest member layer
	subsets        [][]int32   // [cluster] -> sorted subset slots
	hdrBits        uint        // bits pushed per wrap

	lbTime int64
	energy []int64 // per cluster, LB units at this level

	// castFailures counts w.h.p.-zero divergence events: a participating
	// member that missed a Downcast, or a center that missed an Upcast some
	// member sent into. Tests assert it stays zero under default parameters.
	castFailures int64

	// Scratch (parent-sized and cluster-sized). All of it is owned by the
	// VNet and reused across calls, so the steady-state cast and
	// LocalBroadcast paths allocate nothing.
	memberMsg   []radio.Msg
	memberHas   []bool
	partScratch []bool
	slotBucket  [][]int32
	slotUsed    []bool
	steps       []int32
	stageCap    []int32
	spans       []castSpan // [cluster] -> its lists in sendBuf/waitBuf
	sendBuf     []radio.TX // a cast stage's sender blocks, then one step's senders; phase 2's senders
	waitBuf     []int32    // a cast stage's waiting receivers, then one step's receivers; phase 2's receivers
	gotScratch  []radio.Msg
	okScratch   []bool
	near        []uint8 // unit-cost cast stage: 1 = waiting receiver, 2 = one with a stage sender next to it
	active      []int32
	lbMsg       []radio.Msg // LocalBroadcast: per-cluster sender payloads
	lbHas       []bool
	lbGot       []radio.Msg // LocalBroadcast: per-cluster upcast results
	lbOk        []bool
	lbPartR     []bool
}

// castSpan locates one cluster's lists for the current cast stage: its
// sender block (transport header already pushed) is sendBuf[s0:s1], and the
// members still waiting to hear are waitBuf[w0:w1], a list that shrinks as
// they hear.
type castSpan struct{ s0, s1, w0, w1 int32 }

// New builds the virtual network for clustering cl of the parent net.
func New(parent lbnet.Net, cl *cluster.Clustering) *VNet {
	pn := parent.N()
	nc := cl.NumClusters()
	unit, _ := parent.(*lbnet.UnitNet)
	v := &VNet{
		parent:     parent,
		unit:       unit,
		cl:         cl,
		g:          cl.ClusterGraph(parent.Graph()),
		maxLayerOf: make([]int32, nc),
		subsets:    make([][]int32, nc),
		energy:     make([]int64, nc),

		memberMsg:   make([]radio.Msg, pn),
		memberHas:   make([]bool, pn),
		partScratch: make([]bool, nc),
		slotBucket:  make([][]int32, cl.Cfg.SubsetLen),
		slotUsed:    make([]bool, cl.Cfg.SubsetLen),
		stageCap:    make([]int32, cl.Cfg.SubsetLen),
		spans:       make([]castSpan, nc),
		gotScratch:  make([]radio.Msg, pn),
		okScratch:   make([]bool, pn),
		near:        make([]uint8, pn),
		lbMsg:       make([]radio.Msg, nc),
		lbHas:       make([]bool, nc),
		lbGot:       make([]radio.Msg, nc),
		lbOk:        make([]bool, nc),
		lbPartR:     make([]bool, nc),
	}
	v.membersAtLayer = make([][][]int32, nc)
	for c := 0; c < nc; c++ {
		v.subsets[c] = cl.Subset(int32(c))
	}
	for u := int32(0); u < int32(pn); u++ {
		c := cl.ClusterOf[u]
		l := cl.Layer[u]
		if l > v.maxLayerOf[c] {
			v.maxLayerOf[c] = l
		}
	}
	for c := 0; c < nc; c++ {
		v.membersAtLayer[c] = make([][]int32, v.maxLayerOf[c]+1)
	}
	for u := int32(0); u < int32(pn); u++ {
		c := cl.ClusterOf[u]
		l := cl.Layer[u]
		v.membersAtLayer[c][l] = append(v.membersAtLayer[c][l], u)
	}
	v.hdrBits = 1
	for 1<<v.hdrBits < nc+1 {
		v.hdrBits++
	}
	return v
}

// Clustering returns the clustering this level is built on.
func (v *VNet) Clustering() *cluster.Clustering { return v.cl }

// Parent returns the network this level is simulated on.
func (v *VNet) Parent() lbnet.Net { return v.parent }

// CastFailures returns the number of cast divergence events so far.
func (v *VNet) CastFailures() int64 { return v.castFailures }

// N implements lbnet.Net: the number of clusters.
func (v *VNet) N() int { return v.cl.NumClusters() }

// GlobalN implements lbnet.Net: the physical network size.
func (v *VNet) GlobalN() int { return v.parent.GlobalN() }

// Graph implements lbnet.Net: the cluster graph (analysis only).
func (v *VNet) Graph() *graph.Graph { return v.g }

// LBTime implements lbnet.Net.
func (v *VNet) LBTime() int64 { return v.lbTime }

// LBEnergy implements lbnet.Net.
func (v *VNet) LBEnergy(c int32) int64 { return v.energy[c] }

// CastLBs returns the fixed duration of one cast in parent LB units:
// TMax stages of SubsetLen steps.
func (v *VNet) CastLBs() int64 {
	return int64(v.cl.Cfg.TMax) * int64(v.cl.Cfg.SubsetLen)
}

// VLBCost returns the fixed duration of one virtual Local-Broadcast in
// parent LB units: three casts plus one parent Local-Broadcast.
func (v *VNet) VLBCost() int64 { return 3*v.CastLBs() + 1 }

// SkipLB implements lbnet.Net.
func (v *VNet) SkipLB(k int64) {
	if k < 0 {
		panic("vnet: negative skip")
	}
	v.lbTime += k
	v.parent.SkipLB(k * v.VLBCost())
}

// wrap pushes this level's cluster ID onto the transport header.
func (v *VNet) wrap(m radio.Msg, c int32) radio.Msg {
	m.Hdr = m.Hdr<<v.hdrBits | uint64(c+1)
	return m
}

// unwrap pops this level's cluster ID; ok is false for foreign messages.
func (v *VNet) unwrap(m radio.Msg, want int32) (radio.Msg, bool) {
	c := int64(m.Hdr&(1<<v.hdrBits-1)) - 1
	m.Hdr >>= v.hdrBits
	return m, c == int64(want)
}

// Downcast delivers clusterMsg[c] from the center of every participating
// cluster c (part[c] && has[c]) to all of c's members. Results land in
// memberGot/memberOk, indexed by parent vertex; entries of members of
// non-participating clusters are zeroed. Members of participating clusters
// without a message (has[c] false) still listen on schedule. The call always
// consumes CastLBs() parent LB units.
func (v *VNet) Downcast(part, has []bool, clusterMsg []radio.Msg, memberGot []radio.Msg, memberOk []bool) {
	for i := range memberGot {
		memberGot[i], memberOk[i] = radio.Msg{}, false
	}
	for c, center := range v.cl.Center {
		if has != nil && !has[c] {
			continue
		}
		memberGot[center] = clusterMsg[c]
		memberOk[center] = true
	}
	v.cast(part, memberGot, memberOk, false)
	// A member of a participating cluster whose center had a message but
	// who didn't receive it is a divergence event.
	for c := range part {
		if !part[c] || (has != nil && !has[c]) {
			continue
		}
		for _, layerMembers := range v.membersAtLayer[c] {
			for _, u := range layerMembers {
				if !memberOk[u] {
					v.castFailures++
				}
			}
		}
	}
}

// Upcast delivers, for every participating cluster with at least one member
// holding a message (memberHas), one such message to the cluster center.
// Results land in clusterGot/clusterOk indexed by cluster. The call always
// consumes CastLBs() parent LB units.
func (v *VNet) Upcast(part []bool, memberHas []bool, memberMsg []radio.Msg, clusterGot []radio.Msg, clusterOk []bool) {
	copy(v.memberMsg, memberMsg)
	copy(v.memberHas, memberHas)
	for c := range clusterGot {
		clusterGot[c], clusterOk[c] = radio.Msg{}, false
	}
	v.cast(part, v.memberMsg, v.memberHas, true)
	for c := range part {
		if !part[c] {
			continue
		}
		center := v.cl.Center[c]
		if v.memberHas[center] {
			clusterGot[c] = v.memberMsg[center]
			clusterOk[c] = true
			continue
		}
		// If any member held a message and the center never got it, the
		// Upcast diverged. A member holds one after the cast iff some
		// member of its cluster held one before, so the cast's own copy
		// answers that even when the caller passed it in as memberHas.
	scan:
		for _, layerMembers := range v.membersAtLayer[c] {
			for _, m := range layerMembers {
				if v.memberHas[m] {
					v.castFailures++
					break scan
				}
			}
		}
	}
}

// cast runs the stage/step schedule of Lemma 3.1 shared by both directions:
// a downcast's stage s (s ascending) has layer s-1 send to layer s, an
// upcast's (s descending) has layer s send to layer s-1. In every step j of
// a stage, the members of each participating cluster C with j ∈ S_C act:
// those holding a message (holds/msgs) transmit it, those without listen,
// and a listener that hears its own cluster's message records it and stops
// listening. Messages of foreign clusters in the same step are discarded by
// the transport header; the listener retries in its next subset step. The
// call always consumes exactly CastLBs() parent LB units.
func (v *VNet) cast(part []bool, msgs []radio.Msg, holds []bool, up bool) {
	cfg := v.cl.Cfg

	// Active clusters: the participating list, bucketed by subset slot ONCE
	// for the whole cast. The schedule (which slots exist and which clusters
	// share them) is stage-invariant; only the sender/receiver layers change
	// per stage.
	//
	// Cluster c is relevant to stage s iff s ≤ maxLayerOf[c]+1 (in both
	// directions min(senderLayer, recvLayer) = s-1), so relevance is a
	// prefix property in the stage number: maxStage clamps the whole loop
	// to the deepest cluster and stageCap[j] skips a slot once every
	// cluster sharing it is out of range. Stages and slots skipped this way
	// have no participant, so they execute no parent call and are covered
	// by the trailing SkipLB, which charges CastLBs() minus the executed
	// count.
	v.active = v.active[:0]
	for c := int32(0); c < int32(v.N()); c++ {
		if part[c] {
			v.active = append(v.active, c)
		}
	}
	v.steps = v.steps[:0]
	maxStage := int32(0)
	for _, c := range v.active {
		depth := v.maxLayerOf[c] + 1
		if depth > maxStage {
			maxStage = depth
		}
		for _, j := range v.subsets[c] {
			if !v.slotUsed[j] {
				v.slotUsed[j] = true
				v.steps = append(v.steps, j)
			}
			v.slotBucket[j] = append(v.slotBucket[j], c)
			if depth > v.stageCap[j] {
				v.stageCap[j] = depth
			}
		}
	}
	slices.Sort(v.steps)
	if maxStage > int32(cfg.TMax) {
		maxStage = int32(cfg.TMax)
	}
	executed := int64(0)
	for k := int32(1); k <= maxStage; k++ {
		if up {
			s := maxStage + 1 - k
			executed += v.castStage(s, s, s-1, msgs, holds)
		} else {
			executed += v.castStage(k, k-1, k, msgs, holds)
		}
	}
	for _, j := range v.steps {
		v.slotUsed[j] = false
		v.slotBucket[j] = v.slotBucket[j][:0]
		v.stageCap[j] = 0
	}
	if skip := v.CastLBs() - executed; skip > 0 {
		v.parent.SkipLB(skip)
	}
}

// castStage runs one stage of cast — members at layer sLayer send, members
// at layer rLayer listen — and returns how many parent Local-Broadcasts it
// executed.
//
// It builds each active cluster's two lists once (see castSpan); a step's
// senders and receivers are the concatenation, in bucket order, of the
// lists of the clusters sharing it, merged in place past the stage lists.
// On most parents every step with a sender or a receiver is one parent
// Local-Broadcast. On a unit-cost parent a listener with no sending
// neighbour hears nothing and draws no randomness, so it is charged, not
// resolved: prune first drops every waiting receiver with no stage sender
// next to it and every sender with no waiting receiver next to it, then
// only the steps holding both are resolved, through UnitNet.Deliver, and
// the stage stops once every remaining receiver has heard. Each member is
// charged once for the stage: a sender |S_C| units, a receiver the steps
// it listened in until it heard (|S_C| if it never did). The meters, the
// deliveries and the failure draws are exactly those of one LocalBroadcast
// per step; the clock is covered by cast's SkipLB, since nothing here
// executes.
func (v *VNet) castStage(stage, sLayer, rLayer int32, msgs []radio.Msg, holds []bool) int64 {
	send, wait := v.sendBuf[:0], v.waitBuf[:0]
	for _, c := range v.active {
		sp := &v.spans[c]
		ml, maxL := v.membersAtLayer[c], v.maxLayerOf[c]
		sp.s0 = int32(len(send))
		if sLayer <= maxL {
			for _, u := range ml[sLayer] {
				if holds[u] {
					send = append(send, radio.TX{ID: u, Msg: v.wrap(msgs[u], c)})
				}
			}
		}
		sp.s1 = int32(len(send))
		sp.w0 = int32(len(wait))
		if rLayer <= maxL {
			for _, u := range ml[rLayer] {
				if !holds[u] {
					wait = append(wait, u)
				}
			}
		}
		sp.w1 = int32(len(wait))
	}
	unit := v.unit
	if unit != nil {
		send, wait = v.prune(send, wait)
	}
	nSend, nWait := len(send), len(wait)
	waiting := nWait
	executed := int64(0)
	for _, j := range v.steps {
		if unit != nil && (nSend == 0 || waiting == 0) {
			break // no later step of this stage can deliver
		}
		if stage > v.stageCap[j] {
			continue
		}
		bucket := v.slotBucket[j]
		hasTx, hasRx := false, false
		for _, c := range bucket {
			sp := &v.spans[c]
			hasTx = hasTx || sp.s1 > sp.s0
			hasRx = hasRx || sp.w1 > sp.w0
		}
		if !hasTx && !hasRx || unit != nil && !(hasTx && hasRx) {
			continue
		}
		for _, c := range bucket {
			sp := v.spans[c]
			send = append(send, send[sp.s0:sp.s1]...)
			wait = append(wait, wait[sp.w0:sp.w1]...)
		}
		tx, rx := send[nSend:], wait[nWait:]
		got, ok := v.gotScratch[:len(rx)], v.okScratch[:len(rx)]
		if unit != nil {
			unit.Deliver(tx, rx, got, ok)
		} else {
			v.parent.LocalBroadcast(tx, rx, got, ok)
			executed++
		}
		send, wait = send[:nSend], wait[:nWait]
		i := 0
		for _, c := range bucket {
			sp := &v.spans[c]
			kept := sp.w0
			for _, u := range wait[sp.w0:sp.w1] {
				heard := ok[i]
				m, mine := v.unwrap(got[i], c)
				i++
				if heard && mine {
					msgs[u], holds[u] = m, true
					waiting--
					if unit != nil {
						r, _ := slices.BinarySearch(v.subsets[c], j)
						unit.Charge(u, int64(r)+1)
					}
					continue
				}
				wait[kept] = u
				kept++
			}
			sp.w1 = kept
		}
	}
	if unit != nil {
		for _, c := range v.active {
			sp := v.spans[c]
			k := int64(len(v.subsets[c]))
			for _, t := range send[sp.s0:sp.s1] {
				unit.Charge(t.ID, k)
			}
			for _, u := range wait[sp.w0:sp.w1] {
				unit.Charge(u, k)
			}
		}
	}
	v.sendBuf, v.waitBuf = send[:0], wait[:0]
	return executed
}

// prune drops, on a unit-cost parent, the stage's members that can take no
// part in a delivery, and charges each of them |S_C| now: a waiting
// receiver with no stage sender among its neighbours (in every step it
// hears silence and draws no failure coin), and a sender with no waiting
// receiver among its neighbours (it changes no receiver's minimum-ID
// sending neighbour). The lists stay grouped by cluster in active order,
// compacted in place, and the spans are moved with them.
func (v *VNet) prune(send []radio.TX, wait []int32) ([]radio.TX, []int32) {
	g, near, unit := v.unit.Graph(), v.near, v.unit
	for _, u := range wait {
		near[u] = 1
	}
	ns, nw := int32(0), int32(0)
	for _, c := range v.active {
		sp := &v.spans[c]
		k := int64(len(v.subsets[c]))
		s0 := ns
		for _, t := range send[sp.s0:sp.s1] {
			useful := false
			for _, x := range g.Neighbors(t.ID) {
				if near[x] != 0 {
					near[x], useful = 2, true
				}
			}
			if useful {
				send[ns] = t
				ns++
			} else {
				unit.Charge(t.ID, k)
			}
		}
		sp.s0, sp.s1 = s0, ns
	}
	for _, c := range v.active {
		sp := &v.spans[c]
		k := int64(len(v.subsets[c]))
		w0 := nw
		for _, u := range wait[sp.w0:sp.w1] {
			if near[u] == 2 {
				wait[nw] = u
				nw++
			} else {
				unit.Charge(u, k)
			}
			near[u] = 0
		}
		sp.w0, sp.w1 = w0, nw
	}
	return send[:ns], wait[:nw]
}

// LocalBroadcast implements lbnet.Net on the cluster graph (Lemma 3.2):
// sending clusters' messages reach, w.h.p., every receiving cluster adjacent
// to a sender in G*. The result is also downcast to every member of each
// receiving cluster, keeping replicated cluster state consistent.
func (v *VNet) LocalBroadcast(senders []radio.TX, receivers []int32, got []radio.Msg, ok []bool) {
	if len(got) != len(receivers) || len(ok) != len(receivers) {
		panic("vnet: result slices must match receivers length")
	}
	partS := v.partScratch
	clusterMsg, hasMsg := v.lbMsg, v.lbHas
	for i := range senders {
		partS[senders[i].ID] = true
		hasMsg[senders[i].ID] = true
		clusterMsg[senders[i].ID] = senders[i].Msg
	}
	// Phase 1: Downcast sender payloads to sender-cluster members.
	v.Downcast(partS, hasMsg, clusterMsg, v.memberMsg, v.memberHas)

	// Phase 2: one parent Local-Broadcast from all sender-cluster members to
	// all receiver-cluster members. Participant lists are built from member
	// lists so the cost stays proportional to participation. The payloads in
	// v.memberMsg/v.memberHas are stable here: nothing mutates them between
	// the phase-1 Downcast and this TX build.
	tx := v.sendBuf[:0]
	for i := range senders {
		for _, layerMembers := range v.membersAtLayer[senders[i].ID] {
			for _, u := range layerMembers {
				if v.memberHas[u] {
					tx = append(tx, radio.TX{ID: u, Msg: v.memberMsg[u]})
				}
			}
		}
	}
	partR := v.lbPartR
	rx := v.waitBuf[:0]
	for _, c := range receivers {
		if partS[c] {
			panic("vnet: cluster is both sender and receiver")
		}
		partR[c] = true
		for _, layerMembers := range v.membersAtLayer[c] {
			rx = append(rx, layerMembers...)
		}
	}
	got2 := v.gotScratch[:len(rx)]
	ok2 := v.okScratch[:len(rx)]
	v.parent.LocalBroadcast(tx, rx, got2, ok2)
	// Phase-1 payloads are dead once tx is built, so phase 2's results go
	// straight into the same per-member arrays; only receiver-cluster
	// members are written, and only they take part in phase 3.
	for i, u := range rx {
		v.memberMsg[u], v.memberHas[u] = got2[i], ok2[i]
	}
	v.sendBuf, v.waitBuf = tx[:0], rx[:0]

	// Phase 3: Upcast one received message per receiving cluster.
	clusterGot, clusterOk := v.lbGot, v.lbOk
	v.Upcast(partR, v.memberHas, v.memberMsg, clusterGot, clusterOk)

	// Phase 4: Downcast the result so every member learns it.
	v.Downcast(partR, clusterOk, clusterGot, v.memberMsg, v.memberHas)

	for i, c := range receivers {
		got[i], ok[i] = clusterGot[c], clusterOk[c]
	}
	// Clear the participant scratch sparsely — only the entries this call
	// set — so the next call starts clean at cost proportional to
	// participation, not cluster count.
	for i := range senders {
		c := senders[i].ID
		partS[c], hasMsg[c] = false, false
		clusterMsg[c] = radio.Msg{}
	}
	for _, c := range receivers {
		partR[c] = false
	}
	// Meters: every sender or receiver cluster participated in one virtual LB.
	for i := range senders {
		v.energy[senders[i].ID]++
	}
	for _, c := range receivers {
		v.energy[c]++
	}
	v.lbTime++
}
