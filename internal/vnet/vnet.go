package vnet

import (
	"cmp"
	"math/bits"
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
	// unit-cost parent resolve each listener from its own adjacency and
	// charge the silent steps (see castStageUnit).
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
	// VNet and reused across calls, and only participating clusters'
	// entries are written, so the steady-state cast and LocalBroadcast
	// paths allocate nothing and do no work for clusters that sleep.
	memberMsg  []radio.Msg // Upcast's working copy of the members' entries
	memberHas  []bool
	active     []int32     // the current cast's participating clusters, ascending
	byDepth    []int32     // unit-cost cast: the participating clusters by descending maxLayerOf
	slotBits   []uint64    // the slots of a step schedule being built, one bit each
	slotBucket [][]int32   // [slot] -> the schedule's clusters using it, ascending
	steps      []int32     // the schedule's slots, ascending
	stageCap   []int32     // per-slot casts: [slot] -> deepest stage a cluster using it reaches
	spans      []castSpan  // [cluster] -> its lists in the current stage's buffers
	sendBuf    []radio.TX  // per-slot stage's sender blocks, then one step's senders; phase 2's senders
	waitBuf    []int32     // per-slot stage's waiting receivers, then one step's receivers; phase 2's receivers
	gotScratch []radio.Msg // one step's or phase 2's deliveries
	okScratch  []bool
	senderOf   []int32     // unit-cost stage: [parent vertex] -> 1 + cluster of a stage sender, else 0
	senders    []int32     // unit-cost stage: its senders, to clear senderOf
	lis        []listener  // unit-cost stage: its kept receivers, grouped by cluster
	nbrs       []int32     // unit-cost stage: each listener's stage-sender neighbours, ascending
	live       []int32     // unit-cost stage: clusters with a kept receiver
	pending    stepHeap    // unit-cost stage: the next step of each cluster still listening
	lbMsg      []radio.Msg // LocalBroadcast: per-cluster sender payloads
	lbSend     []bool      // LocalBroadcast: the clusters sending in this call
	lbGot      []radio.Msg // LocalBroadcast: per-cluster upcast results
	lbOk       []bool
	partS      []int32 // LocalBroadcast: sending clusters, ascending
	partR      []int32 // LocalBroadcast: receiving clusters, ascending
}

// castSpan locates one cluster's lists for the current cast stage. On the
// per-slot path its sender block (transport header already pushed) is
// sendBuf[s0:s1], and the members still waiting to hear are waitBuf[w0:w1].
// On a unit-cost parent its kept receivers are lis[w0:w1] and its next step
// is S_C[step]. Waiting lists shrink as their members hear.
type castSpan struct{ s0, s1, w0, w1, step int32 }

// listener is a kept receiver of a unit-cost cast stage: a member that
// has not heard yet and has stage senders among its neighbours,
// nbrs[n0:n1].
type listener struct{ id, n0, n1 int32 }

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

		memberMsg:  make([]radio.Msg, pn),
		memberHas:  make([]bool, pn),
		slotBits:   make([]uint64, (cl.Cfg.SubsetLen+63)/64),
		slotBucket: make([][]int32, cl.Cfg.SubsetLen),
		stageCap:   make([]int32, cl.Cfg.SubsetLen),
		spans:      make([]castSpan, nc),
		gotScratch: make([]radio.Msg, pn),
		okScratch:  make([]bool, pn),
		lbMsg:      make([]radio.Msg, nc),
		lbSend:     make([]bool, nc),
		lbGot:      make([]radio.Msg, nc),
		lbOk:       make([]bool, nc),
	}
	if unit != nil {
		v.senderOf = make([]int32, pn)
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

// Layers returns cluster c's members grouped by layer, layer 0 being the
// center, each group in vertex order. The slices are shared: callers must
// not modify them.
func (v *VNet) Layers(c int32) [][]int32 { return v.membersAtLayer[c] }

// checkPart panics unless part lists clusters in ascending order without
// duplicates: a cast's schedule, and so its failure draws, follow that order.
func checkPart(part []int32) {
	for i := 1; i < len(part); i++ {
		if part[i] <= part[i-1] {
			panic("vnet: participating clusters must be ascending and distinct")
		}
	}
}

// Downcast delivers clusterMsg[c] from the center of every participating
// cluster c with has[c] (has nil means every one) to all of c's members.
// part lists the participating clusters in ascending order, without
// duplicates. Results land in memberGot/memberOk, indexed by parent vertex;
// only the entries of participating clusters' members are written, those of
// every other vertex are left as they were. Members of participating
// clusters without a message (has[c] false) still listen on schedule. The
// call always consumes CastLBs() parent LB units.
func (v *VNet) Downcast(part []int32, has []bool, clusterMsg []radio.Msg, memberGot []radio.Msg, memberOk []bool) {
	checkPart(part)
	for _, c := range part {
		for _, layerMembers := range v.membersAtLayer[c] {
			for _, u := range layerMembers {
				memberGot[u], memberOk[u] = radio.Msg{}, false
			}
		}
		if has == nil || has[c] {
			center := v.cl.Center[c]
			memberGot[center], memberOk[center] = clusterMsg[c], true
		}
	}
	v.cast(part, memberGot, memberOk, false)
	// A member of a participating cluster whose center had a message but
	// who didn't receive it is a divergence event.
	for _, c := range part {
		if has != nil && !has[c] {
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
// part lists the participating clusters in ascending order, without
// duplicates. Results land in clusterGot/clusterOk indexed by cluster; only
// the participating clusters' entries are written. The call always consumes
// CastLBs() parent LB units.
func (v *VNet) Upcast(part []int32, memberHas []bool, memberMsg []radio.Msg, clusterGot []radio.Msg, clusterOk []bool) {
	checkPart(part)
	for _, c := range part {
		for _, layerMembers := range v.membersAtLayer[c] {
			for _, u := range layerMembers {
				v.memberMsg[u], v.memberHas[u] = memberMsg[u], memberHas[u]
			}
		}
	}
	v.upcast(part, clusterGot, clusterOk)
}

// upcast is Upcast over the members' entries already in v.memberMsg and
// v.memberHas, which the cast then overwrites.
func (v *VNet) upcast(part []int32, clusterGot []radio.Msg, clusterOk []bool) {
	v.cast(part, v.memberMsg, v.memberHas, true)
	for _, c := range part {
		center := v.cl.Center[c]
		if v.memberHas[center] {
			clusterGot[c], clusterOk[c] = v.memberMsg[center], true
			continue
		}
		clusterGot[c], clusterOk[c] = radio.Msg{}, false
		// If any member held a message and the center never got it, the
		// Upcast diverged. A member holds one after the cast iff some
		// member of its cluster held one before, so the cast's own copy
		// answers that.
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
//
// Cluster c is relevant to stage s iff s ≤ maxLayerOf[c]+1 (in both
// directions min(senderLayer, recvLayer) = s-1), so relevance is a prefix
// property in the stage number: maxStage clamps the whole loop to the
// deepest participating cluster. Stages, and on the per-slot path slots,
// skipped this way have no participant, so they execute no parent call
// and are covered by the trailing SkipLB, which charges CastLBs() minus
// the executed count.
func (v *VNet) cast(part []int32, msgs []radio.Msg, holds []bool, up bool) {
	v.active = part
	maxStage := int32(0)
	for _, c := range part {
		maxStage = max(maxStage, v.maxLayerOf[c]+1)
	}
	maxStage = min(maxStage, int32(v.cl.Cfg.TMax))
	// stage returns the k-th stage to run and its sending and receiving
	// layers.
	stage := func(k int32) (s, sLayer, rLayer int32) {
		if up {
			s = maxStage + 1 - k
			return s, s, s - 1
		}
		return k, k - 1, k
	}
	executed := int64(0)
	if v.unit != nil {
		// A stage reaches a cluster iff its layer is at most the cluster's
		// maxLayerOf, so in descending depth order the clusters a stage
		// reaches are a prefix. Their order does not reach the outputs:
		// castStageUnit resolves listeners by (slot, cluster) heap order.
		v.byDepth = append(v.byDepth[:0], part...)
		slices.SortFunc(v.byDepth, func(a, b int32) int {
			return cmp.Compare(v.maxLayerOf[b], v.maxLayerOf[a])
		})
		for k := int32(1); k <= maxStage; k++ {
			_, sLayer, rLayer := stage(k)
			v.castStageUnit(sLayer, rLayer, msgs, holds)
		}
	} else {
		// The per-slot schedule (which slots exist, which clusters share
		// them, and the deepest stage each slot reaches) is stage-invariant,
		// so it is built once for the whole cast.
		for _, c := range part {
			depth := v.maxLayerOf[c] + 1
			for _, j := range v.subsets[c] {
				v.slotBits[j>>6] |= 1 << (j & 63)
				v.slotBucket[j] = append(v.slotBucket[j], c)
				v.stageCap[j] = max(v.stageCap[j], depth)
			}
		}
		steps := v.takeSteps()
		for k := int32(1); k <= maxStage; k++ {
			s, sLayer, rLayer := stage(k)
			executed += v.castStage(s, sLayer, rLayer, msgs, holds)
		}
		for _, j := range steps {
			v.slotBucket[j] = v.slotBucket[j][:0]
			v.stageCap[j] = 0
		}
	}
	v.active = nil
	if skip := v.CastLBs() - executed; skip > 0 {
		v.parent.SkipLB(skip)
	}
}

// takeSteps lists the slots marked in slotBits in ascending order into
// v.steps, clearing the marks.
func (v *VNet) takeSteps() []int32 {
	steps := v.steps[:0]
	for w, word := range v.slotBits {
		for ; word != 0; word &= word - 1 {
			steps = append(steps, int32(w<<6|bits.TrailingZeros64(word)))
		}
		v.slotBits[w] = 0
	}
	v.steps = steps
	return steps
}

// castStage runs one stage of cast on a parent that is not a unit-cost net
// — members at layer sLayer send, members at layer rLayer listen — and
// returns how many parent Local-Broadcasts it executed: one per step with a
// sender or a receiver.
//
// It builds each active cluster's two lists once (see castSpan); a step's
// senders and receivers are the concatenation, in bucket order, of the
// lists of the clusters sharing it, merged in place past the stage lists.
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
	nSend, nWait := len(send), len(wait)
	executed := int64(0)
	for _, j := range v.steps {
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
		if !hasTx && !hasRx {
			continue
		}
		for _, c := range bucket {
			sp := v.spans[c]
			send = append(send, send[sp.s0:sp.s1]...)
			wait = append(wait, wait[sp.w0:sp.w1]...)
		}
		tx, rx := send[nSend:], wait[nWait:]
		got, ok := v.gotScratch[:len(rx)], v.okScratch[:len(rx)]
		v.parent.LocalBroadcast(tx, rx, got, ok)
		executed++
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
					continue
				}
				wait[kept] = u
				kept++
			}
			sp.w1 = kept
		}
	}
	v.sendBuf, v.waitBuf = send[:0], wait[:0]
	return executed
}

// castStageUnit runs one stage of cast on a unit-cost parent, where a
// listener with no sending neighbour hears nothing and draws no failure
// coin, so nothing in the stage executes and every member is charged once
// (the clock is covered by cast's SkipLB):
//
//   - each stage sender is marked with its cluster and pays |S_C|, its
//     cluster's steps;
//   - each waiting receiver collects the stage senders among its neighbours
//     from its own sorted adjacency; one with none hears silence in every
//     step and pays |S_C|;
//   - the kept receivers are resolved step by step: the clusters still
//     listening wait in a heap on their next step, so steps come in
//     ascending slot order and, within one, clusters in ascending order,
//     the order one LocalBroadcast per step lists their receivers in. In
//     step j a receiver's first neighbour that is a stage sender of a
//     cluster using j is the minimum-ID sender UnitNet.Deliver would pick
//     for it, so the receiver draws its failure coin (UnitNet.Lost)
//     exactly when and in the order Deliver would, and hears its own
//     cluster's message iff that sender is in its cluster. It pays the
//     steps it listened in until it heard, or |S_C| if it never did.
//
// Outputs, meters and failure draws are exactly those of one parent
// LocalBroadcast per step, at a cost proportional to the stage's members,
// their adjacency and the steps in which someone still listens. The
// clusters are walked in byDepth order up to the first one the stage does
// not reach, so clusters shallower than the stage cost nothing.
func (v *VNet) castStageUnit(sLayer, rLayer int32, msgs []radio.Msg, holds []bool) {
	u, g, from := v.unit, v.unit.Graph(), v.senderOf
	snd := v.senders[:0]
	for _, c := range v.byDepth {
		if sLayer > v.maxLayerOf[c] {
			break
		}
		k := int64(len(v.subsets[c]))
		for _, x := range v.membersAtLayer[c][sLayer] {
			if holds[x] {
				from[x] = c + 1
				u.Charge(x, k)
				snd = append(snd, x)
			}
		}
	}
	lis, nbrs, live, h := v.lis[:0], v.nbrs[:0], v.live[:0], v.pending[:0]
	for _, c := range v.byDepth {
		if rLayer > v.maxLayerOf[c] {
			break
		}
		k := int64(len(v.subsets[c]))
		sp := &v.spans[c]
		sp.w0 = int32(len(lis))
		for _, r := range v.membersAtLayer[c][rLayer] {
			if holds[r] {
				continue
			}
			n0 := int32(len(nbrs))
			for _, x := range g.Neighbors(r) {
				if from[x] != 0 {
					nbrs = append(nbrs, x)
				}
			}
			if n1 := int32(len(nbrs)); n1 > n0 {
				lis = append(lis, listener{r, n0, n1})
			} else {
				u.Charge(r, k)
			}
		}
		if sp.w1 = int32(len(lis)); sp.w1 > sp.w0 {
			live = append(live, c)
			if sp.step = 0; k > 0 {
				h = h.push(c, v.subsets[c][0])
			}
		}
	}
	for len(h) > 0 {
		var c, j int32
		h, c, j = h.pop()
		sp := &v.spans[c]
		kept := sp.w0
		for _, l := range lis[sp.w0:sp.w1] {
			src := int32(-1)
			for _, x := range nbrs[l.n0:l.n1] {
				if sc := from[x] - 1; sc == c || inSlot(v.subsets[sc], j) {
					src = x
					break
				}
			}
			if src >= 0 && !u.Lost() && from[src]-1 == c {
				msgs[l.id], _ = v.unwrap(v.wrap(msgs[src], c), c)
				holds[l.id] = true
				u.Charge(l.id, int64(sp.step)+1)
				continue
			}
			lis[kept] = l
			kept++
		}
		if sp.w1 = kept; kept > sp.w0 {
			if sp.step++; int(sp.step) < len(v.subsets[c]) {
				h = h.push(c, v.subsets[c][sp.step])
			}
		}
	}
	for _, c := range live {
		sp := v.spans[c]
		k := int64(len(v.subsets[c]))
		for _, l := range lis[sp.w0:sp.w1] {
			u.Charge(l.id, k)
		}
	}
	for _, x := range snd {
		from[x] = 0
	}
	v.keepScratch(snd, lis, nbrs, live, h)
}

// keepScratch stores the unit-cost stage's lists back into the VNet when
// they outgrew their buffers. Storing a slice header costs a GC write
// barrier, so it is skipped while the buffers kept their capacity.
func (v *VNet) keepScratch(snd []int32, lis []listener, nbrs, live []int32, h stepHeap) {
	if cap(snd) > cap(v.senders) {
		v.senders = snd[:0]
	}
	if cap(lis) > cap(v.lis) {
		v.lis = lis[:0]
	}
	if cap(nbrs) > cap(v.nbrs) {
		v.nbrs = nbrs[:0]
	}
	if cap(live) > cap(v.live) {
		v.live = live[:0]
	}
	if cap(h) > cap(v.pending) {
		v.pending = h[:0]
	}
}

// inSlot reports whether slot j is in the sorted subset s.
func inSlot(s []int32, j int32) bool {
	_, ok := slices.BinarySearch(s, j)
	return ok
}

// stepHeap is a binary min-heap of (slot, cluster) pairs, ordered by slot
// and then by cluster. Its methods take and return the slice by value.
type stepHeap []uint64

func (q stepHeap) push(c, j int32) stepHeap {
	q = append(q, uint64(j)<<32|uint64(c))
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	return q
}

func (q stepHeap) pop() (rest stepHeap, c, j int32) {
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < len(q) && q[l] < q[m] {
			m = l
		}
		if r < len(q) && q[r] < q[m] {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return q, int32(uint32(top)), int32(top >> 32)
}

// LocalBroadcast implements lbnet.Net on the cluster graph (Lemma 3.2):
// sending clusters' messages reach, w.h.p., every receiving cluster adjacent
// to a sender in G*. The result is also downcast to every member of each
// receiving cluster, keeping replicated cluster state consistent. The casts
// touch only the members of sending and receiving clusters.
func (v *VNet) LocalBroadcast(senders []radio.TX, receivers []int32, got []radio.Msg, ok []bool) {
	if len(got) != len(receivers) || len(ok) != len(receivers) {
		panic("vnet: result slices must match receivers length")
	}
	partS, partR := v.partS[:0], v.partR[:0]
	for i := range senders {
		c := senders[i].ID
		v.lbSend[c] = true
		v.lbMsg[c] = senders[i].Msg
		partS = append(partS, c)
	}
	for _, c := range receivers {
		if v.lbSend[c] {
			panic("vnet: cluster is both sender and receiver")
		}
	}
	partR = append(partR, receivers...)
	slices.Sort(partS)
	slices.Sort(partR)
	v.partS, v.partR = partS, partR

	// Phase 1: Downcast sender payloads to sender-cluster members.
	v.Downcast(partS, nil, v.lbMsg, v.memberMsg, v.memberHas)

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
	rx := v.waitBuf[:0]
	for _, c := range receivers {
		for _, layerMembers := range v.membersAtLayer[c] {
			rx = append(rx, layerMembers...)
		}
	}
	got2 := v.gotScratch[:len(rx)]
	ok2 := v.okScratch[:len(rx)]
	v.parent.LocalBroadcast(tx, rx, got2, ok2)
	// Phase-1 payloads are dead once tx is built, so phase 2's results go
	// straight into the Upcast's working copy; every receiver-cluster
	// member is written, and only they take part in phase 3.
	for i, u := range rx {
		v.memberMsg[u], v.memberHas[u] = got2[i], ok2[i]
	}
	v.sendBuf, v.waitBuf = tx[:0], rx[:0]

	// Phase 3: Upcast one received message per receiving cluster.
	v.upcast(partR, v.lbGot, v.lbOk)

	// Phase 4: Downcast the result so every member learns it.
	v.Downcast(partR, v.lbOk, v.lbGot, v.memberMsg, v.memberHas)

	for i, c := range receivers {
		got[i], ok[i] = v.lbGot[c], v.lbOk[c]
	}
	for _, c := range partS {
		v.lbSend[c] = false
	}
	// Meters: every sender or receiver cluster participated in one virtual LB.
	for _, c := range partS {
		v.energy[c]++
	}
	for _, c := range partR {
		v.energy[c]++
	}
	v.lbTime++
}
