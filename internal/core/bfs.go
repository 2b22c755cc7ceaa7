package core

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/lbnet"
	"repro/internal/progress"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/vnet"
)

// Progress phase names emitted through Stack.Hooks.
const (
	// PhaseRecursive frames one Stack.BFS invocation; its round batches are
	// the β⁻¹-Local-Broadcast stages of Figure 2.
	PhaseRecursive = "recursive-bfs"
	// PhaseTrivial is the base-case wavefront BFS of §4.3.
	PhaseTrivial = "recursive-bfs/trivial"
)

// Message kinds used by Recursive-BFS.
const (
	// MsgWave advances the BFS wavefront; A carries the sender's label.
	MsgWave = 0x30
	// MsgDist disseminates a Special Update result; A carries dist*+1 (0 = ∞).
	MsgDist = 0x31
	// MsgFlag aggregates the W*/A* cluster flags; A carries a bitmask.
	MsgFlag = 0x32
)

// infBound is the ∞ sentinel for the L/U distance estimates.
const infBound = int64(1) << 60

// Unreached marks vertices whose distance exceeds the search radius.
const Unreached = int32(-1)

// Stack is the prebuilt tower of cluster graphs over a base network. Per §4,
// the cluster graph of each level is computed once and reused by every
// recursive invocation at that level.
type Stack struct {
	P    Params
	Base lbnet.Net
	// VNets[r] is the cluster graph of level r (so the Net of level r+1).
	VNets []*vnet.VNet
	// Inst collects instrumentation; nil disables it.
	Inst *Instrumentation
	// Hooks carries cancellation and progress observation through the round
	// loops: every stage boundary polls Hooks.Err and, when canceled, BFS
	// returns its partial labels without starting another phase (meters stay
	// consistent because accounting happens per Local-Broadcast). The zero
	// value disables both.
	Hooks progress.Hooks

	seed uint64
	// levels[r] is level r's reusable scratch; wave is the level-0
	// unit-cost scratch, shared by the depth-0 wavefront and the stage
	// path, which never run at once.
	levels []levelScratch
	wave   waveScratch
}

// levelScratch is one recursion level's reusable buffers: the cast
// buffers of flag aggregation and dissemination — member entries indexed
// by level-r vertex, of which only participating clusters' members are
// ever written, and entries indexed by cluster — and the per-slot stage's
// lists and deliveries.
type levelScratch struct {
	all        []int32 // every cluster, ascending
	memberHas  []bool
	memberMsg  []radio.Msg
	clusterGot []radio.Msg
	clusterMsg []radio.Msg
	f1, f2     []bool
	senders    []radio.TX
	receivers  []int32
	got        []radio.Msg
	ok         []bool
}

// waveScratch is the level-0 unit-cost schedules' reusable buffers: a
// stage's listeners, the frontier, one Local-Broadcast's receivers and
// their deliveries.
type waveScratch struct {
	lis   []int32
	front []radio.TX
	rx    []int32
	got   []radio.Msg
	ok    []bool
}

// deliveries returns delivery buffers for n receivers.
func (w *waveScratch) deliveries(n int) ([]radio.Msg, []bool) {
	if len(w.got) < n {
		w.got, w.ok = make([]radio.Msg, 2*n), make([]bool, 2*n)
	}
	return w.got[:n], w.ok[:n]
}

// levelBufs returns level r's scratch, its cast buffers sized on first
// use.
func (s *Stack) levelBufs(r int) *levelScratch {
	if s.levels == nil {
		s.levels = make([]levelScratch, len(s.VNets))
	}
	b := &s.levels[r]
	if b.all == nil {
		pn, nc := s.Level(r).N(), s.VNets[r].N()
		b.all = make([]int32, nc)
		for c := range b.all {
			b.all[c] = int32(c)
		}
		b.memberHas, b.memberMsg = make([]bool, pn), make([]radio.Msg, pn)
		b.clusterGot, b.clusterMsg = make([]radio.Msg, nc), make([]radio.Msg, nc)
		b.f1, b.f2 = make([]bool, nc), make([]bool, nc)
	}
	return b
}

// BuildStack clusters the base network Depth times, paying the construction
// energy of Lemma 2.5 at each level, and returns the reusable stack.
func BuildStack(base lbnet.Net, p Params, seed uint64) (*Stack, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Stack{P: p, Base: base, seed: seed}
	cur := lbnet.Net(base)
	for r := 0; r < p.Depth; r++ {
		cfg := cluster.DefaultConfig(base.GlobalN(), p.InvBeta)
		cl := cluster.Build(cur, cfg, rng.Derive(seed, uint64(r), 0x57ac))
		vn := vnet.New(cur, cl)
		s.VNets = append(s.VNets, vn)
		cur = vn
	}
	return s, nil
}

// Level returns the Net of recursion level r (0 = base).
func (s *Stack) Level(r int) lbnet.Net {
	if r == 0 {
		return s.Base
	}
	return s.VNets[r-1]
}

// CastFailures sums the cast divergence counters across all levels.
func (s *Stack) CastFailures() int64 {
	var t int64
	for _, vn := range s.VNets {
		t += vn.CastFailures()
	}
	return t
}

// BFS computes, for every vertex of the base network, its hop distance from
// the source set, or Unreached if it exceeds d. Sources must be non-empty.
// When the stack's Hooks context is canceled mid-run, the search stops at the
// next phase boundary and the labels assigned so far are returned; check
// s.Hooks.Err to distinguish a complete run from a canceled one.
func (s *Stack) BFS(sources []int32, d int) []int32 {
	s.Hooks.Start(PhaseRecursive)
	defer s.Hooks.End(PhaseRecursive)
	n := s.Base.N()
	S := make([]bool, n)
	for _, v := range sources {
		S[v] = true
	}
	A := make([]bool, n)
	for v := range A {
		A[v] = true
	}
	return s.recBFS(0, S, A, d)
}

// recBFS is Recursive-BFS(G, S, A, D) of Figure 2 at recursion level r.
// It returns dist_A(S, ·) capped at d (Unreached beyond). Vertices outside
// A expend no energy and return Unreached.
func (s *Stack) recBFS(r int, S, A []bool, d int) []int32 {
	net := s.Level(r)
	if r == s.P.Depth {
		return s.trivialBFS(r, net, S, A, d)
	}
	n := net.N()
	vn := s.VNets[r]
	clusterOf := vn.Clustering().ClusterOf
	nc := vn.N()
	invB := int64(s.P.InvBeta)
	w := int64(s.P.W)

	dist := make([]int32, n)
	active := make([]bool, n)
	for v := 0; v < n; v++ {
		dist[v] = Unreached
		active[v] = A[v]
		if S[v] && A[v] {
			dist[v] = 0
		}
	}

	z := NewZSeq(s.P.Alpha, int(ceilDiv(w*int64(d), invB)))
	L := make([]int64, nc)
	U := make([]int64, nc)

	// --- Step 1: initialize distance estimates via a recursive call on the
	// whole active cluster graph, searched to radius D* = Z[0].
	all := s.levelBufs(r).all
	inS, inA := s.aggregateFlags(r, all,
		func(v int32) bool { return S[v] && active[v] },
		func(v int32) bool { return active[v] })
	distStar := s.recBFS(r+1, inS, inA, z.DStar)
	s.disseminateDist(r, all, distStar)
	for c := 0; c < nc; c++ {
		if distStar[c] < 0 {
			L[c], U[c] = infBound, infBound
			continue
		}
		x := int64(distStar[c])
		L[c] = x * invB / w
		U[c] = maxI64(w*invB, x*invB*w)
	}
	// Step 2: deactivate vertices in unreached clusters.
	for v := 0; v < n; v++ {
		if active[v] && L[clusterOf[v]] >= infBound {
			active[v] = false
		}
	}

	unit, _ := net.(*lbnet.UnitNet)
	var (
		cand, up []int32 // Υ's candidates, and the clusters of Υ, ascending
		ups      = make([]bool, nc)
		srcs     = make([]bool, nc)
	)
	stages := ceilDiv(int64(d), invB)
	for i := int64(0); i < stages; i++ {
		if s.Hooks.Err() != nil {
			return dist // canceled: partial labels, meters settled
		}
		// Step 4: X_i = active vertices whose cluster might be near the
		// wavefront.
		inX := func(v int32) bool { return L[clusterOf[v]] <= invB }
		if s.Inst != nil {
			s.Inst.observeStage(r, i, s, active, dist, L, U, z, clusterOf, invB)
		}
		// Step 5: advance the wavefront by β⁻¹ Local-Broadcasts.
		if unit != nil {
			s.waveStageUnit(unit, i, d, active, dist, inX)
		} else {
			s.waveStageSlots(r, i, d, active, dist, inX)
		}
		// Step 6: deactivate settled vertices.
		for v := 0; v < n; v++ {
			if active[v] && dist[v] != Unreached && int64(dist[v]) < (i+1)*invB {
				active[v] = false
			}
		}
		// Step 7: Special Update on Υ = {C ∈ A* : L_i(C) <= (Z[i+1]+1)·β⁻¹}.
		zNext := int64(z.At(int(i + 1)))
		cand = cand[:0]
		for c := int32(0); c < int32(nc); c++ {
			if L[c] < infBound && L[c] <= (zNext+1)*invB {
				cand = append(cand, c)
			}
		}
		front := (i + 1) * invB
		inW, inAct := s.aggregateFlags(r, cand,
			func(v int32) bool { return int64(dist[v]) == front && dist[v] >= 0 },
			func(v int32) bool { return active[v] })
		up = up[:0]
		for _, c := range cand {
			ups[c] = inAct[c]
			srcs[c] = ups[c] && inW[c]
			if ups[c] {
				up = append(up, c)
			}
		}
		distStar := s.recBFS(r+1, srcs, ups, int(zNext))
		s.disseminateDist(r, up, distStar)
		for c := 0; c < nc; c++ {
			switch {
			case ups[c]:
				if s.Inst != nil {
					s.Inst.countSpecial(r, c)
				}
				newU := U[c] - invB
				var newL int64
				if distStar[c] < 0 {
					newL = zNext*invB + 1
				} else {
					x := int64(distStar[c])
					newL = minI64(zNext*invB+1, x*invB/w)
					newU = minI64(newU, maxI64(x, 1)*invB*w)
				}
				L[c], U[c] = newL, newU
			case L[c] < infBound:
				// Step 8: Automatic Update (free, purely local).
				L[c] -= invB
				U[c] -= invB
			}
		}
		for _, c := range cand {
			ups[c], srcs[c] = false, false
		}
		s.Hooks.Rounds(PhaseRecursive, invB)
	}
	return dist
}

// waveStageSlots is step 5 of stage i on a level that is not a unit-cost
// net: β⁻¹ Local-Broadcasts, the k-th from the active vertices of X_i at
// distance i·β⁻¹+k-1 to every unreached active vertex of X_i.
func (s *Stack) waveStageSlots(r int, i int64, d int, active []bool, dist []int32, inX func(int32) bool) {
	net := s.Level(r)
	b := s.levelBufs(r)
	invB := int64(s.P.InvBeta)
	senders, receivers := b.senders[:0], b.receivers[:0]
	for target := i * invB; target < (i+1)*invB; target++ {
		senders, receivers = senders[:0], receivers[:0]
		for v := int32(0); v < int32(len(dist)); v++ {
			if !active[v] {
				continue
			}
			if int64(dist[v]) == target && target+1 <= int64(d) && dist[v] >= 0 {
				if !inX(v) {
					// The invariant promises this cannot happen; count it
					// and honor the protocol (non-X_i vertices sleep).
					if s.Inst != nil {
						s.Inst.SenderViolations++
					}
					continue
				}
				senders = append(senders, radio.TX{ID: v, Msg: radio.Msg{Kind: MsgWave, A: uint64(target)}})
			} else if dist[v] == Unreached && inX(v) {
				receivers = append(receivers, v)
			}
		}
		if len(senders) == 0 && len(receivers) == 0 {
			net.SkipLB(1)
			continue
		}
		if b.got == nil {
			b.got, b.ok = make([]radio.Msg, len(dist)), make([]bool, len(dist))
		}
		got, ok := b.got[:len(receivers)], b.ok[:len(receivers)]
		net.LocalBroadcast(senders, receivers, got, ok)
		for j, v := range receivers {
			if ok[j] && got[j].Kind == MsgWave {
				dist[v] = int32(target + 1)
			}
		}
	}
	b.senders, b.receivers = senders[:0], receivers[:0]
}

// waveStageUnit is step 5 of stage i on a unit-cost level, where a
// listener with no sending neighbour hears nothing and draws no failure
// coin. The stage's β⁻¹ Local-Broadcasts have fixed listeners, X_i's
// unreached active vertices, each listening until it hears. Their senders
// are the frontier: first the active vertices at distance i·β⁻¹ (one
// outside X_i is a SenderViolation and sleeps), then, in each later
// Local-Broadcast, the vertices the one before it labeled. Only the
// frontier's listening neighbours can hear, so each Local-Broadcast
// resolves just them, in ID order, through UnitNet.Deliver: the deliveries
// and failure draws of one LocalBroadcast over every listener. A sender
// pays 1 when it sends; when the stage ends a listener that heard in
// Local-Broadcast k pays k, one that never heard β⁻¹, and the clock
// advances β⁻¹ in one SkipLB.
func (s *Stack) waveStageUnit(u *lbnet.UnitNet, i int64, d int, active []bool, dist []int32, inX func(int32) bool) {
	invB := int64(s.P.InvBeta)
	g := u.Graph()
	w := &s.wave
	first := i * invB
	listens := func(v int32) bool { return active[v] && dist[v] == Unreached && inX(v) }
	lis, front := w.lis[:0], w.front[:0]
	for v := int32(0); v < int32(len(dist)); v++ {
		switch {
		case !active[v]:
		case int64(dist[v]) == first && dist[v] >= 0 && first+1 <= int64(d):
			if !inX(v) {
				if s.Inst != nil {
					s.Inst.SenderViolations++
				}
				continue
			}
			front = append(front, radio.TX{ID: v, Msg: radio.Msg{Kind: MsgWave, A: uint64(first)}})
		case listens(v):
			lis = append(lis, v)
		}
	}
	rx := w.rx[:0]
	for target := first; target < first+invB && len(front) > 0; target++ {
		rx = rx[:0]
		for _, t := range front {
			for _, x := range g.Neighbors(t.ID) {
				if listens(x) {
					rx = append(rx, x)
				}
			}
		}
		slices.Sort(rx)
		rx = slices.Compact(rx)
		got, ok := w.deliveries(len(rx))
		u.Deliver(front, rx, got, ok)
		for _, t := range front {
			u.Charge(t.ID, 1)
		}
		front = front[:0]
		for j, x := range rx {
			if ok[j] && got[j].Kind == MsgWave {
				dist[x] = int32(target + 1)
				if target+2 <= int64(d) {
					front = append(front, radio.TX{ID: x, Msg: radio.Msg{Kind: MsgWave, A: uint64(target + 1)}})
				}
			}
		}
	}
	for _, v := range lis {
		if dist[v] == Unreached {
			u.Charge(v, invB)
		} else {
			u.Charge(v, int64(dist[v])-first)
		}
	}
	u.SkipLB(invB)
	w.lis, w.front, w.rx = lis[:0], front[:0], rx[:0]
}

// trivialBFS settles all distances up to d with d Local-Broadcasts (§4.3's
// base case): unlabeled active vertices listen in every call, so each spends
// Θ(d) energy — which is why the recursion only invokes it on small radii.
// On a unit-cost net the rounds run through wavefrontUnit; any other net
// gets one LocalBroadcast per round.
func (s *Stack) trivialBFS(r int, net lbnet.Net, S, A []bool, d int) []int32 {
	if s.Inst != nil {
		s.Inst.TrivialCalls[r]++
	}
	if unit, ok := net.(*lbnet.UnitNet); ok {
		return s.wavefrontUnit(unit, S, A, d)
	}
	n := net.N()
	dist := make([]int32, n)
	var senders []radio.TX
	var receivers []int32
	for v := 0; v < n; v++ {
		dist[v] = Unreached
		if S[v] && A[v] {
			dist[v] = 0
		}
	}
	got := make([]radio.Msg, n)
	ok := make([]bool, n)
	for k := int32(1); int(k) <= d; k++ {
		if s.Hooks.Err() != nil {
			break // canceled: partial labels, meters settled
		}
		s.Hooks.Rounds(PhaseTrivial, 1)
		senders, receivers = senders[:0], receivers[:0]
		for v := int32(0); v < int32(n); v++ {
			if !A[v] {
				continue
			}
			switch {
			case dist[v] == k-1:
				senders = append(senders, radio.TX{ID: v, Msg: radio.Msg{Kind: MsgWave, A: uint64(k - 1)}})
			case dist[v] == Unreached:
				receivers = append(receivers, v)
			}
		}
		if len(receivers) == 0 {
			// Nobody is listening: the remaining calls are silent for all.
			net.SkipLB(int64(d) - int64(k) + 1)
			break
		}
		net.LocalBroadcast(senders, receivers, got[:len(receivers)], ok[:len(receivers)])
		for j, v := range receivers {
			if ok[j] && got[j].Kind == MsgWave {
				dist[v] = k
			}
		}
	}
	return dist
}

// wavefrontUnit is trivialBFS on a unit-cost net, where a listener with no
// sending neighbour hears nothing and draws no failure coin. Round k's
// senders are the vertices labeled k-1 (the frontier), so only the
// frontier's unreached active neighbours can hear: each round resolves just
// them, in ID order, through UnitNet.Deliver — the deliveries and failure
// draws of one LocalBroadcast over every unreached vertex. Rounds run while
// someone is unreached and the run is not canceled; when the run ends, a
// vertex labeled L is charged L (it listened until it heard) plus 1 if
// round L+1 ran (it sent), an unlabeled one every round that ran, and the
// clock advances in one SkipLB.
func (s *Stack) wavefrontUnit(u *lbnet.UnitNet, S, A []bool, d int) []int32 {
	g := u.Graph()
	n := g.N()
	dist := make([]int32, n)
	front := s.wave.front[:0]
	unreached := 0
	for v := int32(0); v < int32(n); v++ {
		dist[v] = Unreached
		switch {
		case !A[v]:
		case S[v]:
			dist[v] = 0
			front = append(front, radio.TX{ID: v, Msg: radio.Msg{Kind: MsgWave}})
		default:
			unreached++
		}
	}
	rx := s.wave.rx[:0]
	ran, elapsed := int32(0), int64(0)
	for k := int32(1); int(k) <= d; k++ {
		if s.Hooks.Err() != nil {
			break // canceled: partial labels, meters settled below
		}
		s.Hooks.Rounds(PhaseTrivial, 1)
		if unreached == 0 {
			// Nobody is listening: the remaining calls are silent for all.
			elapsed = int64(d)
			break
		}
		ran, elapsed = k, int64(k)
		rx = rx[:0]
		for _, t := range front {
			for _, w := range g.Neighbors(t.ID) {
				if A[w] && dist[w] == Unreached {
					rx = append(rx, w)
				}
			}
		}
		slices.Sort(rx)
		rx = slices.Compact(rx)
		got, ok := s.wave.deliveries(len(rx))
		u.Deliver(front, rx, got, ok)
		front = front[:0]
		for j, w := range rx {
			if ok[j] && got[j].Kind == MsgWave {
				dist[w] = k
				unreached--
				front = append(front, radio.TX{ID: w, Msg: radio.Msg{Kind: MsgWave, A: uint64(k)}})
			}
		}
	}
	for v := int32(0); v < int32(n); v++ {
		switch l := dist[v]; {
		case !A[v]:
		case l == Unreached:
			u.Charge(v, int64(ran))
		case l < ran:
			u.Charge(v, int64(l)+1)
		default:
			u.Charge(v, int64(l))
		}
	}
	u.SkipLB(elapsed)
	s.wave.front, s.wave.rx = front[:0], rx[:0]
	return dist
}

// aggregateFlags computes, for every participating cluster of level r
// (part, ascending), the OR over members of two per-vertex predicates — via
// two Upcasts — and downcasts the combined result so members share it (one
// Downcast). This is how W*_{i+1} and A* reach the vertices that need them
// (Invariant 4.1's "each vertex u knows"). The flags are valid for the
// participating clusters only, and only until the next call at level r;
// only participating clusters' members are touched.
func (s *Stack) aggregateFlags(r int, part []int32, bit1, bit2 func(int32) bool) (f1, f2 []bool) {
	vn := s.VNets[r]
	b := s.levelBufs(r)
	f1, f2 = b.f1, b.f2
	for pass, out := range [2][]bool{f1, f2} {
		bit := bit1
		if pass == 1 {
			bit = bit2
		}
		for _, c := range part {
			for _, layer := range vn.Layers(c) {
				for _, v := range layer {
					b.memberHas[v] = bit(v)
					b.memberMsg[v] = radio.Msg{Kind: MsgFlag, A: 1}
				}
			}
		}
		vn.Upcast(part, b.memberHas, b.memberMsg, b.clusterGot, out)
	}
	// Downcast the combined flags to the members.
	for _, c := range part {
		var bits uint64
		if f1[c] {
			bits |= 1
		}
		if f2[c] {
			bits |= 2
		}
		b.clusterMsg[c] = radio.Msg{Kind: MsgFlag, A: bits}
	}
	vn.Downcast(part, nil, b.clusterMsg, b.memberMsg, b.memberHas)
	return f1, f2
}

// disseminateDist downcasts each participating cluster's (part, ascending)
// Special Update result so all members can apply the same L/U update (the
// replicated state of Invariant 4.1). Divergence is counted by the vnet
// cast-failure meter.
func (s *Stack) disseminateDist(r int, part []int32, distStar []int32) {
	b := s.levelBufs(r)
	for _, c := range part {
		b.clusterMsg[c] = radio.Msg{Kind: MsgDist, A: uint64(int64(distStar[c]) + 1)}
	}
	s.VNets[r].Downcast(part, nil, b.clusterMsg, b.memberMsg, b.memberHas)
}

// VerifyAgainstReference compares labels against a sequential BFS and
// returns the number of mismatches (labels capped at d). The reference
// search stops at level d, since a vertex beyond it should read Unreached
// however far it lies.
func VerifyAgainstReference(g *graph.Graph, sources []int32, dist []int32, d int) int {
	ref := graph.MultiSourceBFSWithin(g, sources, d)
	bad := 0
	for v := range ref {
		want := ref[v]
		if want == graph.Unreachable {
			want = Unreached
		}
		if dist[v] != want {
			bad++
		}
	}
	return bad
}

// BFSAuto runs the doubling driver of §4.3: BFS with D₀ = 1, 2, 4, ...
// until every vertex is labeled, rebuilding the parameter set and cluster
// stack per guess (β depends on D₀). Meters on base accumulate the honest
// total cost. It returns the labels and the last stack used.
func BFSAuto(base lbnet.Net, sources []int32, seed uint64) ([]int32, *Stack, error) {
	n := base.N()
	for d0 := 1; ; d0 *= 2 {
		p := DefaultParams(base.GlobalN(), d0)
		st, err := BuildStack(base, p, rng.Derive(seed, uint64(d0)))
		if err != nil {
			return nil, nil, err
		}
		dist := st.BFS(sources, d0)
		done := true
		for _, dd := range dist {
			if dd == Unreached {
				done = false
				break
			}
		}
		if done || d0 >= 2*n {
			return dist, st, nil
		}
	}
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic(fmt.Sprintf("core: ceilDiv by %d", b))
	}
	return (a + b - 1) / b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
