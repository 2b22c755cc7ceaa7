package cluster

import (
	"container/heap"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/lbnet"
	"repro/internal/radio"
	"repro/internal/rng"
)

// MsgJoin is the message kind used during cluster growth.
const MsgJoin = 0x10

// Config fixes the clustering and cast-scheduling parameters for one level.
// All values are derived from (n, 1/β) by DefaultConfig using the paper's
// formulas with explicit multipliers (see DESIGN.md §6).
type Config struct {
	// InvBeta is 1/β (a positive integer, per the paper's convention).
	InvBeta int
	// TMax is the start-time window: clusters start at integer times in
	// [1, TMax] and growth runs for TMax Local-Broadcasts (Lemma 2.5 uses
	// 4·log(n)/β). It also bounds the cluster radius.
	TMax int
	// C is the contention bound: w.h.p. at most C clusters intersect any
	// closed neighborhood (Lemma 2.1 with ℓ = 1).
	C int
	// SubsetLen is ℓ, the slot-universe size of the shared-subset scheme
	// of Lemma 3.1 (each cluster includes each slot with probability 1/C).
	SubsetLen int
}

// DefaultConfig derives clustering parameters for an n-vertex network with
// the given 1/β.
func DefaultConfig(n, invBeta int) Config {
	if invBeta < 1 {
		invBeta = 1
	}
	lg := log2Ceil(n)
	beta := 1 / float64(invBeta)
	// Smallest j with (1 - e^(-2β))^j <= n^-3 (Lemma 2.1, ℓ = 1).
	q := 1 - math.Exp(-2*beta)
	c := 3
	if q > 0 && q < 1 {
		c = int(math.Ceil(3 * math.Log(float64(n+1)) / -math.Log(q)))
	}
	if c < 3 {
		c = 3
	}
	subset := int(math.Ceil(2 * math.E * float64(c) * math.Log(float64(n+1))))
	if subset < 8 {
		subset = 8
	}
	return Config{
		InvBeta:   invBeta,
		TMax:      2 * lg * invBeta,
		C:         c,
		SubsetLen: subset,
	}
}

func log2Ceil(n int) int {
	lg := 1
	for 1<<lg < n {
		lg++
	}
	return lg
}

// Clustering is the output of the MPX process on one level: a partition of
// the vertices into clusters with BFS-like layers inside each cluster and a
// per-cluster shared seed (disseminated inside the join messages) from which
// the Lemma 3.1 slot subsets are derived.
type Clustering struct {
	Cfg Config
	// ClusterOf maps each vertex to its dense cluster index.
	ClusterOf []int32
	// Layer maps each vertex to its layer: 0 at the center, and layer i
	// vertices joined from a layer i-1 neighbor in the same cluster.
	Layer []int32
	// Center maps each dense cluster index to its center vertex.
	Center []int32
	// Seed is the per-cluster shared randomness.
	Seed []uint64
	// Start records each vertex's rounded start time (analysis only).
	Start []int32
}

// NumClusters returns the number of clusters.
func (cl *Clustering) NumClusters() int { return len(cl.Center) }

// Radius returns the maximum layer (the deepest cluster's radius).
func (cl *Clustering) Radius() int32 {
	var r int32
	for _, l := range cl.Layer {
		if l > r {
			r = l
		}
	}
	return r
}

// Members returns the member lists of every cluster, each sorted by vertex.
func (cl *Clustering) Members() [][]int32 {
	out := make([][]int32, cl.NumClusters())
	for v, c := range cl.ClusterOf {
		out[c] = append(out[c], int32(v))
	}
	return out
}

// Subset returns the sorted slot indices of cluster c's shared subset
// S_C ⊆ [SubsetLen]: each slot is included independently with probability
// 1/C, derived deterministically from the cluster seed.
func (cl *Clustering) Subset(c int32) []int32 {
	var out []int32
	for j := 0; j < cl.Cfg.SubsetLen; j++ {
		if rng.Derive(cl.Seed[c], uint64(j), 0x5b5)%uint64(cl.Cfg.C) == 0 {
			out = append(out, int32(j))
		}
	}
	return out
}

// ClusterGraph returns the cluster graph G* = cluster(G, β): one vertex per
// cluster, with an edge between clusters containing adjacent members.
func (cl *Clustering) ClusterGraph(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(cl.NumClusters())
	g.Edges(func(u, v int32) {
		cu, cv := cl.ClusterOf[u], cl.ClusterOf[v]
		if cu != cv {
			b.AddEdge(cu, cv)
		}
	})
	return b.Graph()
}

// StartTimes draws the rounded start times start_v = ⌈TMax - δ_v⌉ (clamped
// to [1, TMax]) with δ_v ~ Exponential(β), one independent draw per vertex.
func StartTimes(n int, cfg Config, seed uint64) []int32 {
	starts := make([]int32, n)
	beta := 1 / float64(cfg.InvBeta)
	for v := 0; v < n; v++ {
		r := rng.New(rng.Derive(seed, uint64(v), 0xde17a))
		s := int32(math.Ceil(float64(cfg.TMax) - r.Exp(beta)))
		if s < 1 {
			s = 1
		}
		if s > int32(cfg.TMax) {
			s = int32(cfg.TMax)
		}
		starts[v] = s
	}
	return starts
}

// Build runs the distributed MPX construction of Lemma 2.5 on net: TMax
// Local-Broadcasts in which every clustered vertex announces (cluster ID,
// layer, cluster seed) and every unclustered vertex listens, joining the
// cluster it hears. Unclustered vertices whose start time arrives become
// centers. The result is always a total partition: a vertex that never hears
// anything becomes its own cluster at its start time.
func Build(net lbnet.Net, cfg Config, seed uint64) *Clustering {
	return BuildWithStarts(net, cfg, StartTimes(net.N(), cfg, rng.Derive(seed, 0x57a27)), seed)
}

// BuildWithStarts is Build with externally supplied start times, enabling
// exact comparison against the centralized mirror. A start time below 1
// counts as 1; a vertex starting after TMax never becomes a center during
// growth, and if no cluster reaches it either, it ends as a cluster of its
// own (a center that never announced), so the result is always a partition.
//
// Vertices are bucketed by start time once. On a *lbnet.UnitNet the
// iterations run through growUnit; any other Net gets one LocalBroadcast
// per iteration from an unclustered (receiver) and a clustered (sender)
// list, both kept in vertex-ID order and changed only when a vertex starts
// or joins: the newly clustered are merged into the sender list in place,
// so the Net receives the same arguments as from a per-iteration rebuild.
func BuildWithStarts(net lbnet.Net, cfg Config, starts []int32, seed uint64) *Clustering {
	n := net.N()
	tmax := int32(cfg.TMax)
	gr := &growth{
		clusterOf: make([]int32, n), // center vertex ID during growth
		layer:     make([]int32, n),
		seedOf:    make([]uint64, n), // cluster seed as known to each member
		seed:      seed,
	}
	for v := range gr.clusterOf {
		gr.clusterOf[v] = -1
		gr.layer[v] = -1
	}
	// byStart[first[i]:first[i+1]] lists the vertices starting at time i,
	// ascending (a counting sort by start time).
	first := make([]int32, tmax+2)
	for _, s := range starts {
		if s <= tmax {
			first[max(s, 1)+1]++
		}
	}
	for i := int32(1); i <= tmax; i++ {
		first[i+1] += first[i]
	}
	gr.byStart = make([]int32, first[tmax+1])
	fill := append([]int32(nil), first...)
	for v, s := range starts {
		if s <= tmax {
			i := max(s, 1)
			gr.byStart[fill[i]] = int32(v)
			fill[i]++
		}
	}
	gr.first = first

	if unit, ok := net.(*lbnet.UnitNet); ok {
		gr.growUnit(unit, tmax)
	} else {
		gr.grow(net, tmax)
	}
	for v := range gr.clusterOf {
		gr.center(int32(v)) // a no-op unless v is still unclustered
	}
	return densify(cfg, gr.clusterOf, gr.layer, gr.seedOf, starts)
}

// growth is the state of one MPX growth run: each vertex's center (-1 while
// unclustered), layer and cluster seed, and the vertices bucketed by start
// time.
type growth struct {
	clusterOf, layer []int32
	seedOf           []uint64
	seed             uint64
	first, byStart   []int32
}

// center makes v the center of its own cluster unless it is clustered
// already, and reports whether it did.
func (gr *growth) center(v int32) bool {
	if gr.clusterOf[v] != -1 {
		return false
	}
	gr.clusterOf[v] = v
	gr.layer[v] = 0
	gr.seedOf[v] = rng.Derive(gr.seed, uint64(v), 0xc157e2)
	return true
}

// join applies a heard join message to v.
func (gr *growth) join(v int32, m radio.Msg) {
	gr.clusterOf[v] = int32(m.A)
	gr.layer[v] = int32(m.B) + 1
	gr.seedOf[v] = m.C
}

// announce is the join message a clustered vertex sends: its final
// (center, layer, cluster seed), since a clustered vertex never changes
// cluster.
func (gr *growth) announce(v int32) radio.TX {
	return radio.TX{ID: v, Msg: radio.Msg{
		Kind: MsgJoin,
		A:    uint64(gr.clusterOf[v]),
		B:    uint64(gr.layer[v]),
		C:    gr.seedOf[v],
	}}
}

// grow runs the TMax growth iterations with one LocalBroadcast each.
func (gr *growth) grow(net lbnet.Net, tmax int32) {
	n := net.N()
	unclustered := make([]int32, n)
	for v := range unclustered {
		unclustered[v] = int32(v)
	}
	senders := make([]radio.TX, 0, n)
	got := make([]radio.Msg, n)
	ok := make([]bool, n)
	fresh := 0 // vertices clustered but not yet moved to senders

	for i := int32(1); i <= tmax; i++ {
		// New centers: unclustered vertices whose start time has arrived.
		for _, v := range gr.byStart[gr.first[i]:gr.first[i+1]] {
			if gr.center(v) {
				fresh++
			}
		}
		if fresh > 0 {
			senders = gr.mergeSenders(senders, unclustered, fresh)
			kept := unclustered[:0]
			for _, v := range unclustered {
				if gr.clusterOf[v] == -1 {
					kept = append(kept, v)
				}
			}
			unclustered, fresh = kept, 0
		}
		if len(unclustered) == 0 {
			// Everyone is clustered; the remaining iterations are silent.
			net.SkipLB(int64(tmax) - int64(i) + 1)
			break
		}
		net.LocalBroadcast(senders, unclustered, got[:len(unclustered)], ok[:len(unclustered)])
		for j, v := range unclustered {
			if ok[j] && got[j].Kind == MsgJoin {
				gr.join(v, got[j])
				fresh++
			}
		}
	}
}

// growUnit runs the TMax growth iterations on a unit-cost net, where a
// listener with no sending neighbour hears nothing and draws no failure
// coin. Every vertex sends or listens in each iteration until all are
// clustered, so every vertex is charged E, the number of iterations in
// which someone was unclustered, and the clock advances TMax in one
// SkipLB. Only the boundary — unclustered vertices with a clustered
// neighbour — can hear, and only from the clustered vertices next to it,
// so each iteration resolves the boundary, in ID order, against those
// senders through UnitNet.Deliver: the joins and failure draws of one
// LocalBroadcast from every clustered vertex to every unclustered one.
//
// Both lists change only when a vertex is clustered: its unclustered
// neighbours join the boundary, it joins the senders if it has one, and a
// sender leaves once its count of unclustered neighbours (open) reaches 0.
// Deliver resolves a whole iteration before any of its joins is applied;
// the joins are then applied one at a time, so a vertex's count starts
// from the neighbours still unclustered when it joins and drops as each
// of them joins later.
func (gr *growth) growUnit(u *lbnet.UnitNet, tmax int32) {
	g := u.Graph()
	n := g.N()
	open := make([]int32, n)
	seen := make([]bool, n) // on the boundary or queued for it
	got := make([]radio.Msg, n)
	ok := make([]bool, n)
	var boundary, fresh []int32
	var senders []radio.TX
	unclustered := n
	clustered := func(v int32) {
		unclustered--
		k := int32(0)
		for _, w := range g.Neighbors(v) {
			if gr.clusterOf[w] == -1 {
				k++
				if !seen[w] {
					seen[w] = true
					fresh = append(fresh, w)
				}
			} else {
				open[w]--
			}
		}
		if open[v] = k; k > 0 {
			senders = append(senders, gr.announce(v))
		}
	}
	e := int64(0)
	for i := int32(1); i <= tmax; i++ {
		for _, v := range gr.byStart[gr.first[i]:gr.first[i+1]] {
			if gr.center(v) {
				clustered(v)
			}
		}
		if unclustered == 0 {
			break // the remaining iterations are silent
		}
		e++
		boundary = slices.DeleteFunc(append(boundary, fresh...), func(v int32) bool { return gr.clusterOf[v] != -1 })
		slices.Sort(boundary)
		senders = slices.DeleteFunc(senders, func(t radio.TX) bool { return open[t.ID] == 0 })
		fresh = fresh[:0]
		u.Deliver(senders, boundary, got[:len(boundary)], ok[:len(boundary)])
		for j, v := range boundary {
			if ok[j] && got[j].Kind == MsgJoin {
				gr.join(v, got[j])
				clustered(v)
			}
		}
	}
	for v := int32(0); v < int32(n); v++ {
		u.Charge(v, e)
	}
	u.SkipLB(int64(tmax))
}

// mergeSenders moves the k clustered vertices of unclustered into senders,
// keeping senders ascending by ID: a backward merge into the k free entries
// past its end (senders has capacity n), so nothing is copied twice and no
// buffer is allocated.
func (gr *growth) mergeSenders(senders []radio.TX, unclustered []int32, k int) []radio.TX {
	o := len(senders) - 1
	senders = senders[:len(senders)+k]
	w := len(senders) - 1
	for r := len(unclustered) - 1; w > o; r-- {
		v := unclustered[r]
		if gr.clusterOf[v] == -1 {
			continue
		}
		for o >= 0 && senders[o].ID > v {
			senders[w] = senders[o]
			w, o = w-1, o-1
		}
		senders[w] = gr.announce(v)
		w--
	}
	return senders
}

// densify remaps center-vertex cluster IDs to dense indices sorted by center.
func densify(cfg Config, clusterOf, layer []int32, seedOf []uint64, starts []int32) *Clustering {
	n := len(clusterOf)
	centers := make([]int32, 0)
	for v := 0; v < n; v++ {
		if clusterOf[v] == int32(v) {
			centers = append(centers, int32(v))
		}
	}
	sort.Slice(centers, func(i, j int) bool { return centers[i] < centers[j] })
	dense := make(map[int32]int32, len(centers))
	seeds := make([]uint64, len(centers))
	for i, c := range centers {
		dense[c] = int32(i)
		seeds[i] = seedOf[c]
	}
	out := &Clustering{
		Cfg:       cfg,
		ClusterOf: make([]int32, n),
		Layer:     append([]int32(nil), layer...),
		Center:    centers,
		Seed:      seeds,
		Start:     append([]int32(nil), starts...),
	}
	for v := 0; v < n; v++ {
		out.ClusterOf[v] = dense[clusterOf[v]]
	}
	return out
}

// BuildRounded is the centralized mirror of BuildWithStarts under UnitNet
// semantics (delivery = minimum-ID clustered neighbor, no failures). Given
// identical start times it produces the identical clustering, which is how
// the distributed implementation is validated.
func BuildRounded(g *graph.Graph, cfg Config, starts []int32, seed uint64) *Clustering {
	n := g.N()
	clusterOf := make([]int32, n)
	layer := make([]int32, n)
	seedOf := make([]uint64, n)
	for v := range clusterOf {
		clusterOf[v] = -1
		layer[v] = -1
	}
	for i := int32(1); i <= int32(cfg.TMax); i++ {
		for v := int32(0); v < int32(n); v++ {
			if clusterOf[v] == -1 && starts[v] <= i {
				clusterOf[v] = v
				layer[v] = 0
				seedOf[v] = rng.Derive(seed, uint64(v), 0xc157e2)
			}
		}
		// Snapshot joins against the state at the start of the iteration.
		type join struct {
			v, from int32
		}
		var joins []join
		for v := int32(0); v < int32(n); v++ {
			if clusterOf[v] != -1 {
				continue
			}
			from := int32(-1)
			for _, u := range g.Neighbors(v) {
				if clusterOf[u] != -1 && layer[u] >= 0 && (from == -1 || u < from) {
					// Only vertices clustered before this iteration count;
					// same-iteration centers are senders too, so include them.
					from = u
				}
			}
			if from != -1 {
				joins = append(joins, join{v, from})
			}
		}
		for _, j := range joins {
			clusterOf[j.v] = clusterOf[j.from]
			layer[j.v] = layer[j.from] + 1
			seedOf[j.v] = seedOf[j.from]
		}
	}
	// A late starter no cluster reached is a cluster of its own, as in
	// BuildWithStarts.
	for v := int32(0); v < int32(n); v++ {
		if clusterOf[v] == -1 {
			clusterOf[v] = v
			layer[v] = 0
			seedOf[v] = rng.Derive(seed, uint64(v), 0xc157e2)
		}
	}
	return densify(cfg, clusterOf, layer, seedOf, starts)
}

// IdealClustering is the fractional (non-rounded) MPX process: vertex v is
// assigned to the center u minimizing dist_G(u, v) - δ_u. It is the process
// Lemmas 2.1–2.3 are stated for, used to measure their constants.
type IdealClustering struct {
	ClusterOf []int32   // dense cluster index per vertex
	Center    []int32   // center vertex per cluster
	Delta     []float64 // δ per vertex
	Depth     []int32   // hop distance from the cluster center
}

type pqItem struct {
	key    float64
	tie    int32 // vertex id for deterministic tie-breaks
	v      int32
	center int32
	depth  int32
}

type pq []pqItem

func (p pq) Len() int { return len(p) }
func (p pq) Less(i, j int) bool {
	if p[i].key != p[j].key {
		return p[i].key < p[j].key
	}
	return p[i].tie < p[j].tie
}
func (p pq) Swap(i, j int) { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)   { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any     { old := *p; x := old[len(old)-1]; *p = old[:len(old)-1]; return x }

// BuildIdeal runs the fractional MPX process with rate β = 1/invBeta.
func BuildIdeal(g *graph.Graph, invBeta int, seed uint64) *IdealClustering {
	n := g.N()
	beta := 1 / float64(invBeta)
	delta := make([]float64, n)
	for v := 0; v < n; v++ {
		delta[v] = rng.New(rng.Derive(seed, uint64(v), 0x1dea1)).Exp(beta)
	}
	owner := make([]int32, n)
	depth := make([]int32, n)
	best := make([]float64, n)
	settled := make([]bool, n)
	for v := range owner {
		owner[v] = -1
		best[v] = math.Inf(1)
	}
	h := make(pq, 0, n)
	for v := int32(0); v < int32(n); v++ {
		h = append(h, pqItem{key: -delta[v], tie: v, v: v, center: v, depth: 0})
	}
	heap.Init(&h)
	for h.Len() > 0 {
		it := heap.Pop(&h).(pqItem)
		if settled[it.v] {
			continue
		}
		settled[it.v] = true
		owner[it.v] = it.center
		depth[it.v] = it.depth
		for _, u := range g.Neighbors(it.v) {
			if settled[u] {
				continue
			}
			key := it.key + 1
			if key < best[u] {
				best[u] = key
				heap.Push(&h, pqItem{key: key, tie: u, v: u, center: it.center, depth: it.depth + 1})
			}
		}
	}
	// Densify.
	centers := make([]int32, 0)
	for v := int32(0); v < int32(n); v++ {
		if owner[v] == v {
			centers = append(centers, v)
		}
	}
	dense := make(map[int32]int32, len(centers))
	for i, c := range centers {
		dense[c] = int32(i)
	}
	out := &IdealClustering{
		ClusterOf: make([]int32, n),
		Center:    centers,
		Delta:     delta,
		Depth:     depth,
	}
	for v := 0; v < n; v++ {
		out.ClusterOf[v] = dense[owner[v]]
	}
	return out
}

// ClusterGraphOf builds the cluster graph for an arbitrary assignment.
func ClusterGraphOf(g *graph.Graph, clusterOf []int32, numClusters int) *graph.Graph {
	b := graph.NewBuilder(numClusters)
	g.Edges(func(u, v int32) {
		cu, cv := clusterOf[u], clusterOf[v]
		if cu != cv {
			b.AddEdge(cu, cv)
		}
	})
	return b.Graph()
}
