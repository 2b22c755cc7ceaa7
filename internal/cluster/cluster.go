package cluster

import (
	"container/heap"
	"math"
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
// counts as 1; a vertex starting after TMax never becomes a center.
//
// The unclustered (receiver) and clustered (sender) lists are kept in
// vertex-ID order and change only when a vertex starts or joins: vertices
// are bucketed by start time once, and the newly clustered are merged into
// the sender list in place. Every Net therefore receives the same arguments
// as from a per-iteration rebuild. On a *lbnet.UnitNet, iterations before
// the first start time have no sender, so they deliver nothing and draw no
// randomness: such a stretch is charged in one Charge per vertex and one
// SkipLB instead of one LocalBroadcast per iteration.
func BuildWithStarts(net lbnet.Net, cfg Config, starts []int32, seed uint64) *Clustering {
	n := net.N()
	tmax := int32(cfg.TMax)
	clusterOf := make([]int32, n) // center vertex ID during growth
	layer := make([]int32, n)
	seedOf := make([]uint64, n) // cluster seed as known to each member
	for v := range clusterOf {
		clusterOf[v] = -1
		layer[v] = -1
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
	byStart := make([]int32, first[tmax+1])
	fill := append([]int32(nil), first...)
	for v, s := range starts {
		if s <= tmax {
			i := max(s, 1)
			byStart[fill[i]] = int32(v)
			fill[i]++
		}
	}

	unit, _ := net.(*lbnet.UnitNet)
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
		for _, v := range byStart[first[i]:first[i+1]] {
			if clusterOf[v] == -1 {
				clusterOf[v] = v
				layer[v] = 0
				seedOf[v] = rng.Derive(seed, uint64(v), 0xc157e2)
				fresh++
			}
		}
		if fresh > 0 {
			senders = mergeSenders(senders, unclustered, fresh, clusterOf, layer, seedOf)
			kept := unclustered[:0]
			for _, v := range unclustered {
				if clusterOf[v] == -1 {
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
		if len(senders) == 0 && unit != nil {
			// Nobody is clustered, so every vertex listens to silence
			// until the next start time.
			next := i + 1
			for next <= tmax && first[next] == first[next+1] {
				next++
			}
			k := int64(next - i)
			for _, v := range unclustered {
				unit.Charge(v, k)
			}
			unit.SkipLB(k)
			i = next - 1
			continue
		}
		net.LocalBroadcast(senders, unclustered, got[:len(unclustered)], ok[:len(unclustered)])
		for j, v := range unclustered {
			if ok[j] && got[j].Kind == MsgJoin {
				clusterOf[v] = int32(got[j].A)
				layer[v] = int32(got[j].B) + 1
				seedOf[v] = got[j].C
				fresh++
			}
		}
	}
	return densify(cfg, clusterOf, layer, seedOf, starts)
}

// mergeSenders moves the k clustered vertices of unclustered into senders,
// keeping senders ascending by ID: a backward merge into the k free entries
// past its end (senders has capacity n), so nothing is copied twice and no
// buffer is allocated. Each new entry carries the vertex's final (center,
// layer, cluster seed): a clustered vertex never changes cluster.
func mergeSenders(senders []radio.TX, unclustered []int32, k int, clusterOf, layer []int32, seedOf []uint64) []radio.TX {
	o := len(senders) - 1
	senders = senders[:len(senders)+k]
	w := len(senders) - 1
	for r := len(unclustered) - 1; w > o; r-- {
		v := unclustered[r]
		if clusterOf[v] == -1 {
			continue
		}
		for o >= 0 && senders[o].ID > v {
			senders[w] = senders[o]
			w, o = w-1, o-1
		}
		senders[w] = radio.TX{ID: v, Msg: radio.Msg{
			Kind: MsgJoin,
			A:    uint64(clusterOf[v]),
			B:    uint64(layer[v]),
			C:    seedOf[v],
		}}
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
