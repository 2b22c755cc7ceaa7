package graph

// Unreachable marks vertices not reached by a BFS.
const Unreachable = int32(-1)

// BFS returns the hop distances from src to every vertex (Unreachable where
// no path exists). It is the sequential reference against which all radio
// BFS implementations are validated.
func BFS(g *Graph, src int32) []int32 {
	return MultiSourceBFS(g, []int32{src})
}

// MultiSourceBFS returns, for each vertex, the hop distance to the nearest
// source (Unreachable where no path exists). Duplicate sources are allowed.
//
// Each level is walked from the smaller side, as in direction-optimizing
// BFS (Beamer, Asanović and Patterson, SC'12) with the switch rule reduced
// to one comparison of costs it already has: top-down over the frontier's
// arcs, or bottom-up over each unreached vertex's adjacency up to its first
// neighbour on the frontier, whichever visits fewer vertices and arcs.
// BFS distances are unique, so the direction changes only the work: after
// a wide level, an unreached vertex costs about one neighbour check instead
// of the wide level costing all of its arcs.
func MultiSourceBFS(g *Graph, srcs []int32) []int32 {
	dist, _ := multiSourceBFS(g, srcs, g.N())
	return dist
}

// MultiSourceBFSWithin is MultiSourceBFS stopped after level d: a vertex
// farther than d from every source reads Unreachable, and no level beyond
// d is walked. Every other distance is MultiSourceBFS's.
func MultiSourceBFSWithin(g *Graph, srcs []int32, d int) []int32 {
	dist, _ := multiSourceBFS(g, srcs, d)
	return dist
}

// multiSourceBFS is MultiSourceBFSWithin, also reporting how many levels
// it walked bottom-up.
func multiSourceBFS(g *Graph, srcs []int32, d int) (dist []int32, bottomUp int) {
	n := g.N()
	dist = make([]int32, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := make([]int32, 0, n)
	// frontierArcs and unreachedArcs sum the degrees of the current level
	// and of the vertices no level has reached yet.
	frontierArcs, unreachedArcs := 0, len(g.neighbors)
	for _, s := range srcs {
		if dist[s] == Unreachable {
			dist[s] = 0
			queue = append(queue, s)
			frontierArcs += g.Degree(s)
		}
	}
	unreachedArcs -= frontierArcs
	// rest lists the unreached vertices from the first bottom-up level on,
	// and each bottom-up level drops the ones reached since; until then a
	// bottom-up level would scan all n vertices to find them. The search
	// stops once no unreached vertex has an arc left, since no level can
	// reach one, or once it has labeled level d.
	var rest []int32
	for head := 0; head < len(queue) && unreachedArcs > 0; {
		level := dist[queue[head]]
		if int(level) >= d {
			break
		}
		frontier := queue[head:]
		head = len(queue)
		scan := n
		if rest != nil {
			scan = len(rest)
		}
		nextArcs := 0
		if scan+unreachedArcs < len(frontier)+frontierArcs {
			bottomUp++
			if rest == nil {
				rest = make([]int32, 0, n-len(queue))
				for v := int32(0); v < int32(n); v++ {
					if dist[v] == Unreachable {
						rest = append(rest, v)
					}
				}
			}
			kept := rest[:0]
		unreached:
			for _, v := range rest {
				if dist[v] != Unreachable {
					continue
				}
				for _, u := range g.Neighbors(v) {
					if dist[u] == level {
						dist[v] = level + 1
						queue = append(queue, v)
						nextArcs += g.Degree(v)
						continue unreached
					}
				}
				kept = append(kept, v)
			}
			rest = kept
		} else {
			for _, u := range frontier {
				for _, v := range g.Neighbors(u) {
					if dist[v] == Unreachable {
						dist[v] = level + 1
						queue = append(queue, v)
						nextArcs += g.Degree(v)
					}
				}
			}
		}
		frontierArcs, unreachedArcs = nextArcs, unreachedArcs-nextArcs
	}
	return dist, bottomUp
}

// Eccentricity returns the maximum finite distance from src, or Unreachable
// if some vertex is unreachable from src.
func Eccentricity(g *Graph, src int32) int32 {
	dist := BFS(g, src)
	ecc := int32(0)
	for _, d := range dist {
		if d == Unreachable {
			return Unreachable
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter computes the exact diameter by running a BFS from every vertex.
// It returns Unreachable for disconnected graphs. O(n·m); intended for the
// moderate sizes used in tests and experiments.
func Diameter(g *Graph) int32 {
	diam := int32(0)
	for v := int32(0); v < int32(g.N()); v++ {
		ecc := Eccentricity(g, v)
		if ecc == Unreachable {
			return Unreachable
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// IsConnected reports whether g is connected (true for the empty and
// single-vertex graphs).
func IsConnected(g *Graph) bool {
	if g.N() == 0 {
		return true
	}
	dist := BFS(g, 0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// Components returns a component ID per vertex (IDs are 0..k-1 in order of
// discovery) and the number of components.
func Components(g *Graph) ([]int32, int) {
	comp := make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	var queue []int32
	next := int32(0)
	for s := int32(0); s < int32(g.N()); s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.Neighbors(u) {
				if comp[v] == -1 {
					comp[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return comp, int(next)
}

// Degeneracy returns the degeneracy of g (the maximum, over all subgraphs,
// of the minimum degree), computed by the standard peeling algorithm.
// The arboricity of g lies in [⌈degeneracy/2⌉, degeneracy], which is how the
// O(log n)-arboricity claim of Theorem 5.2 is checked.
func Degeneracy(g *Graph) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(int32(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket queue over degrees.
	buckets := make([][]int32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], int32(v))
	}
	removed := make([]bool, n)
	degeneracy, cur := 0, 0
	for count := 0; count < n; count++ {
		if cur > 0 {
			cur-- // degrees drop by at most one per removal
		}
		var v int32 = -1
		for {
			for cur <= maxDeg && len(buckets[cur]) == 0 {
				cur++
			}
			if cur > maxDeg {
				break
			}
			b := buckets[cur]
			cand := b[len(b)-1]
			buckets[cur] = b[:len(b)-1]
			if !removed[cand] && deg[cand] == cur {
				v = cand
				break
			}
		}
		if v == -1 {
			break
		}
		if cur > degeneracy {
			degeneracy = cur
		}
		removed[v] = true
		for _, u := range g.Neighbors(v) {
			if !removed[u] {
				deg[u]--
				buckets[deg[u]] = append(buckets[deg[u]], u)
			}
		}
	}
	return degeneracy
}
