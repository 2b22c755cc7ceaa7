package graph

import (
	"math"
	"slices"
	"sort"

	"repro/internal/rng"
	"repro/internal/scratch"
)

// Path returns the n-vertex path 0—1—…—(n-1). Diameter n-1.
func Path(n int) *Graph {
	b := NewBuilderHint(n, n-1)
	for v := 0; v < n-1; v++ {
		b.AddEdge(int32(v), int32(v+1))
	}
	return b.Graph()
}

// Cycle returns the n-vertex cycle. Diameter ⌊n/2⌋ for n >= 3.
func Cycle(n int) *Graph {
	b := NewBuilderHint(n, n)
	for v := 0; v < n-1; v++ {
		b.AddEdge(int32(v), int32(v+1))
	}
	if n >= 3 {
		b.AddEdge(int32(n-1), 0)
	}
	return b.Graph()
}

// Grid returns the rows×cols grid graph, vertex r·cols + c at row r and
// column c. Diameter rows+cols-2. It writes the CSR rows itself: a
// vertex's neighbours above, left, right and below come in ascending order.
func Grid(rows, cols int) *Graph {
	if rows < 0 || cols < 0 {
		panic("graph: negative vertex count")
	}
	n := rows * cols
	g := &Graph{offsets: make([]int32, n+1)}
	nb := make([]int32, 2*max(rows*(cols-1)+(rows-1)*cols, 0))
	var w int32
	step := int32(cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := int32(r*cols + c)
			g.offsets[v] = w
			if r > 0 {
				nb[w] = v - step
				w++
			}
			if c > 0 {
				nb[w] = v - 1
				w++
			}
			if c+1 < cols {
				nb[w] = v + 1
				w++
			}
			if r+1 < rows {
				nb[w] = v + step
				w++
			}
			g.maxDeg = max(g.maxDeg, int(w-g.offsets[v]))
		}
	}
	g.offsets[n] = w
	g.neighbors = nb
	return g
}

// Torus returns the rows×cols torus (grid with wraparound).
func Torus(rows, cols int) *Graph {
	b := NewBuilderHint(rows*cols, 2*rows*cols)
	id := func(r, c int) int32 { return int32(((r+rows)%rows)*cols + (c+cols)%cols) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id(r, c+1))
			b.AddEdge(id(r, c), id(r+1, c))
		}
	}
	return b.Graph()
}

// Star returns the n-vertex star with center 0. It writes the CSR rows
// itself: the center's row lists every leaf, and each leaf's row is the
// center, the zero the neighbour array starts with.
func Star(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	leaves := max(n-1, 0)
	g := &Graph{offsets: make([]int32, n+1), neighbors: make([]int32, 2*leaves), maxDeg: leaves}
	for v := 1; v <= n; v++ {
		g.offsets[v] = int32(leaves + v - 1)
		if v < n {
			g.neighbors[v-1] = int32(v)
		}
	}
	return g
}

// Complete returns K_n.
func Complete(n int) *Graph {
	b := NewBuilderHint(n, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.Graph()
}

// CompleteMinusEdge returns K_n with the edge {u, v} removed — the diameter-2
// counterpart of K_n in the Theorem 5.1 lower bound.
func CompleteMinusEdge(n int, u, v int32) *Graph {
	b := NewBuilderHint(n, n*(n-1)/2)
	for x := int32(0); x < int32(n); x++ {
		for y := x + 1; y < int32(n); y++ {
			if (x == u && y == v) || (x == v && y == u) {
				continue
			}
			b.AddEdge(x, y)
		}
	}
	return b.Graph()
}

// BinaryTree returns the complete binary tree on n vertices (heap indexing).
func BinaryTree(n int) *Graph {
	b := NewBuilderHint(n, n-1)
	for v := 1; v < n; v++ {
		b.AddEdge(int32(v), int32((v-1)/2))
	}
	return b.Graph()
}

// RandomTree returns a uniform-attachment random tree: vertex v attaches to a
// uniformly random earlier vertex.
func RandomTree(n int, r *rng.Source) *Graph {
	return RandomTreeInto(NewBuilder(n), n, r)
}

// RandomTreeInto is RandomTree building through a caller-owned (typically
// pooled) builder; b is Reset to n first, and grown once to the tree's
// 2(n-1) arcs. Identical output to RandomTree.
func RandomTreeInto(b *Builder, n int, r *rng.Source) *Graph {
	b.Reset(n)
	arcs := 2 * max(n-1, 0)
	b.src, b.dst = slices.Grow(b.src, arcs), slices.Grow(b.dst, arcs)
	for v := 1; v < n; v++ {
		b.AddEdge(int32(v), int32(r.Intn(v)))
	}
	return b.Graph()
}

// Hypercube returns the d-dimensional hypercube (2^d vertices).
func Hypercube(d int) *Graph {
	n := 1 << d
	b := FromDegreeHint(n, d)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			u := v ^ (1 << bit)
			if v < u {
				b.AddEdge(int32(v), int32(u))
			}
		}
	}
	return b.Graph()
}

// GNP returns an Erdős–Rényi G(n, p) graph. It may be disconnected; use
// ConnectedGNP when connectivity is required.
func GNP(n int, p float64, r *rng.Source) *Graph {
	return GNPInto(NewBuilder(n), n, p, r)
}

// GNPInto is GNP building through a caller-owned builder (Reset to n first).
//
// The sampler is the geometric-skip method of Batagelj and Brandes (Phys.
// Rev. E 71, 036113, 2005): it walks the pairs u < v in (u, v) order and
// crosses each run of absent edges with one draw. It writes the CSR itself.
// Row u's upper neighbours (v > u) arrive ascending, so they go onto one
// list while each edge counts a degree at both ends; a prefix pass turns
// the degrees into offsets. One pass over u in ascending order then copies
// u's upper block behind its lower one and appends u to the lower block of
// each upper neighbour, so every row comes out sorted and duplicate-free
// with no scatter, sort or dedupe. The builder's arrays are the scratch:
// dst holds the upper list and pos the row cursors.
func GNPInto(b *Builder, n int, p float64, r *rng.Source) *Graph {
	b.Reset(n)
	if p >= 1 {
		return Complete(n)
	}
	if p <= 0 {
		return b.Graph()
	}
	g := &Graph{offsets: make([]int32, n+1)}
	deg := g.offsets[1:] // deg[v] is summed into offsets in place below
	up := slices.Grow(b.dst[:0], gnpReserve(n, p))
	s := newGeoSkip(p)
	u, v := int64(0), int64(0)
	nn := int64(n)
	for u < nn {
		skip, _ := s.skip(1 - r.Float64())
		v += skip + 1
		for v >= nn && u < nn {
			u++
			v = v - nn + u + 1
		}
		if u < nn && v > u {
			up = append(up, int32(v))
			deg[u]++
			deg[v]++
		}
	}
	b.dst = up[:0] // keep the grown array; the builder holds no arcs

	var maxDeg int32
	for v := range n {
		maxDeg = max(maxDeg, g.offsets[v+1])
		g.offsets[v+1] += g.offsets[v]
	}
	g.maxDeg = int(maxDeg)
	g.neighbors = make([]int32, g.offsets[n])
	// cursor[v] is where v's next lower neighbour goes. Every lower
	// neighbour of u is smaller than u, so when the pass reaches u its lower
	// block is full and cursor[u] is where its upper block starts.
	cursor := scratch.Grow(b.pos, n)
	b.pos = cursor
	copy(cursor, g.offsets)
	for u := range int32(n) {
		lo, hi := cursor[u], g.offsets[u+1]
		blk := up[:hi-lo]
		up = up[hi-lo:]
		copy(g.neighbors[lo:hi], blk)
		for _, w := range blk {
			g.neighbors[cursor[w]] = u
			cursor[w]++
		}
	}
	return g
}

// gnpReserve bounds the upper list a G(n, p) sample fills: the mean edge
// count plus four standard deviations, one entry per edge. GNPInto reserves
// it before sampling, so a pooled builder hinted for a sparser family grows
// once instead of regrowing mid-sample. ConnectedGNPInto's rare refill
// (the sample is disconnected with probability about 1/n at the registry's
// p) adds arcs through AddEdge and grows the builder as it needs.
func gnpReserve(n int, p float64) int {
	mean := p * float64(n) * float64(n-1) / 2
	return int(mean + 4*math.Sqrt(mean))
}

// geoSkip computes the sampler's skip int64(math.Log(y)/logq), with
// logq = ln(1-p) and y = 1 - r.Float64() in [2^-53, 1], bit for bit and
// mostly without math.Log. Write y = 2^e·m with m in [1, 2), let c be m cut
// to its top seven fraction bits and t = (m-c)/c, so 0 ≤ t < 1/128. Then
//
//	ln y = e·ln 2 + ln c + ln(1+t),  ln(1+t) ≈ t - t²/2 + t³/3,
//
// with ln c from a 128-entry table. The series alternates, so its
// truncation error is at most t⁴/4 < 9.4e-10. math.Log's own error (under
// one ulp) and the float rounding of the sum, of the division by logq and
// of the product by 1/logq add under 1e-13 more, since |ln y| ≤ 53·ln 2.
// So the estimate a lies within 1e-9/|logq| of the quotient the exact
// expression computes. Where a lies at least margin = 1e-7/|logq| from
// every integer, both truncate to the same integer; elsewhere skip
// evaluates the exact expression. The error and the margin both scale with
// 1/|logq|, so the margin keeps a hundredfold headroom at every p. At the
// registry's p it falls back on under 1% of draws.
type geoSkip struct {
	logq, inv, margin float64
}

func newGeoSkip(p float64) geoSkip {
	logq := math.Log(1 - p)
	return geoSkip{logq: logq, inv: 1 / logq, margin: 1e-7 / -logq}
}

// lnMant[i] = ln(1 + i/128) and invMant[i] = 1/(1 + i/128), for the 128
// values of c.
var lnMant, invMant = func() (ln, inv [128]float64) {
	for i := range ln {
		c := 1 + float64(i)/128
		ln[i], inv[i] = math.Log(c), 1/c
	}
	return ln, inv
}()

// skip returns int64(math.Log(y)/s.logq) for y in [2^-53, 1], and
// whether the bracket left it to that expression because its estimate lies
// within s.margin of an integer.
func (s geoSkip) skip(y float64) (k int64, exact bool) {
	bits := math.Float64bits(y)
	e := int64(bits>>52) - 1023
	i := bits >> 45 & 127
	t := float64(bits&(1<<45-1)) * 0x1p-52 * invMant[i]
	a := (float64(e)*math.Ln2 + lnMant[i] + t*(1-t*(0.5-t*(1.0/3)))) * s.inv
	k = int64(a)
	if frac := a - float64(k); frac >= s.margin && frac <= 1-s.margin {
		return k, false
	}
	return int64(math.Log(y) / s.logq), true
}

// ConnectedGNP returns G(n, p) with a uniform random spanning tree's worth of
// extra edges added to guarantee connectivity (random-tree augmentation).
func ConnectedGNP(n int, p float64, r *rng.Source) *Graph {
	return ConnectedGNPInto(NewBuilder(n), n, p, r)
}

// ConnectedGNPInto is ConnectedGNP through a caller-owned builder. The
// finalized sample is independent storage, so the augmentation pass can
// Reset and refill the same builder.
func ConnectedGNPInto(b *Builder, n int, p float64, r *rng.Source) *Graph {
	g := GNPInto(b, n, p, r)
	if IsConnected(g) {
		return g
	}
	b.Reset(n)
	g.Edges(func(u, v int32) { b.AddEdge(u, v) })
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(int32(perm[i]), int32(perm[r.Intn(i)]))
	}
	return b.Graph()
}

// RandomGeometric returns a unit-disk graph: n points uniform in the unit
// square, vertices adjacent iff within distance radius. If connect is true,
// disconnected components are stitched together by adding the edge between
// the closest pair of points in different components (repeatedly), modelling
// sensors dropped over terrain with a few long-range relays.
func RandomGeometric(n int, radius float64, r *rng.Source, connect bool) *Graph {
	return RandomGeometricInto(NewBuilder(n), n, radius, r, connect)
}

// RandomGeometricInto is RandomGeometric through a caller-owned builder,
// which is Reset and refilled for every connectivity-stitching rebuild.
func RandomGeometricInto(b *Builder, n int, radius float64, r *rng.Source, connect bool) *Graph {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i] = r.Float64(), r.Float64()
	}
	b.Reset(n)
	// Cell grid for neighbor queries.
	cell := radius
	if cell <= 0 {
		cell = 1
	}
	cols := int(1/cell) + 1
	grid := make(map[int][]int32, n)
	key := func(x, y float64) int {
		return int(y/cell)*cols + int(x/cell)
	}
	for i := 0; i < n; i++ {
		k := key(xs[i], ys[i])
		grid[k] = append(grid[k], int32(i))
	}
	r2 := radius * radius
	for i := 0; i < n; i++ {
		cx, cy := int(xs[i]/cell), int(ys[i]/cell)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				for _, j := range grid[(cy+dy)*cols+(cx+dx)] {
					if j <= int32(i) {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						b.AddEdge(int32(i), j)
					}
				}
			}
		}
	}
	g := b.Graph()
	if !connect {
		return g
	}
	for {
		comp, k := Components(g)
		if k <= 1 {
			return g
		}
		// Closest pair across the component containing 0 and the rest.
		best := -1.0
		var bu, bv int32
		for u := 0; u < n; u++ {
			if comp[u] != comp[0] {
				continue
			}
			for v := 0; v < n; v++ {
				if comp[v] == comp[0] {
					continue
				}
				ddx, ddy := xs[u]-xs[v], ys[u]-ys[v]
				d2 := ddx*ddx + ddy*ddy
				if best < 0 || d2 < best {
					best, bu, bv = d2, int32(u), int32(v)
				}
			}
		}
		b.Reset(n)
		g.Edges(func(u, v int32) { b.AddEdge(u, v) })
		b.AddEdge(bu, bv)
		g = b.Graph()
	}
}

// DRegular returns a random d-regular simple graph via the configuration
// model with restarts. n·d must be even and d < n.
func DRegular(n, d int, r *rng.Source) *Graph {
	if n*d%2 != 0 || d >= n {
		panic("graph: invalid d-regular parameters")
	}
	for attempt := 0; ; attempt++ {
		stubs := make([]int32, 0, n*d)
		for v := 0; v < n; v++ {
			for i := 0; i < d; i++ {
				stubs = append(stubs, int32(v))
			}
		}
		r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		ok := true
		seen := make(map[int64]bool, n*d/2)
		b := FromDegreeHint(n, d)
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v {
				ok = false
				break
			}
			k := int64(min32(u, v))<<32 | int64(max32(u, v))
			if seen[k] {
				ok = false
				break
			}
			seen[k] = true
			b.AddEdge(u, v)
		}
		if ok {
			return b.Graph()
		}
		if attempt > 200 {
			panic("graph: d-regular generation failed to converge")
		}
	}
}

// Lollipop returns a clique of size k attached to a path of length tail —
// a classic high-eccentricity-contrast family for diameter experiments.
func Lollipop(k, tail int) *Graph {
	n := k + tail
	b := NewBuilderHint(n, k*(k-1)/2+tail)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	// The tail hangs off the clique's last vertex; with no clique (k = 0)
	// it is a plain path from 0.
	for v := max(k-1, 0); v < n-1; v++ {
		b.AddEdge(int32(v), int32(v+1))
	}
	return b.Graph()
}

// Caterpillar returns a spine path of length spine where every spine vertex
// carries legs pendant vertices.
func Caterpillar(spine, legs int) *Graph {
	n := spine * (1 + legs)
	b := NewBuilderHint(n, n-1)
	for s := 0; s < spine-1; s++ {
		b.AddEdge(int32(s), int32(s+1))
	}
	next := spine
	for s := 0; s < spine; s++ {
		for l := 0; l < legs; l++ {
			b.AddEdge(int32(s), int32(next))
			next++
		}
	}
	return b.Graph()
}

// PathWithTrees is the adversarial family for the 3/2-diameter approximation:
// a long central path with complete binary trees of height h hanging off both
// endpoints, so that eccentricity-based estimates are stressed.
func PathWithTrees(pathLen, h int) *Graph {
	treeN := (1 << (h + 1)) - 1
	n := pathLen + 2*treeN
	b := NewBuilderHint(n, n-1)
	for v := 0; v < pathLen-1; v++ {
		b.AddEdge(int32(v), int32(v+1))
	}
	attach := func(base int, root int32) {
		for i := 0; i < treeN; i++ {
			if i > 0 {
				b.AddEdge(int32(base+i), int32(base+(i-1)/2))
			}
		}
		b.AddEdge(root, int32(base))
	}
	attach(pathLen, 0)
	attach(pathLen+treeN, int32(pathLen-1))
	return b.Graph()
}

// Sorted copy helpers used by generators.
func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// family describes one entry of the workload-family registry: whether the
// topology depends on the generator seed, the constructor, and — for the
// seeded families the harness rebuilds every trial — the pooled-builder
// constructor NamedInto prefers.
type family struct {
	seeded bool
	build  func(n int, r *rng.Source) *Graph
	into   func(b *Builder, n int, r *rng.Source) *Graph
}

// families is the single registry behind Named, FamilyNames and
// FamilySeeded, so existence and seededness can never disagree. A family
// whose constructor draws from r MUST be registered seeded: the harness
// graph cache shares one instance of every unseeded family across trials.
// gnpP and geoRadius are the size-derived family parameters, shared by the
// fresh and pooled-builder registry constructors so the two paths can never
// drift.
func gnpP(n int) float64 { return 2 * math.Log(float64(n)) / float64(n) }

func geoRadius(n int) float64 {
	return 1.8 * math.Sqrt(math.Log(float64(n)+2)/(math.Pi*float64(n)))
}

var families = map[string]family{
	"path":  {false, func(n int, _ *rng.Source) *Graph { return Path(n) }, nil},
	"cycle": {false, func(n int, _ *rng.Source) *Graph { return Cycle(n) }, nil},
	"grid": {false, func(n int, _ *rng.Source) *Graph {
		side := int(math.Round(math.Sqrt(float64(n))))
		if side < 1 {
			side = 1
		}
		return Grid(side, side)
	}, nil},
	"torus": {false, func(n int, _ *rng.Source) *Graph {
		side := int(math.Round(math.Sqrt(float64(n))))
		if side < 2 {
			side = 2
		}
		return Torus(side, side)
	}, nil},
	"star":     {false, func(n int, _ *rng.Source) *Graph { return Star(n) }, nil},
	"complete": {false, func(n int, _ *rng.Source) *Graph { return Complete(n) }, nil},
	"tree":     {true, RandomTree, RandomTreeInto},
	"gnp": {true,
		func(n int, r *rng.Source) *Graph {
			return ConnectedGNP(n, gnpP(n), r)
		},
		func(b *Builder, n int, r *rng.Source) *Graph {
			return ConnectedGNPInto(b, n, gnpP(n), r)
		}},
	"geometric": {true,
		func(n int, r *rng.Source) *Graph {
			return RandomGeometric(n, geoRadius(n), r, true)
		},
		func(b *Builder, n int, r *rng.Source) *Graph {
			return RandomGeometricInto(b, n, geoRadius(n), r, true)
		}},
	"hypercube": {false, func(n int, _ *rng.Source) *Graph {
		d := 0
		for 1<<(d+1) <= n {
			d++
		}
		return Hypercube(d)
	}, nil},
	"lollipop":    {false, func(n int, _ *rng.Source) *Graph { return Lollipop(n/2, n-n/2) }, nil},
	"caterpillar": {false, func(n int, _ *rng.Source) *Graph { return Caterpillar(max(n/4, 1), 3) }, nil},
}

// Named returns a standard test-family graph by name; used by the CLI and
// experiment harness. See FamilyNames for the accepted names.
func Named(name string, n int, seed uint64) (*Graph, bool) {
	return NamedInto(nil, name, n, seed)
}

// NamedInto is Named building through a caller-owned builder pool where the
// family supports it (the seeded families — the ones rebuilt per trial).
// Passing a nil builder, or naming a family without a pooled constructor,
// falls back to a fresh build. The resulting graph is always identical to
// Named's for the same (name, n, seed): the pooled path reuses only
// accumulation arrays, never randomness.
func NamedInto(b *Builder, name string, n int, seed uint64) (*Graph, bool) {
	f, ok := families[name]
	if !ok {
		return nil, false
	}
	r := rng.New(rng.Derive(seed, 0xfa111e5))
	if b != nil && f.into != nil {
		return f.into(b, n, r), true
	}
	return f.build(n, r), true
}

// FamilySeeded reports whether the named family's topology depends on the
// generator seed. Deterministic families (false) produce the same graph for
// every seed, so callers such as the harness graph cache may build them once
// and share the result across trials.
func FamilySeeded(name string) bool {
	return families[name].seeded
}

// FamilyNames lists the graph families accepted by Named, sorted.
func FamilyNames() []string {
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
