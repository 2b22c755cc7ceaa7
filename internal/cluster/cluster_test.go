package cluster

import (
	"math"
	"slices"
	"testing"

	"repro/internal/decay"
	"repro/internal/graph"
	"repro/internal/lbnet"
	"repro/internal/radio"
	"repro/internal/rng"
)

func testGraphs(r *rng.Source) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":      graph.Path(100),
		"cycle":     graph.Cycle(90),
		"grid":      graph.Grid(10, 10),
		"gnp":       graph.ConnectedGNP(100, 0.05, r),
		"tree":      graph.BinaryTree(63),
		"geometric": graph.RandomGeometric(120, 0.15, r, true),
	}
}

func TestDefaultConfigShape(t *testing.T) {
	cfg := DefaultConfig(1024, 8)
	if cfg.TMax != 2*10*8 { // 2·⌈log₂ 1024⌉·invBeta
		t.Fatalf("TMax = %d", cfg.TMax)
	}
	if cfg.C < 3 {
		t.Fatalf("C = %d", cfg.C)
	}
	if cfg.SubsetLen < cfg.C {
		t.Fatalf("SubsetLen = %d < C = %d", cfg.SubsetLen, cfg.C)
	}
	// Larger β (smaller InvBeta) means more contention tolerance needed.
	if DefaultConfig(1024, 2).C < DefaultConfig(1024, 32).C {
		t.Fatal("contention bound should shrink as β shrinks")
	}
}

func TestStartTimesInRange(t *testing.T) {
	cfg := DefaultConfig(256, 4)
	starts := StartTimes(256, cfg, 7)
	for v, s := range starts {
		if s < 1 || s > int32(cfg.TMax) {
			t.Fatalf("start[%d] = %d outside [1, %d]", v, s, cfg.TMax)
		}
	}
	// Exponential concentration: most vertices should start near TMax.
	late := 0
	for _, s := range starts {
		if s > int32(cfg.TMax/2) {
			late++
		}
	}
	if late < 200 {
		t.Fatalf("only %d/256 start in the second half of the window", late)
	}
}

func TestBuildPartitionOnFamilies(t *testing.T) {
	r := rng.New(3)
	for name, g := range testGraphs(r) {
		cfg := DefaultConfig(g.N(), 4)
		net := lbnet.NewUnitNet(g, 0, 11)
		cl := Build(net, cfg, 11)
		if bad := IsPartition(g, cl); bad != 0 {
			t.Errorf("%s: %d partition violations", name, bad)
		}
		if bad := LayersConsistent(g, cl); bad != 0 {
			t.Errorf("%s: %d layer violations", name, bad)
		}
		if rad := cl.Radius(); rad > int32(cfg.TMax) {
			t.Errorf("%s: radius %d exceeds TMax %d", name, rad, cfg.TMax)
		}
	}
}

func TestBuildMatchesCentralizedMirror(t *testing.T) {
	r := rng.New(5)
	for name, g := range testGraphs(r) {
		cfg := DefaultConfig(g.N(), 4)
		starts := StartTimes(g.N(), cfg, 21)
		net := lbnet.NewUnitNet(g, 0, 33)
		dist := BuildWithStarts(net, cfg, starts, 33)
		mirror := BuildRounded(g, cfg, starts, 33)
		if dist.NumClusters() != mirror.NumClusters() {
			t.Fatalf("%s: cluster counts differ: %d vs %d", name, dist.NumClusters(), mirror.NumClusters())
		}
		for v := range dist.ClusterOf {
			if dist.ClusterOf[v] != mirror.ClusterOf[v] || dist.Layer[v] != mirror.Layer[v] {
				t.Fatalf("%s: vertex %d differs: cluster %d/%d layer %d/%d",
					name, v, dist.ClusterOf[v], mirror.ClusterOf[v], dist.Layer[v], mirror.Layer[v])
			}
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	g := graph.Grid(8, 8)
	cfg := DefaultConfig(64, 4)
	a := Build(lbnet.NewUnitNet(g, 0, 9), cfg, 9)
	b := Build(lbnet.NewUnitNet(g, 0, 9), cfg, 9)
	for v := range a.ClusterOf {
		if a.ClusterOf[v] != b.ClusterOf[v] {
			t.Fatal("clustering not deterministic")
		}
	}
}

func TestBuildSurvivesLBFailures(t *testing.T) {
	// Even with 20% LB failures the result must be a valid partition (joins
	// are only delayed, never corrupted).
	g := graph.Grid(9, 9)
	cfg := DefaultConfig(81, 4)
	net := lbnet.NewUnitNet(g, 0.2, 13)
	cl := Build(net, cfg, 13)
	if bad := IsPartition(g, cl); bad != 0 {
		t.Fatalf("%d partition violations under failure injection", bad)
	}
	if bad := LayersConsistent(g, cl); bad != 0 {
		t.Fatalf("%d layer violations under failure injection", bad)
	}
}

func TestClusterEnergyAndTime(t *testing.T) {
	// Lemma 2.5: clustering takes exactly TMax Local-Broadcast units
	// (possibly cut short when everyone is clustered) and every vertex
	// participates in at most TMax of them.
	g := graph.Grid(10, 10)
	cfg := DefaultConfig(100, 4)
	net := lbnet.NewUnitNet(g, 0, 17)
	Build(net, cfg, 17)
	if net.LBTime() != int64(cfg.TMax) {
		t.Fatalf("clustering time = %d LB units, want %d", net.LBTime(), cfg.TMax)
	}
	if e := lbnet.MaxLBEnergy(net); e > int64(cfg.TMax) {
		t.Fatalf("max energy %d exceeds TMax %d", e, cfg.TMax)
	}
	// Every vertex sends or listens in every iteration until all are
	// clustered, so every vertex pays the same.
	for v := int32(1); v < int32(g.N()); v++ {
		if net.LBEnergy(v) != net.LBEnergy(0) {
			t.Fatalf("vertex %d paid %d LB units, vertex 0 paid %d", v, net.LBEnergy(v), net.LBEnergy(0))
		}
	}
}

// opaque hides a UnitNet's concrete type, so code that specializes on
// *lbnet.UnitNet takes its general path over the same network.
type opaque struct{ *lbnet.UnitNet }

// sameGrowth runs BuildWithStarts on two identically seeded UnitNets, once
// on the net itself (growUnit) and once behind opaque (one LocalBroadcast
// per iteration), and fails unless the clusterings, per-vertex energy and
// clocks agree.
func sameGrowth(t *testing.T, name string, g *graph.Graph, cfg Config, starts []int32, fp float64) {
	t.Helper()
	fast := lbnet.NewUnitNet(g, fp, 5)
	slow := lbnet.NewUnitNet(g, fp, 5)
	a := BuildWithStarts(fast, cfg, starts, 5)
	b := BuildWithStarts(opaque{slow}, cfg, starts, 5)
	for v := range a.ClusterOf {
		if a.ClusterOf[v] != b.ClusterOf[v] || a.Layer[v] != b.Layer[v] {
			t.Fatalf("%s fp=%v: vertex %d: cluster %d/%d layer %d/%d",
				name, fp, v, a.ClusterOf[v], b.ClusterOf[v], a.Layer[v], b.Layer[v])
		}
		if fast.LBEnergy(int32(v)) != slow.LBEnergy(int32(v)) {
			t.Fatalf("%s fp=%v: vertex %d paid %d, per-iteration path %d",
				name, fp, v, fast.LBEnergy(int32(v)), slow.LBEnergy(int32(v)))
		}
	}
	if !slices.Equal(a.Center, b.Center) || !slices.Equal(a.Seed, b.Seed) {
		t.Fatalf("%s fp=%v: centers or seeds differ", name, fp)
	}
	if fast.LBTime() != slow.LBTime() {
		t.Fatalf("%s fp=%v: LBTime %d, per-iteration path %d", name, fp, fast.LBTime(), slow.LBTime())
	}
	for path, cl := range map[string]*Clustering{"unit": a, "per-iteration": b} {
		if bad := IsPartition(g, cl); bad != 0 {
			t.Fatalf("%s fp=%v: %s path left %d partition violations", name, fp, path, bad)
		}
	}
	if fp == 0 {
		m := BuildRounded(g, cfg, starts, 5)
		if !slices.Equal(a.ClusterOf, m.ClusterOf) || !slices.Equal(a.Layer, m.Layer) || !slices.Equal(a.Center, m.Center) {
			t.Fatalf("%s: the centralized mirror clusters differently", name)
		}
	}
}

// TestBuildUnitMatchesPerIteration pins the unit-cost growth (only the
// boundary resolved, everyone charged once) against the path that runs
// every iteration as a LocalBroadcast: same clustering, same per-vertex
// energy, same clock, with and without failure draws.
func TestBuildUnitMatchesPerIteration(t *testing.T) {
	r := rng.New(7)
	for name, g := range testGraphs(r) {
		for _, fp := range []float64{0, 0.1} {
			cfg := DefaultConfig(g.N(), 4)
			sameGrowth(t, name, g, cfg, StartTimes(g.N(), cfg, rng.Derive(5, 0x57a27)), fp)
		}
	}
}

// TestBuildWithStartsUnitEdgeCases covers start times the drawn ones rarely
// give: a vertex starting after TMax (it joins a neighbour's cluster, or,
// isolated, stays unclustered to the end, so every iteration runs, and then
// ends as a cluster of its own), starts below 1, and every start at TMax
// (everyone listens to silence until all become centers in the last
// iteration, which then has no listener). Every row must give a partition
// on both paths and in the centralized mirror.
func TestBuildWithStartsUnitEdgeCases(t *testing.T) {
	b := graph.NewBuilder(41)
	for v := int32(0); v+1 < 40; v++ {
		b.AddEdge(v, v+1)
	}
	pathPlusIsolated := b.Graph() // vertex 40 has no neighbour
	grid := graph.Grid(8, 8)
	cfg := DefaultConfig(64, 4)
	tmax := int32(cfg.TMax)
	drawn := func(g *graph.Graph) []int32 { return StartTimes(g.N(), cfg, 11) }
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		starts func() []int32
	}{
		{"late-start", grid, func() []int32 {
			s := drawn(grid)
			s[27] = tmax + 3
			return s
		}},
		{"isolated-late", pathPlusIsolated, func() []int32 {
			s := drawn(pathPlusIsolated)
			s[40] = tmax + 1
			return s
		}},
		{"isolated-all-late", pathPlusIsolated, func() []int32 {
			s := make([]int32, pathPlusIsolated.N())
			for v := range s {
				s[v] = tmax + 1
			}
			s[3] = tmax - 6
			return s
		}},
		{"below-one", grid, func() []int32 {
			s := drawn(grid)
			s[0], s[63] = 0, -4
			return s
		}},
		{"all-at-tmax", grid, func() []int32 {
			s := make([]int32, grid.N())
			for v := range s {
				s[v] = tmax
			}
			return s
		}},
	} {
		for _, fp := range []float64{0, 0.1} {
			sameGrowth(t, tc.name, tc.g, cfg, tc.starts(), fp)
		}
	}
	// Spot-check the energy the unit path charges on the two extremes.
	late := lbnet.NewUnitNet(pathPlusIsolated, 0, 1)
	s := drawn(pathPlusIsolated)
	s[40] = tmax + 1
	if cl := BuildWithStarts(late, cfg, s, 1); cl.Layer[40] != 0 || cl.Center[cl.ClusterOf[40]] != 40 {
		t.Fatalf("isolated late vertex is in cluster %d (center %d) at layer %d, want a singleton",
			cl.ClusterOf[40], cl.Center[cl.ClusterOf[40]], cl.Layer[40])
	}
	if e := late.LBEnergy(0); e != int64(tmax) {
		t.Fatalf("with a vertex unclustered to the end, vertex 0 paid %d, want TMax = %d", e, tmax)
	}
	all := lbnet.NewUnitNet(grid, 0, 1)
	s = make([]int32, grid.N())
	for v := range s {
		s[v] = tmax
	}
	BuildWithStarts(all, cfg, s, 1)
	// Everyone listens to silence until TMax, when all become centers and
	// nobody is left to listen.
	if e, tm := lbnet.MaxLBEnergy(all), all.LBTime(); e != int64(tmax)-1 || tm != int64(tmax) {
		t.Fatalf("every start at TMax: max energy %d, LBTime %d; want %d and %d", e, tm, tmax-1, tmax)
	}
}

// growthRecorder wraps a Net and checks the arguments of every growth
// LocalBroadcast as they arrive.
type growthRecorder struct {
	lbnet.Net
	t       *testing.T
	calls   int
	role    []int  // per vertex: the call number that last saw it
	sender  []bool // per vertex: sent in some call so far
	senders int    // len(senders) of the previous call
	sent    []radio.Msg
}

func (r *growthRecorder) LocalBroadcast(senders []radio.TX, receivers []int32, got []radio.Msg, ok []bool) {
	t := r.t
	r.calls++
	if len(senders)+len(receivers) != r.N() {
		t.Fatalf("call %d: %d senders + %d receivers, want all %d vertices", r.calls, len(senders), len(receivers), r.N())
	}
	if len(senders) < r.senders {
		t.Fatalf("call %d: sender set shrank from %d to %d", r.calls, r.senders, len(senders))
	}
	kept := 0
	for i, s := range senders {
		if i > 0 && s.ID <= senders[i-1].ID {
			t.Fatalf("call %d: senders not ascending at %d", r.calls, i)
		}
		r.role[s.ID] = r.calls
		if r.sender[s.ID] {
			kept++
			if s.Msg != r.sent[s.ID] {
				t.Fatalf("call %d: sender %d changed its message", r.calls, s.ID)
			}
		}
		r.sender[s.ID], r.sent[s.ID] = true, s.Msg
	}
	if kept != r.senders {
		t.Fatalf("call %d: only %d of the previous %d senders still send", r.calls, kept, r.senders)
	}
	for i, v := range receivers {
		if i > 0 && v <= receivers[i-1] {
			t.Fatalf("call %d: receivers not ascending at %d", r.calls, i)
		}
		if r.role[v] == r.calls {
			t.Fatalf("call %d: vertex %d both sends and listens", r.calls, v)
		}
		r.role[v] = r.calls
	}
	r.senders = len(senders)
	r.Net.LocalBroadcast(senders, receivers, got, ok)
}

// TestBuildCallContents pins what the incrementally kept sender and
// receiver lists hand the net: on a PhysNet (which gets every iteration)
// each call's lists are ascending, disjoint and cover all vertices, the
// sender set only grows, and each sender announces its final center, layer
// and cluster seed.
func TestBuildCallContents(t *testing.T) {
	r := rng.New(9)
	for name, g := range testGraphs(r) {
		n := g.N()
		rec := &growthRecorder{
			Net:    lbnet.NewPhysNet(radio.NewEngine(g), decay.ParamsFor(n, 8), 3),
			t:      t,
			role:   make([]int, n),
			sender: make([]bool, n),
			sent:   make([]radio.Msg, n),
		}
		cl := Build(rec, DefaultConfig(n, 4), 3)
		if rec.calls == 0 {
			t.Fatalf("%s: no LocalBroadcast reached the net", name)
		}
		for v := 0; v < n; v++ {
			if !rec.sender[v] {
				continue
			}
			c := cl.ClusterOf[v]
			want := radio.Msg{Kind: MsgJoin, A: uint64(cl.Center[c]), B: uint64(cl.Layer[v]), C: cl.Seed[c]}
			if rec.sent[v] != want {
				t.Fatalf("%s: vertex %d announced %+v, final state %+v", name, v, rec.sent[v], want)
			}
		}
	}
}

func TestClusterGraphStructure(t *testing.T) {
	g := graph.Grid(12, 12)
	cfg := DefaultConfig(144, 4)
	cl := Build(lbnet.NewUnitNet(g, 0, 19), cfg, 19)
	cg := cl.ClusterGraph(g)
	if cg.N() != cl.NumClusters() {
		t.Fatalf("cluster graph has %d vertices, want %d", cg.N(), cl.NumClusters())
	}
	// The cluster graph of a connected graph is connected.
	if !graph.IsConnected(cg) {
		t.Fatal("cluster graph of connected graph is disconnected")
	}
	// No self-loops by construction.
	cg.Edges(func(u, v int32) {
		if u == v {
			t.Fatal("self-loop in cluster graph")
		}
	})
}

func TestSubsetDistribution(t *testing.T) {
	cfg := DefaultConfig(256, 8)
	cl := &Clustering{Cfg: cfg, Seed: make([]uint64, 200), Center: make([]int32, 200)}
	for c := range cl.Seed {
		cl.Seed[c] = rng.Derive(77, uint64(c))
	}
	total := 0
	for c := 0; c < 200; c++ {
		s := cl.Subset(int32(c))
		total += len(s)
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				t.Fatal("subset not sorted/unique")
			}
		}
	}
	mean := float64(total) / 200
	want := float64(cfg.SubsetLen) / float64(cfg.C)
	if mean < 0.7*want || mean > 1.3*want {
		t.Fatalf("mean subset size %.1f, want ~%.1f", mean, want)
	}
}

// TestRadiusBound is Lemma 2.5's w.h.p. radius bound: all clusters have
// radius < TMax, and in fact concentrate well below it.
func TestRadiusBound(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 5; trial++ {
		g := graph.ConnectedGNP(200, 0.03, r)
		cfg := DefaultConfig(200, 4)
		cl := Build(lbnet.NewUnitNet(g, 0, uint64(trial)), cfg, uint64(trial))
		if rad := cl.Radius(); rad > int32(cfg.TMax) {
			t.Fatalf("radius %d > TMax %d", rad, cfg.TMax)
		}
	}
}

// TestCutFraction is the O(β) cut bound: on bounded-degree graphs the
// fraction of cut edges should scale roughly like β.
func TestCutFraction(t *testing.T) {
	g := graph.Cycle(4000)
	for _, invBeta := range []int{4, 16} {
		cfg := DefaultConfig(4000, invBeta)
		var total float64
		const trials = 3
		for trial := 0; trial < trials; trial++ {
			cl := Build(lbnet.NewUnitNet(g, 0, uint64(100+trial)), cfg, uint64(100+trial*7+invBeta))
			total += CutFraction(g, cl.ClusterOf)
		}
		mean := total / trials
		beta := 1 / float64(invBeta)
		if mean > 4*beta {
			t.Errorf("invBeta=%d: cut fraction %.4f far above O(β)=%.4f", invBeta, mean, beta)
		}
		if mean == 0 {
			t.Errorf("invBeta=%d: zero cut edges on a 4000-cycle is implausible", invBeta)
		}
	}
}

// TestBallClusterCountsLemma21 checks the Lemma 2.1 tail: the number of
// clusters intersecting Ball(v, ℓ) exceeds j with probability at most
// (1 - e^(-2ℓβ))^j, so the observed counts must be small.
func TestBallClusterCountsLemma21(t *testing.T) {
	g := graph.Grid(20, 20)
	invBeta := 4
	ideal := BuildIdeal(g, invBeta, 31)
	counts := BallClusterCounts(g, ideal.ClusterOf, 1)
	beta := 1 / float64(invBeta)
	q := 1 - math.Exp(-2*beta)
	// j such that q^j < 1/(100·n): essentially no vertex should exceed it.
	j := int(math.Ceil(math.Log(1.0/(100*400)) / math.Log(q)))
	for v, c := range counts {
		if c-1 > j { // count > j+1 clusters beyond own
			t.Fatalf("vertex %d sees %d clusters in Ball(v,1); Lemma 2.1 cutoff %d", v, c, j+1)
		}
	}
}

func TestBuildIdealPartition(t *testing.T) {
	r := rng.New(37)
	g := graph.ConnectedGNP(150, 0.04, r)
	ideal := BuildIdeal(g, 4, 41)
	if len(ideal.ClusterOf) != 150 {
		t.Fatal("wrong size")
	}
	for v, c := range ideal.ClusterOf {
		if c < 0 || int(c) >= len(ideal.Center) {
			t.Fatalf("vertex %d unassigned", v)
		}
	}
	// Every center belongs to its own cluster with depth 0.
	for c, center := range ideal.Center {
		if ideal.ClusterOf[center] != int32(c) || ideal.Depth[center] != 0 {
			t.Fatalf("center %d not in its own cluster", center)
		}
	}
}

// TestIdealDistancePreservation measures Lemma 2.2's upper bound: for any
// pair, dist_G*(Cl(u), Cl(v)) <= ⌈dist_G(u,v)·β⌉·C·log n w.h.p.
func TestIdealDistancePreservation(t *testing.T) {
	g := graph.Path(400)
	invBeta := 8
	ideal := BuildIdeal(g, invBeta, 43)
	cg := ClusterGraphOf(g, ideal.ClusterOf, len(ideal.Center))
	distStar := graph.BFS(cg, ideal.ClusterOf[0])
	lg := math.Log2(400)
	const bigC = 8
	for v := 0; v < 400; v += 7 {
		d := float64(v) // dist on a path
		ds := float64(distStar[ideal.ClusterOf[v]])
		upper := math.Ceil(d/float64(invBeta))*bigC*lg + bigC*lg
		if ds > upper {
			t.Fatalf("pair (0,%d): dist* = %v exceeds Lemma 2.2 upper %v", v, ds, upper)
		}
		lower := math.Floor(d / float64(invBeta) / (8 * lg))
		if ds < lower {
			t.Fatalf("pair (0,%d): dist* = %v below Lemma 2.2 lower %v", v, ds, lower)
		}
	}
}

func TestSubsetPropertyHolds(t *testing.T) {
	r := rng.New(47)
	g := graph.ConnectedGNP(200, 0.03, r)
	cfg := DefaultConfig(200, 4)
	cl := Build(lbnet.NewUnitNet(g, 0, 51), cfg, 51)
	if bad := SubsetProperty(g, cl); bad != 0 {
		t.Fatalf("property (2) fails at %d vertices", bad)
	}
}

func TestSingletonGraph(t *testing.T) {
	g := graph.Path(1)
	cfg := DefaultConfig(1, 2)
	cl := Build(lbnet.NewUnitNet(g, 0, 1), cfg, 1)
	if cl.NumClusters() != 1 || cl.Layer[0] != 0 {
		t.Fatalf("singleton clustering wrong: %+v", cl)
	}
}

func TestMembersSortedAndComplete(t *testing.T) {
	g := graph.Grid(7, 7)
	cfg := DefaultConfig(49, 4)
	cl := Build(lbnet.NewUnitNet(g, 0, 3), cfg, 3)
	seen := 0
	for c, mem := range cl.Members() {
		for i, v := range mem {
			if cl.ClusterOf[v] != int32(c) {
				t.Fatal("member list inconsistent")
			}
			if i > 0 && mem[i-1] >= v {
				t.Fatal("member list unsorted")
			}
			seen++
		}
	}
	if seen != 49 {
		t.Fatalf("members cover %d vertices, want 49", seen)
	}
}

func BenchmarkBuildUnitNet(b *testing.B) {
	g := graph.Grid(32, 32)
	cfg := DefaultConfig(1024, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(lbnet.NewUnitNet(g, 0, uint64(i)), cfg, uint64(i))
	}
}
