package decay

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

func TestLocalBroadcastSingleSender(t *testing.T) {
	g := graph.Star(10)
	e := radio.NewEngine(g)
	p := ParamsFor(10, 3)
	senders := []radio.TX{{ID: 0, Msg: radio.Msg{A: 99}}}
	receivers := []int32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	got := make([]radio.Msg, len(receivers))
	ok := make([]bool, len(receivers))
	LocalBroadcast(e, p, senders, receivers, 7, got, ok)
	for i := range receivers {
		if !ok[i] || got[i].A != 99 {
			t.Fatalf("receiver %d did not hear the lone sender", receivers[i])
		}
	}
}

// TestLocalBroadcastContention is the heart of Lemma 2.4: with many senders
// adjacent to one receiver, the receiver should still hear w.h.p.
func TestLocalBroadcastContention(t *testing.T) {
	for _, deg := range []int{2, 8, 64, 255} {
		n := deg + 1
		g := graph.Star(n) // center 0 listens, all leaves send
		p := ParamsFor(n, 4)
		fails := 0
		const trials = 200
		for trial := 0; trial < trials; trial++ {
			e := radio.NewEngine(g)
			senders := make([]radio.TX, 0, deg)
			for v := 1; v <= deg; v++ {
				senders = append(senders, radio.TX{ID: int32(v), Msg: radio.Msg{A: uint64(v)}})
			}
			got := make([]radio.Msg, 1)
			ok := make([]bool, 1)
			LocalBroadcast(e, p, senders, []int32{0}, rng.Derive(11, uint64(trial), uint64(deg)), got, ok)
			if !ok[0] {
				fails++
			}
		}
		if fails > trials/20 {
			t.Fatalf("deg=%d: %d/%d Local-Broadcasts failed", deg, fails, trials)
		}
	}
}

func TestLocalBroadcastNoSenderNeighbors(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3; sender 0, receiver 3 (not adjacent)
	e := radio.NewEngine(g)
	p := ParamsFor(4, 3)
	got := make([]radio.Msg, 1)
	ok := make([]bool, 1)
	LocalBroadcast(e, p, []radio.TX{{ID: 0, Msg: radio.Msg{A: 1}}}, []int32{3}, 5, got, ok)
	if ok[0] {
		t.Fatal("receiver with no sender-neighbor heard a message")
	}
	// Such a receiver pays full freight: Slots×Passes listens.
	if e.Energy(3) != p.Duration() {
		t.Fatalf("no-neighbor receiver energy = %d, want %d", e.Energy(3), p.Duration())
	}
}

func TestLocalBroadcastFixedDuration(t *testing.T) {
	g := graph.Path(4)
	p := ParamsFor(4, 3)
	for _, scenario := range []struct {
		senders   []radio.TX
		receivers []int32
	}{
		{nil, nil},
		{[]radio.TX{{ID: 0}}, nil},
		{nil, []int32{2}},
		{[]radio.TX{{ID: 0}}, []int32{1, 2}},
	} {
		e := radio.NewEngine(g)
		got := make([]radio.Msg, len(scenario.receivers))
		ok := make([]bool, len(scenario.receivers))
		LocalBroadcast(e, p, scenario.senders, scenario.receivers, 3, got, ok)
		if e.Round() != p.Duration() {
			t.Fatalf("duration %d != %d for %+v", e.Round(), p.Duration(), scenario)
		}
	}
}

func TestSenderEnergyIsPasses(t *testing.T) {
	g := graph.Path(2)
	e := radio.NewEngine(g)
	p := ParamsFor(2, 5)
	got := make([]radio.Msg, 1)
	ok := make([]bool, 1)
	LocalBroadcast(e, p, []radio.TX{{ID: 0, Msg: radio.Msg{A: 2}}}, []int32{1}, 9, got, ok)
	if e.Energy(0) != int64(p.Passes) {
		t.Fatalf("sender energy = %d, want %d (one transmission per pass)", e.Energy(0), p.Passes)
	}
}

// TestHearingReceiverStopsListening checks the Lemma 2.4 energy optimization:
// a receiver that hears early stops listening.
func TestHearingReceiverStopsListening(t *testing.T) {
	g := graph.Path(2)
	e := radio.NewEngine(g)
	p := ParamsFor(2, 6)
	got := make([]radio.Msg, 1)
	ok := make([]bool, 1)
	LocalBroadcast(e, p, []radio.TX{{ID: 0, Msg: radio.Msg{A: 2}}}, []int32{1}, 13, got, ok)
	if !ok[0] {
		t.Fatal("lone-neighbor receiver failed to hear")
	}
	if e.Energy(1) >= p.Duration() {
		t.Fatalf("hearing receiver listened for the whole call: %d rounds", e.Energy(1))
	}
}

// TestLocalBroadcastDeterminism runs one call twice, the second time with a
// nil got, which stores no messages and must not change who hears or the
// energy spent.
func TestLocalBroadcastDeterminism(t *testing.T) {
	g := graph.Complete(12)
	p := ParamsFor(12, 3)
	run := func(msgs bool) ([]bool, int64) {
		e := radio.NewEngine(g)
		var senders []radio.TX
		for v := 0; v < 6; v++ {
			senders = append(senders, radio.TX{ID: int32(v), Msg: radio.Msg{A: uint64(v)}})
		}
		receivers := []int32{6, 7, 8, 9, 10, 11}
		var got []radio.Msg
		if msgs {
			got = make([]radio.Msg, len(receivers))
		}
		ok := make([]bool, len(receivers))
		LocalBroadcast(e, p, senders, receivers, 21, got, ok)
		return ok, e.TotalEnergy()
	}
	ok1, e1 := run(true)
	ok2, e2 := run(false)
	if e1 != e2 {
		t.Fatalf("energy differs: %d vs %d", e1, e2)
	}
	for i := range ok1 {
		if ok1[i] != ok2[i] {
			t.Fatal("delivery pattern differs across identical seeds")
		}
	}
}

func TestBFSMatchesReferenceOnFamilies(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(40)},
		{"cycle", graph.Cycle(33)},
		{"grid", graph.Grid(6, 7)},
		{"star", graph.Star(30)},
		{"tree", graph.BinaryTree(31)},
		{"complete", graph.Complete(20)},
		{"hypercube", graph.Hypercube(5)},
	}
	for _, fam := range families {
		e := radio.NewEngine(fam.g)
		p := ParamsFor(fam.g.N(), 4)
		res := BFS(e, p, []int32{0}, fam.g.N(), rng.Derive(31, uint64(fam.g.N())))
		if bad := ReferenceAgainst(fam.g, []int32{0}, res.Dist, fam.g.N()); bad != 0 {
			t.Errorf("%s: %d vertices mislabeled", fam.name, bad)
		}
	}
}

func TestBFSRandomGraphsManySeeds(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 8; trial++ {
		g := graph.ConnectedGNP(80, 0.05, r)
		e := radio.NewEngine(g)
		// w.h.p. correctness needs Θ(log n) passes (Lemma 2.4 with
		// f = 1/poly(n)); 4 passes would fail ~1% of deliveries.
		p := ParamsFor(80, 10)
		res := BFS(e, p, []int32{0}, 80, rng.Derive(100, uint64(trial)))
		if bad := ReferenceAgainst(g, []int32{0}, res.Dist, 80); bad != 0 {
			t.Fatalf("trial %d: %d mislabeled", trial, bad)
		}
	}
}

func TestBFSMultiSource(t *testing.T) {
	g := graph.Path(30)
	e := radio.NewEngine(g)
	p := ParamsFor(30, 4)
	srcs := []int32{0, 29}
	res := BFS(e, p, srcs, 30, 5)
	if bad := ReferenceAgainst(g, srcs, res.Dist, 30); bad != 0 {
		t.Fatalf("%d mislabeled", bad)
	}
}

func TestBFSMaxDistCutoff(t *testing.T) {
	g := graph.Path(20)
	e := radio.NewEngine(g)
	p := ParamsFor(20, 4)
	res := BFS(e, p, []int32{0}, 5, 9)
	for v := int32(0); v < 20; v++ {
		want := v
		if v > 5 {
			want = -1
		}
		if res.Dist[v] != want {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], want)
		}
	}
}

// TestBFSEnergyShape verifies the baseline's defining property: per-vertex
// energy grows linearly with the distance at which a vertex is labeled,
// because everyone listens until labeled.
func TestBFSEnergyShape(t *testing.T) {
	g := graph.Path(64)
	e := radio.NewEngine(g)
	p := ParamsFor(64, 3)
	BFS(e, p, []int32{0}, 64, 3)
	// Vertex 60 must spend far more than vertex 2.
	if e.Energy(60) < 5*e.Energy(2) {
		t.Fatalf("energy not distance-proportional: E(60)=%d E(2)=%d", e.Energy(60), e.Energy(2))
	}
	// And the energy of the farthest vertex should be ~ D * duration.
	upper := int64(64) * p.Duration()
	if e.Energy(63) > upper {
		t.Fatalf("E(63)=%d exceeds D·duration=%d", e.Energy(63), upper)
	}
}

func TestBroadcastInforms(t *testing.T) {
	g := graph.Grid(8, 8)
	e := radio.NewEngine(g)
	p := ParamsFor(64, 4)
	informed := Broadcast(e, p, 0, radio.Msg{A: 1}, 64, 15)
	for v, inf := range informed {
		if !inf {
			t.Fatalf("vertex %d not informed", v)
		}
	}
}

func TestParamsFor(t *testing.T) {
	p := ParamsFor(1024, 4)
	if p.Slots != 11 {
		t.Fatalf("slots = %d, want 11", p.Slots)
	}
	if p.Passes != 4 {
		t.Fatalf("passes = %d", p.Passes)
	}
	if q := ParamsFor(2, 0); q.Passes != 1 {
		t.Fatalf("passes clamp failed: %d", q.Passes)
	}
	if p.Duration() != 44 {
		t.Fatalf("duration = %d", p.Duration())
	}
}

func TestMessageBudgetRespected(t *testing.T) {
	g := graph.Path(40)
	e := radio.NewEngine(g) // default RN[O(log n)] budget
	p := ParamsFor(40, 4)
	BFS(e, p, []int32{0}, 40, 3)
	if e.MsgViolations() != 0 {
		t.Fatalf("BFS violated RN[O(log n)] budget %d times", e.MsgViolations())
	}
}

func BenchmarkLocalBroadcastStar(b *testing.B) {
	g := graph.Star(256)
	p := ParamsFor(256, 4)
	senders := make([]radio.TX, 0, 255)
	for v := 1; v < 256; v++ {
		senders = append(senders, radio.TX{ID: int32(v), Msg: radio.Msg{A: uint64(v)}})
	}
	got := make([]radio.Msg, 1)
	ok := make([]bool, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := radio.NewEngine(g)
		LocalBroadcast(e, p, senders, []int32{0}, uint64(i), got, ok)
	}
}

// TestSenseDifferentiatesBusyFromQuiet is footnote 2 of the paper: without
// hardware CD, a Decay-scheduled call distinguishes zero transmitters from
// two-or-more w.h.p.
func TestSenseDifferentiatesBusyFromQuiet(t *testing.T) {
	g := graph.Star(34) // center 0, 33 leaves
	p := ParamsFor(34, 8)
	misses := 0
	for trial := 0; trial < 50; trial++ {
		e := radio.NewEngine(g)
		// All leaves transmit: a guaranteed collision every slot if naive,
		// but Decay isolates someone w.h.p.
		senders := make([]int32, 0, 33)
		for v := int32(1); v < 34; v++ {
			senders = append(senders, v)
		}
		busy := Sense(e, p, senders, []int32{0}, rng.Derive(91, uint64(trial)))
		if !busy[0] {
			misses++
		}
		// Quiet channel: no senders at all.
		quiet := Sense(e, p, nil, []int32{0}, rng.Derive(92, uint64(trial)))
		if quiet[0] {
			t.Fatal("silence sensed as busy")
		}
	}
	if misses > 2 {
		t.Fatalf("busy channel missed %d/50 times", misses)
	}
}
