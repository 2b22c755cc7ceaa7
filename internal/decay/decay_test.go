package decay

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/progress"
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
	new(Scratch).LocalBroadcast(e, p, senders, receivers, 7, got, ok)
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
			new(Scratch).LocalBroadcast(e, p, senders, []int32{0}, rng.Derive(11, uint64(trial), uint64(deg)), got, ok)
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
	new(Scratch).LocalBroadcast(e, p, []radio.TX{{ID: 0, Msg: radio.Msg{A: 1}}}, []int32{3}, 5, got, ok)
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
		new(Scratch).LocalBroadcast(e, p, scenario.senders, scenario.receivers, 3, got, ok)
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
	new(Scratch).LocalBroadcast(e, p, []radio.TX{{ID: 0, Msg: radio.Msg{A: 2}}}, []int32{1}, 9, got, ok)
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
	new(Scratch).LocalBroadcast(e, p, []radio.TX{{ID: 0, Msg: radio.Msg{A: 2}}}, []int32{1}, 13, got, ok)
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
		new(Scratch).LocalBroadcast(e, p, senders, receivers, 21, got, ok)
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

func TestBFSMaxDistCutoff(t *testing.T) {
	g := graph.Path(20)
	e := radio.NewEngine(g)
	p := ParamsFor(20, 4)
	res := new(Scratch).BFS(progress.Hooks{}, e, p, []int32{0}, 5, 9)
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
	new(Scratch).BFS(progress.Hooks{}, e, p, []int32{0}, 64, 3)
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
	new(Scratch).BFS(progress.Hooks{}, e, p, []int32{0}, 40, 3)
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
		new(Scratch).LocalBroadcast(e, p, senders, []int32{0}, uint64(i), got, ok)
	}
}
