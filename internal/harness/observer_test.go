package harness

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/progress"
)

// recordingObserver aggregates one scenario's progress events under a lock:
// per-phase start/end counts and cumulative rounds. Aggregates (not event
// order) are what concurrency must preserve — trials of one scenario race,
// but each trial's emissions are deterministic, so the multiset is too.
type recordingObserver struct {
	mu     sync.Mutex
	starts map[string]int
	ends   map[string]int
	rounds map[string]int64
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{starts: map[string]int{}, ends: map[string]int{}, rounds: map[string]int64{}}
}

func (o *recordingObserver) PhaseStart(phase string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.starts[phase]++
}

func (o *recordingObserver) PhaseEnd(phase string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ends[phase]++
}

func (o *recordingObserver) RoundBatch(phase string, rounds int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rounds[phase] += rounds
}

// totals snapshots the aggregates for comparison.
func (o *recordingObserver) totals() (starts, ends map[string]int, rounds map[string]int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	starts, ends, rounds = map[string]int{}, map[string]int{}, map[string]int64{}
	for k, v := range o.starts {
		starts[k] = v
	}
	for k, v := range o.ends {
		ends[k] = v
	}
	for k, v := range o.rounds {
		rounds[k] = v
	}
	return starts, ends, rounds
}

// observerScenarios builds two scenarios with distinct workloads (and thus
// distinct phase vocabularies) whose observers can be told apart.
func observerScenarios(obsA, obsB *recordingObserver) (*Scenario, *Scenario) {
	a := &Scenario{
		Name:      "obs-a",
		Algo:      AlgoRecursive,
		Trials:    4,
		Instances: []Instance{{Family: "cycle", N: 48, MaxDist: 12}, {Family: "star", N: 40}},
	}
	b := &Scenario{
		Name:      "obs-b",
		Algo:      AlgoPoll,
		Trials:    4,
		Instances: []Instance{{Family: "grid", N: 49}},
	}
	if obsA != nil {
		a.Observer = obsA
	}
	if obsB != nil {
		b.Observer = obsB
	}
	return a, b
}

// TestConcurrentScenarioObserversDoNotInterleave: two scenarios sharing one
// pooled runner each carry their own observer; every event must reach the
// owning scenario's observer and no other. The proof compares each
// observer's aggregate event multiset from the concurrent run against a
// solo sequential run of its scenario alone — any cross-stream leak moves
// counts between the two.
func TestConcurrentScenarioObserversDoNotInterleave(t *testing.T) {
	soloA, soloB := newRecordingObserver(), newRecordingObserver()
	a1, _ := observerScenarios(soloA, nil)
	_, b1 := observerScenarios(nil, soloB)
	seq := Runner{Workers: 1, Root: 7}
	seq.Run(a1)
	seq.Run(b1)

	sharedA, sharedB := newRecordingObserver(), newRecordingObserver()
	a2, b2 := observerScenarios(sharedA, sharedB)
	runner := Runner{Workers: 4, Root: 7}
	results := runner.Run(a2, b2)
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("trial %s/%s/n=%d#%d failed: %s", r.Scenario, r.Family, r.N, r.Index, r.Err)
		}
	}

	for _, c := range []struct {
		name       string
		solo, conc *recordingObserver
	}{{"obs-a", soloA, sharedA}, {"obs-b", soloB, sharedB}} {
		ss, se, sr := c.solo.totals()
		cs, ce, cr := c.conc.totals()
		if !reflect.DeepEqual(ss, cs) || !reflect.DeepEqual(se, ce) || !reflect.DeepEqual(sr, cr) {
			t.Errorf("%s: concurrent aggregates diverge from solo run\nsolo: starts=%v ends=%v rounds=%v\nconc: starts=%v ends=%v rounds=%v",
				c.name, ss, se, sr, cs, ce, cr)
		}
		if len(cs) == 0 {
			t.Errorf("%s: observer saw no phases at all", c.name)
		}
	}

	// Observers are pure taps: results are byte-identical to an unobserved
	// run of the same scenarios.
	a3, b3 := observerScenarios(nil, nil)
	plainRunner := Runner{Workers: 4, Root: 7}
	plain := plainRunner.Run(a3, b3)
	if !reflect.DeepEqual(results, plain) {
		t.Error("attaching observers changed trial results")
	}
}

// TestObserverCancellationSettlesPhases: canceling mid-phase (triggered
// from inside a RoundBatch callback) still delivers every phase's End —
// round loops settle their meters on the way out — and the canceled trials
// report the context error.
func TestObserverCancellationSettlesPhases(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rec := newRecordingObserver()
	var once sync.Once
	sc := &Scenario{
		Name:      "obs-cancel",
		Algo:      AlgoRecursive,
		Trials:    6,
		Instances: []Instance{{Family: "cycle", N: 64, MaxDist: 16}},
		Ctx:       ctx,
		Observer: chainObserver{rec, progress.Funcs{OnRoundBatch: func(string, int64) {
			once.Do(cancel)
		}}},
	}
	cancelRunner := Runner{Workers: 2, Root: 11}
	results := cancelRunner.Run(sc)

	canceled := 0
	for _, r := range results {
		if strings.Contains(r.Err, context.Canceled.Error()) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("no trial reported the cancellation")
	}
	starts, ends, _ := rec.totals()
	if !reflect.DeepEqual(starts, ends) {
		t.Errorf("unsettled phases after cancellation: starts=%v ends=%v", starts, ends)
	}
	if len(starts) == 0 {
		t.Error("observer saw no phases before cancellation")
	}
}

// chainObserver fans one event stream out to two observers; the test uses
// it to record and to trigger cancellation from the same stream.
type chainObserver struct {
	a, b progress.Observer
}

func (c chainObserver) PhaseStart(p string) { c.a.PhaseStart(p); c.b.PhaseStart(p) }
func (c chainObserver) PhaseEnd(p string)   { c.a.PhaseEnd(p); c.b.PhaseEnd(p) }
func (c chainObserver) RoundBatch(p string, n int64) {
	c.a.RoundBatch(p, n)
	c.b.RoundBatch(p, n)
}

// TestOnTrialNotifiesEveryTrialOnce: the runner's OnTrial hook fires
// exactly once per expanded trial with the settled result, on the
// sequential and pooled paths alike.
func TestOnTrialNotifiesEveryTrialOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"pooled", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			seen := map[Trial]Result{}
			counts := map[Trial]int{}
			runner := Runner{Workers: tc.workers, Root: 5,
				OnTrial: func(res Result) {
					mu.Lock()
					defer mu.Unlock()
					seen[res.Trial] = res
					counts[res.Trial]++
				}}
			a, b := observerScenarios(nil, nil)
			results := runner.Run(a, b)
			if len(seen) != len(results) {
				t.Fatalf("OnTrial saw %d trials, run settled %d", len(seen), len(results))
			}
			for _, r := range results {
				if counts[r.Trial] != 1 {
					t.Errorf("trial %+v notified %d times", r.Trial, counts[r.Trial])
				}
				if !reflect.DeepEqual(seen[r.Trial], r) {
					t.Errorf("trial %+v: notified result differs from settled result", r.Trial)
				}
			}
		})
	}
}
