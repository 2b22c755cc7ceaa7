package main

import (
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/spec"
)

// workCounts are exact counts of the work an op's results report.
type workCounts struct{ rounds, lbUnits, trials float64 }

func countWork(results []harness.Result) workCounts {
	c := workCounts{trials: float64(len(results))}
	for _, r := range results {
		c.rounds += r.Metrics["physRounds"]
		c.lbUnits += r.Metrics["totalLB"]
	}
	return c
}

// meanCounts averages the counts of the given inputs, in order, skipping
// inputs that never ran. Averaging per distinct input, not per op, keeps the
// figure exactly repeatable for a seed however many ops a window held.
func meanCounts(order []uint64, counts map[uint64]workCounts) []metric {
	var sum workCounts
	n := 0
	for _, root := range order {
		if c, ok := counts[root]; ok {
			sum.rounds += c.rounds
			sum.lbUnits += c.lbUnits
			sum.trials += c.trials
			n++
		}
	}
	d := float64(max(n, 1))
	return []metric{
		{"radio.rounds_per_op", sum.rounds / d, "count", n},
		{"lbnet.lb_units_per_op", sum.lbUnits / d, "count", n},
		{"harness.trials_per_op", sum.trials / d, "count", n},
	}
}

// tracedLayers derives the in-process layer metrics from the traced ops.
func tracedLayers(tr *tracer, ops []int, traced []tracedOp) []metric {
	medMs := func(ds []time.Duration) float64 { return quantile(msAll(ds), 0.5) }
	var trialMs []float64
	var prep, check, core, decay []time.Duration
	var nsPerLB, nsPerVR []float64
	for _, t := range traced {
		var p, c, cb, db time.Duration
		var lb, vr float64
		for _, r := range t.trials {
			trialMs = append(trialMs, ms(r.dur))
			p += r.prep
			c += r.check
			if d := r.phases[phaseRecursive]; d > 0 {
				cb += d
				lb += r.totalLB
			}
			if d := r.phases[phaseDecay]; d > 0 {
				db += d
				vr += float64(r.n) * r.physRounds
			}
		}
		prep, check, core, decay = append(prep, p), append(check, c), append(core, cb), append(decay, db)
		if lb > 0 {
			nsPerLB = append(nsPerLB, float64(cb)/lb)
		}
		if vr > 0 {
			nsPerVR = append(nsPerVR, float64(db)/vr)
		}
	}
	return []metric{
		{"spec.compile_ms", medMs(tr.perOp("spec.compile", ops)), "ms", len(ops)},
		{"spec.artifacts_ms", medMs(tr.perOp("spec.artifacts", ops)), "ms", len(ops)},
		{"harness.trial_ms_p50", quantile(trialMs, 0.5), "ms", len(trialMs)},
		{"harness.prep_ms", medMs(prep), "ms", len(prep)},
		{"harness.check_ms", medMs(check), "ms", len(check)},
		{"core.bfs_ms", medMs(core), "ms", len(core)},
		{"core.ns_per_lb_unit", quantile(nsPerLB, 0.5), "ns", len(nsPerLB)},
		{"decay.bfs_ms", medMs(decay), "ms", len(decay)},
		{"radio.ns_per_vertex_round", quantile(nsPerVR, 0.5), "ns", len(nsPerVR)},
	}
}

// probeOps bounds how many traced ops the graph-build and aggregate probes
// replay.
const probeOps = 3

// probeLayers runs the probes that need no traffic: graph builds and
// aggregation over the traced ops' inputs and results, the spec hash, the
// journal append under both sync policies on dir's filesystem, and the
// dist frame round trip.
func probeLayers(f *spec.File, dir string, traced []tracedOp) []metric {
	var build, agg []time.Duration
	for _, t := range traced[:min(len(traced), probeOps)] {
		build = append(build, graphBuild(f, t.root))
		start := time.Now()
		harness.Aggregate(t.results)
		agg = append(agg, time.Since(start))
	}
	var frameResult harness.Result
	if len(traced) > 0 && len(traced[0].results) > 0 {
		frameResult = traced[0].results[0]
	}
	return append([]metric{
		{"graph.build_ms", quantile(msAll(build), 0.5), "ms", len(build)},
		{"harness.aggregate_ms", quantile(msAll(agg), 0.5), "ms", len(agg)},
	}, trafficFreeProbes(f, dir, frameResult)...)
}

// graphBuild times graph.NamedInto over every distinct graph the op's
// trials build (the trial-0 graph of each instance).
func graphBuild(f *spec.File, root uint64) time.Duration {
	scs, err := spec.Compile(f, spec.Options{})
	if err != nil {
		return 0
	}
	type key struct {
		family string
		n      int
		seed   uint64
	}
	seen := map[key]bool{}
	var total time.Duration
	for _, sc := range scs {
		for _, in := range sc.Instances {
			t := harness.TrialFor(sc, in, 0, root)
			seed := t.GraphSeed
			if !graph.FamilySeeded(in.Family) {
				seed = 0
			}
			k := key{in.Family, in.N, seed}
			if seen[k] {
				continue
			}
			seen[k] = true
			start := time.Now()
			graph.NamedInto(nil, in.Family, in.N, seed)
			total += time.Since(start)
		}
	}
	return total
}

// Phase names the algorithms announce through spec.Options.Observer.
const (
	phaseRecursive = "recursive-bfs"
	phaseDecay     = "decay-bfs"
)

// trialRecord is one settled trial of a traced op.
type trialRecord struct {
	n                   int
	totalLB, physRounds float64
	dur, prep, check    time.Duration
	// phases sums the trial's top-level phase spans by name.
	phases map[string]time.Duration
}

// trialRecorder turns the harness's observer events and OnTrial settles
// into spans. It relies on trials running one at a time, which holds for
// the traced passes: paper-grid traces with one worker, and scale-physics
// trials are all big enough to run alone.
type trialRecorder struct {
	mu      sync.Mutex
	tr      *tracer
	op      int
	parent  int64
	id      int64     // current trial's span id
	start   time.Time // current trial's start: the previous settle
	started bool      // current trial has announced a phase
	lastEnd time.Time
	open    []openPhase
	cur     trialRecord
	done    []trialRecord
}

type openPhase struct {
	name  string
	id    int64
	start time.Time
}

func newTrialRecorder(tr *tracer, op int, parent int64, start time.Time) *trialRecorder {
	return &trialRecorder{tr: tr, op: op, parent: parent, id: tr.id(), start: start,
		cur: trialRecord{phases: map[string]time.Duration{}}}
}

// PhaseStart implements the program's Observer.
func (r *trialRecorder) PhaseStart(phase string) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started {
		r.started = true
		r.cur.prep = now.Sub(r.start)
		r.tr.add(r.tr.id(), r.id, r.op, "harness.prep", r.start, now)
	}
	r.open = append(r.open, openPhase{phase, r.tr.id(), now})
}

// PhaseEnd implements the program's Observer.
func (r *trialRecorder) PhaseEnd(phase string) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.open) - 1; i >= 0; i-- {
		if p := r.open[i]; p.name == phase {
			parent := r.id
			if i > 0 {
				parent = r.open[i-1].id
			} else {
				r.cur.phases[phase] += now.Sub(p.start)
			}
			r.tr.add(p.id, parent, r.op, phase, p.start, now)
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
	r.lastEnd = now
}

// RoundBatch implements the program's Observer.
func (r *trialRecorder) RoundBatch(string, int64) {}

// settle is the OnTrial hook: it closes the trial's span and its check span
// (last phase end → settle, the reference-BFS check).
func (r *trialRecorder) settle(res harness.Result) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		r.cur.check = now.Sub(r.lastEnd)
		r.tr.add(r.tr.id(), r.id, r.op, "harness.check", r.lastEnd, now)
	}
	r.tr.add(r.id, r.parent, r.op, "harness.trial", r.start, now)
	r.cur.n = res.N
	r.cur.dur = now.Sub(r.start)
	r.cur.totalLB = res.Metrics["totalLB"]
	r.cur.physRounds = res.Metrics["physRounds"]
	r.done = append(r.done, r.cur)
	r.cur = trialRecord{phases: map[string]time.Duration{}}
	r.id, r.start, r.started, r.open = r.tr.id(), now, false, nil
}

func (r *trialRecorder) records() []trialRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]trialRecord(nil), r.done...)
}
