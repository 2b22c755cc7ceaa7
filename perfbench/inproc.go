package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/harness"
	"repro/internal/rng"
	"repro/internal/spec"
)

// inputs is what an in-process workload generates from its seed: one spec
// document and the cycle of root seeds its ops run it under.
type inputs struct {
	doc   []byte
	cycle []uint64
}

// rootPool is the fixed list of root seeds an in-process workload's cycles
// draw from; every entry has a pinned digest.
func rootPool(workload string, size int) []uint64 {
	pool := make([]uint64, size)
	for i := range pool {
		h := fnv.New64a()
		h.Write([]byte(workload))
		pool[i] = rng.Derive(0x9b3a_c0de, h.Sum64(), uint64(i))%1_000_000 + 1
	}
	return pool
}

// cycleFor picks k entries of the pool in an order derived from the seed.
func cycleFor(pool []uint64, seed uint64, k int) []uint64 {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	perm := r.Perm(len(pool))
	out := make([]uint64, k)
	for i := range out {
		out[i] = pool[perm[i]]
	}
	return out
}

func encode(f *spec.File) []byte {
	b, err := f.Encode()
	if err != nil {
		panic(err) // a spec.File built from literals always encodes
	}
	return b
}

func inst(family string, n, maxDist int) harness.Instance {
	return harness.Instance{Family: family, N: n, MaxDist: maxDist}
}

// paperGridFile is a spec shaped like the paper's tables: E1's
// Recursive-BFS against its wavefront baseline on pinned topologies, the
// unit-vs-physical cost ablation, Decay on the seeded families, the E12
// diameter estimate, gradient verification and polling. Every graph has
// n ≤ 1024.
func paperGridFile() *spec.File {
	e1 := []harness.Instance{
		inst("cycle", 256, 128), inst("cycle", 512, 256), inst("grid", 256, 30),
		inst("geometric", 256, 256), inst("grid", 1024, 62),
	}
	ablation := &spec.Grid{Families: []string{"cycle", "grid"}, Sizes: []int{64}, MaxDistFrac: 0.5}
	return &spec.File{
		Name: "paper-grid",
		Doc:  "Benchmark spec shaped like the paper's tables (E1, cost ablation, seeded Decay, E12, verify, poll).",
		Scenarios: []spec.Scenario{
			{Name: "E1-recursive", Algorithm: "recursive", PinGraphs: true, Trials: 3, Instances: e1},
			{Name: "E1-wavefront", Algorithm: "recursive", PinGraphs: true, Trials: 3, Instances: e1,
				Params: map[string]float64{"invBeta": 1, "depth": 0, "w": 1, "alpha": 4}},
			{Name: "ablation-recursive-unit", Algorithm: "recursive", Trials: 2, Grid: ablation},
			{Name: "ablation-recursive-physical", Algorithm: "recursive", Cost: "physical", Trials: 2, Grid: ablation},
			{Name: "ablation-decay-unit", Algorithm: "decay", Trials: 2, Grid: ablation},
			{Name: "ablation-decay-physical", Algorithm: "decay", Cost: "physical", Trials: 2, Grid: ablation},
			{Name: "decay-seeded", Algorithm: "decay", Trials: 2,
				Grid: &spec.Grid{Families: []string{"geometric", "gnp", "tree"}, Sizes: []int{128}}},
			{Name: "E12-diam2", Algorithm: "diam2",
				Grid: &spec.Grid{Families: []string{"cycle", "grid", "gnp", "lollipop"}, Sizes: []int{64, 128}}},
			{Name: "verify", Algorithm: "verify", Trials: 2,
				Instances: []harness.Instance{inst("grid", 128, 0), inst("cycle", 128, 0)}},
			{Name: "poll", Algorithm: "poll", Trials: 2, Params: map[string]float64{"period": 4},
				Instances: []harness.Instance{inst("cycle", 128, 0), inst("geometric", 128, 0)}},
		},
	}
}

// scalePhysicsFile is Decay BFS on the physical channel (2 passes) over
// star, grid, tree and G(n,p) at n ≥ 2^17 = harness.DefaultShardMinN, so
// every trial runs alone with the engine sharded across the pool.
func scalePhysicsFile() *spec.File {
	n := harness.DefaultShardMinN
	return &spec.File{
		Name: "scale-physics",
		Doc:  "Benchmark spec: Decay BFS on the physical channel at n = 2^17, the sharded-step regime.",
		Scenarios: []spec.Scenario{{
			Name: "scale-decay", Algorithm: "decay", Cost: "physical", Trials: 1,
			Params: map[string]float64{"passes": 2},
			Instances: []harness.Instance{
				inst("star", n, 4), inst("grid", n, 10), inst("tree", n, 8), inst("gnp", n, 8),
			},
		}},
	}
}

const (
	paperGridPool  = 24
	paperGridCycle = 8
	scalePool      = 6
	scaleCycle     = 3
)

func paperGridInputs(seed uint64) inputs {
	return inputs{doc: encode(paperGridFile()), cycle: cycleFor(rootPool("paper-grid", paperGridPool), seed, paperGridCycle)}
}

func scalePhysicsInputs(seed uint64) inputs {
	return inputs{doc: encode(scalePhysicsFile()), cycle: cycleFor(rootPool("scale-physics", scalePool), seed, scaleCycle)}
}

func openPaperGrid(cfg config, trace bool) (session, error) {
	// Observer events carry no trial identity, so the traced pass runs the
	// trials one at a time.
	workers := runtime.NumCPU()
	if trace {
		workers = 1
	}
	return openInproc(cfg, "paper-grid", paperGridInputs(cfg.seed), workers)
}

func openScalePhysics(cfg config, _ bool) (session, error) {
	// Every trial is big enough to run alone, sharded, so tracing needs no
	// change of worker count.
	return openInproc(cfg, "scale-physics", scalePhysicsInputs(cfg.seed), runtime.NumCPU())
}

// inproc is an in-process workload session: each op parses the spec
// document, executes it with spec.ExecuteFile under the next root seed of
// the cycle, and writes its artifacts.
type inproc struct {
	name    string
	in      inputs
	file    *spec.File // parsed once, for the claim checks and probes
	workers int
	digests map[string]string
	dir     string
	next    int
	seen    map[uint64]bool
	counts  map[uint64]workCounts
	traced  []tracedOp
	mutate  func(*spec.Output)
}

// tracedOp is what a traced op leaves behind for the layer probes.
type tracedOp struct {
	root    uint64
	results []harness.Result
	trials  []trialRecord
}

func openInproc(cfg config, name string, in inputs, workers int) (*inproc, error) {
	f, err := spec.Parse(bytes.NewReader(in.doc))
	if err != nil {
		return nil, err
	}
	digests, err := loadDigests(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.out, name+"-")
	if err != nil {
		return nil, err
	}
	return &inproc{name: name, in: in, file: f, workers: workers, digests: digests[name], dir: dir,
		seen: map[uint64]bool{}, counts: map[uint64]workCounts{}, mutate: cfg.mutate}, nil
}

func (w *inproc) beginWindow() { w.traced = nil }

func (w *inproc) close() error { return os.RemoveAll(w.dir) }

func (w *inproc) step(tr *tracer, op int) sample {
	root := w.in.cycle[w.next%len(w.in.cycle)]
	w.next++
	smp := sample{op: true, hit: w.seen[root]}
	w.seen[root] = true
	var out *spec.Output
	if tr == nil {
		out, smp.wall, smp.err = w.execute(root)
	} else {
		out, smp.wall, smp.err = w.executeTraced(tr, op, root)
	}
	if smp.err == nil {
		smp.err = w.check(root, out)
	}
	return smp
}

// execute is the untraced op: parse, execute, write artifacts.
func (w *inproc) execute(root uint64) (*spec.Output, time.Duration, error) {
	start := time.Now()
	f, err := spec.Parse(bytes.NewReader(w.in.doc))
	if err != nil {
		return nil, 0, err
	}
	out, err := spec.ExecuteFile(f, w.workers, root, spec.Options{})
	if err != nil {
		return nil, 0, err
	}
	if _, err := out.WriteArtifacts(w.dir); err != nil {
		return nil, 0, err
	}
	return out, time.Since(start), nil
}

// executeTraced is the same op with spans around each call and the
// harness's observer hooks feeding per-trial spans.
func (w *inproc) executeTraced(tr *tracer, op int, root uint64) (*spec.Output, time.Duration, error) {
	opID := tr.id()
	start := time.Now()
	f, err := spec.Parse(bytes.NewReader(w.in.doc))
	if err != nil {
		return nil, 0, err
	}
	if _, err := spec.Compile(f, spec.Options{}); err != nil {
		return nil, 0, err
	}
	compiled := time.Now()
	tr.add(tr.id(), opID, op, "spec.compile", start, compiled)
	execID := tr.id()
	rec := newTrialRecorder(tr, op, execID, compiled)
	out, err := spec.ExecuteFile(f, w.workers, root, spec.Options{Observer: rec, OnTrial: rec.settle})
	if err != nil {
		return nil, 0, err
	}
	executed := time.Now()
	tr.add(execID, opID, op, "spec.execute", compiled, executed)
	if _, err := out.WriteArtifacts(w.dir); err != nil {
		return nil, 0, err
	}
	end := time.Now()
	tr.add(tr.id(), opID, op, "spec.artifacts", executed, end)
	tr.add(opID, 0, op, "op", start, end)
	w.traced = append(w.traced, tracedOp{root: root, results: out.Results, trials: rec.records()})
	return out, end.Sub(start), nil
}

// check runs the op's output checks: the paper's claims on the values the
// program returns, then the pinned digest of its artifacts.
func (w *inproc) check(root uint64, out *spec.Output) error {
	if w.mutate != nil {
		w.mutate(out)
	}
	if err := checkClaims(w.file, out.Results); err != nil {
		return err
	}
	sum, err := artifactDigest(filepath.Join(w.dir, out.File.Name))
	if err != nil {
		return err
	}
	want, ok := w.digests[strconv.FormatUint(root, 10)]
	if !ok {
		return fmt.Errorf("no pinned digest for %s root seed %d", w.name, root)
	}
	if sum != want {
		return fmt.Errorf("%s root seed %d: artifact digest %s, pinned %s", w.name, root, sum[:12], want[:min(12, len(want))])
	}
	if _, ok := w.counts[root]; !ok {
		w.counts[root] = countWork(out.Results)
	}
	return nil
}

func (w *inproc) verify(*tracer) map[int]error { return nil }

func (w *inproc) layers(tr *tracer, ops []int) []metric {
	out := meanCounts(w.in.cycle, w.counts)
	out = append(out, tracedLayers(tr, ops, w.traced)...)
	out = append(out, probeLayers(w.file, w.dir, w.traced)...)
	out = append(out, serviceLayers...)
	return out
}
