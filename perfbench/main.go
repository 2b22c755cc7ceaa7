// Command perfbench is the repository's benchmark. It runs one workload per
// process against the program's Go APIs (spec, harness, serve, dist), times
// it end to end in an untraced pass, checks every output, and in a separate
// traced pass records spans around the calls it makes into each layer.
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
//
// The workloads are paper-grid (a paper-table spec executed in-process),
// scale-physics (Decay BFS on the physical channel at n ≥ 2^17) and
// sweep-service (a serve daemon over loopback HTTP executing jobs on two
// TCP dist workers). The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. README.md documents
// every metric and the layer each one belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	// ops, when positive, replaces the timed window with that many ops
	// (short mode, for the benchmark's own tests).
	ops   int
	trace bool
	out   string
	// digests overrides the pinned digests (tests tamper with them).
	digests map[string]map[string]string
	// mutate, when set, alters each in-process op's output before its
	// checks (tests make a claim check fail with it).
	mutate func(*spec.Output)
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up serves the timed window.
const setupReps = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the inputs are generated from it")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced pass: per-layer metrics and a span file")
	fs.IntVar(&cfg.ops, "ops", 0, "time this many ops instead of a window (short mode)")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "out"), "directory for stores, artifacts and span files")
	update := fs.String("update-digests", "", "re-pin the output digests of every root seed into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.window = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1
	if *update != "" {
		if err := updateDigests(cfg, *update, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// sample is one op of the closed loop.
type sample struct {
	// op marks a primary op; hit marks an op whose input the client already
	// submitted earlier in the run. In-process workloads have no result
	// cache, so their repeats are both.
	op, hit bool
	wall    time.Duration
	err     error
}

// session is a set-up workload: its inputs, and whatever servers and
// workers it runs against.
type session interface {
	// step runs the next op. tr is nil outside traced windows; op numbers
	// the op within its window (-1 for warm-up ops).
	step(tr *tracer, op int) sample
	// beginWindow marks the start of a timed window.
	beginWindow()
	// verify runs the untimed checks that need the whole window and
	// returns the failures, keyed by the op number within the window.
	verify(tr *tracer) map[int]error
	// layers derives the per-layer metrics of a traced window.
	layers(tr *tracer, ops []int) []metric
	close() error
}

// workload is a named way of setting a session up from a seed.
type workload struct {
	name    string
	warmups int
	open    func(cfg config, trace bool) (session, error)
}

func workloads() []workload {
	return []workload{
		{name: "paper-grid", warmups: 2, open: openPaperGrid},
		{name: "scale-physics", warmups: 1, open: openScalePhysics},
		{name: "sweep-service", warmups: 30, open: openSweepService},
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames(), ", "))
}

// window is one timed stretch of the closed loop.
type window struct {
	samples   []sample
	wall, cpu time.Duration
	rt0, rt1  goRuntime
	steal     float64
	probe     time.Duration
	peakRSS   float64
}

// measure runs the closed loop for the configured window (or op count).
func measure(s session, tr *tracer, cfg config, length time.Duration) window {
	var w window
	p0 := hostProbe()
	st0, cpu0 := readCPUStat(), cpuTime()
	w.rt0 = readGoRuntime()
	s.beginWindow()
	start := time.Now()
	for i := 0; ; i++ {
		if cfg.ops > 0 && i >= cfg.ops || cfg.ops <= 0 && time.Since(start) >= length {
			break
		}
		w.samples = append(w.samples, s.step(tr, i))
	}
	w.wall = time.Since(start)
	w.cpu = cpuTime() - cpu0
	w.rt1 = readGoRuntime()
	w.steal = stealFrac(st0, readCPUStat())
	w.peakRSS = peakRSSMB()
	w.probe = (p0 + hostProbe()) / 2
	return w
}

// failures merges the ops that failed inline with those verify failed.
func (w *window) failures(late map[int]error) (attempted, failed int, first error) {
	for i, smp := range w.samples {
		err := smp.err
		if err == nil {
			err = late[i]
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	return len(w.samples), failed, first
}

func (w *window) walls(keep func(sample) bool) []float64 {
	var out []float64
	for _, smp := range w.samples {
		if keep(smp) {
			out = append(out, ms(smp.wall))
		}
	}
	return out
}

func (w *window) count(keep func(sample) bool) int {
	return len(w.walls(keep))
}

// merge adds another window's ops (with verify's late failures) to the
// running counts.
func merge(w window, attempted, failed int, first error, late ...map[int]error) (int, int, error) {
	var l map[int]error
	if len(late) > 0 {
		l = late[0]
	}
	a, f, e := w.failures(l)
	if first == nil {
		first = e
	}
	return attempted + a, failed + f, first
}

func isOp(s sample) bool  { return s.op }
func isHit(s sample) bool { return s.hit }

// setUp opens the workload setupReps times, each time through its warm-up
// ops, and keeps the last session. The warm-up ops are checked like any
// other; their samples come back so failures count.
func setUp(wl workload, cfg config) (session, []float64, window, error) {
	var s session
	var times []float64
	var warm window
	for r := 0; r < setupReps; r++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, nil, warm, err
			}
		}
		start := time.Now()
		var err error
		s, err = wl.open(cfg, cfg.trace)
		if err != nil {
			return nil, nil, warm, err
		}
		for i := 0; i < wl.warmups; i++ {
			warm.samples = append(warm.samples, s.step(nil, -1))
		}
		times = append(times, time.Since(start).Seconds())
	}
	return s, times, warm, nil
}

func execute(cfg config, stdout io.Writer) (*result, error) {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	mach := readMachine()
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d trace=%v window=%v ops=%d\n", wl.name, cfg.seed, cfg.trace, cfg.window, cfg.ops)
	fmt.Fprintf(stdout, "# machine nproc=%d gomaxprocs=%d go=%s cpu=%q\n", mach.NumCPU, mach.GOMAXPROCS, mach.GoVersion, mach.CPUModel)
	s, setups, warm, err := setUp(wl, cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := s.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: tearing down:", err)
		}
	}()
	if cfg.trace {
		return traced(cfg, wl, s, warm, mach, stdout)
	}
	w := measure(s, nil, cfg, cfg.window)
	attempted, failed, first := w.failures(s.verify(nil))
	attempted, failed, first = merge(warm, attempted, failed, first)
	ops := max(w.count(isOp), 1)
	hits := w.count(isHit)
	e2e := []metric{
		{"setup_s", quantile(setups, 0.5), "s", len(setups)},
		{"op_p50_ms", quantile(w.walls(isOp), 0.5), "ms", w.count(isOp)},
		{"hit_p50_ms", quantile(w.walls(isHit), 0.5), "ms", hits},
		{"cpu_ms_per_op", ms(w.cpu) / float64(ops), "ms", ops},
		{"peak_rss_mb", w.peakRSS, "MB", 1},
		{"success_rate", 1 - float64(failed)/float64(max(attempted, 1)), "fraction", attempted},
	}
	// The tails are reported but not part of the result line: their
	// run-to-run spread on a guest with fluctuating steal exceeds any
	// bound a regression gate can use (README.md, Noise).
	diag := []metric{
		{"op_p90_ms", quantile(w.walls(isOp), 0.9), "ms", w.count(isOp)},
		{"hit_p90_ms", quantile(w.walls(isHit), 0.9), "ms", hits},
		{"error_rate", float64(failed) / float64(max(attempted, 1)), "fraction", attempted},
		{"host.steal_frac", w.steal, "fraction", 1},
		{"host.probe_ms", ms(w.probe), "ms", 2},
		{"window_s", w.wall.Seconds(), "s", 1},
	}
	report(stdout, e2e, diag)
	if first != nil {
		fmt.Fprintf(stdout, "# first failure: %v\n", first)
	}
	return newResult(attempted, failed, e2e), nil
}

// traced runs the traced pass: an untraced window and a traced window of
// the same ops in the same configuration (their op medians give the tracing
// overhead), then the layer probes.
func traced(cfg config, wl workload, s session, warm window, mach machine, stdout io.Writer) (*result, error) {
	half := cfg.window / 2
	plain := measure(s, nil, cfg, half)
	attempted, failed, first := plain.failures(s.verify(nil))
	attempted, failed, first = merge(warm, attempted, failed, first)
	tr := newTracer()
	w := measure(s, tr, cfg, half)
	attempted, failed, first = merge(w, attempted, failed, first, s.verify(tr))
	ops := make([]int, 0, len(w.samples))
	for i := range w.samples {
		ops = append(ops, i)
	}
	layer := s.layers(tr, ops)
	n := float64(max(plain.count(isOp), 1))
	untracedP50 := quantile(plain.walls(isOp), 0.5)
	tracedP50 := quantile(w.walls(isOp), 0.5)
	gcCPU, userCPU := plain.rt1.gcCPU-plain.rt0.gcCPU, plain.rt1.userCPU-plain.rt0.userCPU
	layer = append(layer,
		metric{"go.alloc_mb_per_op", (plain.rt1.allocBytes - plain.rt0.allocBytes) / n / (1 << 20), "MB", int(n)},
		metric{"go.gc_cycles_per_op", (plain.rt1.gcCycles - plain.rt0.gcCycles) / n, "count", int(n)},
		metric{"go.gc_cpu_frac", ratio(gcCPU, gcCPU+userCPU), "fraction", 1},
		metric{"host.steal_frac", plain.steal, "fraction", 1},
		metric{"host.probe_ms", ms(plain.probe), "ms", 2},
		metric{"trace.overhead_pct", 100 * (ratio(tracedP50, untracedP50) - 1), "%", w.count(isOp)},
	)
	sort.Slice(layer, func(i, j int) bool { return layer[i].name < layer[j].name })
	diag := []metric{
		{"untraced.op_p50_ms", untracedP50, "ms", plain.count(isOp)},
		{"traced.op_p50_ms", tracedP50, "ms", w.count(isOp)},
		{"error_rate", float64(failed) / float64(max(attempted, 1)), "fraction", attempted},
	}
	report(stdout, layer, diag)
	selfReport(stdout, tr)
	path := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", wl.name, cfg.seed))
	header := map[string]any{"workload": wl.name, "seed": cfg.seed, "machine": mach, "ops": len(w.samples)}
	if err := tr.write(path, header); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# spans: %s\n", path)
	if first != nil {
		fmt.Fprintf(stdout, "# first failure: %v\n", first)
	}
	return newResult(attempted, failed, layer), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func newResult(attempted, failed int, metrics []metric) *result {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res
}

// report prints the metrics by name with unit and sample count, then the
// diagnostics that are not part of the result line.
func report(w io.Writer, metrics, diag []metric) {
	fmt.Fprintf(w, "%-32s %16s %-9s %s\n", "metric", "value", "unit", "samples")
	for _, m := range metrics {
		fmt.Fprintf(w, "%-32s %16.6f %-9s %d\n", m.name, m.value, m.unit, m.samples)
	}
	for _, m := range diag {
		fmt.Fprintf(w, "# %-30s %16.6f %-9s %d\n", m.name, m.value, m.unit, m.samples)
	}
}

// selfReport prints each span name's total self time in the traced window.
func selfReport(w io.Writer, tr *tracer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(w, "# self time by span (traced window)")
	for _, name := range names {
		fmt.Fprintf(w, "#   %-28s %12.3f ms\n", name, ms(self[name]))
	}
}
