package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/spec"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the tests
// hold the program to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// lastLine runs the benchmark with args and decodes its result line.
func lastLine(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// TestShortModePrintsEveryMetric runs every workload of BENCHMARK.json for
// a few ops, untraced and traced, and checks each prints exactly the
// metrics BENCHMARK.json names, with their units, and no failed op.
func TestShortModePrintsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if got, want := len(bf.Workloads), len(workloads()); got != want {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", got, want)
	}
	for _, wl := range bf.Workloads {
		if _, err := findWorkload(wl.Name); err != nil {
			t.Fatal(err)
		}
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.Name+"/trace="+trace, func(t *testing.T) {
				res := lastLine(t, "--workload", wl.Name, "--trace", trace, "--ops", "2", "--out", t.TempDir())
				want := bf.EndToEnd
				if trace == "1" {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
			})
		}
	}
}

// TestTamperedDigestRaisesErrorRate pins a wrong digest for one root seed
// of paper-grid's cycle: the op that runs it must count as failed.
func TestTamperedDigestRaisesErrorRate(t *testing.T) {
	pinned, err := loadDigests(config{})
	if err != nil {
		t.Fatal(err)
	}
	tampered := map[string]map[string]string{"paper-grid": {}}
	for k, v := range pinned["paper-grid"] {
		tampered["paper-grid"][k] = v
	}
	in := paperGridInputs(1)
	victim := in.cycle[2] // the warm-up ops run cycle[0] and cycle[1]
	tampered["paper-grid"][strconv.FormatUint(victim, 10)] = strings.Repeat("0", 64)
	cfg := config{workload: "paper-grid", seed: 1, ops: len(in.cycle), out: t.TempDir(), digests: tampered}
	res, err := execute(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Metrics["success_rate"].Value >= 1 {
		t.Errorf("tampered digest: correct=%v failed=%d success_rate=%v, want one failed op",
			res.Correct, res.Failed, res.Metrics["success_rate"].Value)
	}
}

// TestFailedClaimRaisesErrorRate makes gradient verification report a
// violation in every op: every op must count as failed.
func TestFailedClaimRaisesErrorRate(t *testing.T) {
	cfg := config{workload: "paper-grid", seed: 1, ops: 3, out: t.TempDir(), mutate: func(out *spec.Output) {
		for i := range out.Results {
			if out.Results[i].Scenario == "verify" {
				out.Results[i].Metrics["violations"] = 1
			}
		}
	}}
	res, err := execute(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Metrics["success_rate"].Value != 0 {
		t.Errorf("failed claim: correct=%v attempted=%d failed=%d success_rate=%v, want every op failed",
			res.Correct, res.Attempted, res.Failed, res.Metrics["success_rate"].Value)
	}
}

func TestCheckClaims(t *testing.T) {
	f := &spec.File{Scenarios: []spec.Scenario{
		{Name: "rec", Algorithm: "recursive"},
		{Name: "rec-phys", Algorithm: "recursive", Cost: "physical"},
		{Name: "ver", Algorithm: "verify"},
		{Name: "d2", Algorithm: "diam2"},
		{Name: "poll", Algorithm: "poll"},
		{Name: "decay", Algorithm: "decay"},
	}}
	result := func(sc string, m harness.Metrics, errText string) harness.Result {
		return harness.Result{Trial: harness.Trial{Scenario: sc}, Metrics: m, Err: errText}
	}
	for _, tc := range []struct {
		name string
		res  harness.Result
		fail bool
	}{
		{"exact labels", result("rec", harness.Metrics{"mislabeled": 0}, ""), false},
		{"mislabeled", result("rec", harness.Metrics{"mislabeled": 2}, ""), true},
		{"label metric missing", result("rec", harness.Metrics{}, ""), true},
		{"physical labels unasserted", result("rec-phys", harness.Metrics{"mislabeled": 1}, ""), false},
		{"violation", result("ver", harness.Metrics{"violations": 1}, ""), true},
		{"out of band", result("d2", harness.Metrics{"inBand": 0}, ""), true},
		{"in band", result("d2", harness.Metrics{"inBand": 1}, ""), false},
		{"undelivered", result("poll", harness.Metrics{"delivered": 0}, ""), true},
		{"decay unasserted", result("decay", harness.Metrics{"mislabeled": 3}, ""), false},
		{"trial error", result("decay", nil, "boom"), true},
		{"unknown scenario", result("nope", nil, ""), true},
	} {
		if err := checkClaims(f, []harness.Result{tc.res}); (err != nil) != tc.fail {
			t.Errorf("%s: err = %v, want failure %v", tc.name, err, tc.fail)
		}
	}
}

func at(ms int64) int64 { return ms * int64(time.Millisecond) }

// TestSelfTime covers overlapping, nested and out-of-range children.
func TestSelfTime(t *testing.T) {
	parent := span{Start: at(0), End: at(100)}
	children := []span{
		{Start: at(10), End: at(30)},
		{Start: at(20), End: at(40)}, // overlaps the first: union [10,40]
		{Start: at(12), End: at(18)}, // inside the first: adds nothing
		{Start: at(60), End: at(70)},
		{Start: at(90), End: at(120)}, // clipped to [90,100]
		{Start: at(-5), End: at(5)},   // clipped to [0,5]
		{Start: at(130), End: at(140)},
	}
	if got, want := selfTime(parent, children), 45*time.Millisecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("selfTime without children = %v, want 100ms", got)
	}
}

// TestTracerSelfTimes checks that a grandchild counts against its own
// parent only.
func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	ts := func(ms int64) time.Time { return tr.epoch.Add(time.Duration(at(ms))) }
	op, a, b := tr.id(), tr.id(), tr.id()
	tr.add(tr.id(), a, 0, "grandchild", ts(15), ts(25))
	tr.add(a, op, 0, "child", ts(10), ts(40))
	tr.add(b, op, 0, "child", ts(30), ts(50)) // overlaps the first child
	tr.add(op, 0, 0, "op", ts(0), ts(100))
	self := tr.selfTimes()
	for name, want := range map[string]time.Duration{
		"op":         60 * time.Millisecond, // minus the union [10,50]
		"child":      40 * time.Millisecond, // (30-10) + 20
		"grandchild": 10 * time.Millisecond,
	} {
		if self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
	if got := tr.perOp("child", []int{0, 1}); got[0] != 50*time.Millisecond || got[1] != 0 {
		t.Errorf("perOp(child) = %v, want [50ms 0]", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 1: 10, 0: 1} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
}
