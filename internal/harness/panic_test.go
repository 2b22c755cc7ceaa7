package harness

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/lbnet"
)

// panicAlgo is a test-only registry entry that fails the way a bug deep in
// a trial would: it leaves the pooled engine mid-listen-window, then panics.
type panicAlgo struct{}

func (panicAlgo) Name() string              { return "panic-test" }
func (panicAlgo) Doc() string               { return "test-only entry whose every run panics" }
func (panicAlgo) Params() []repro.ParamSpec { return nil }
func (panicAlgo) Run(_ context.Context, nw *repro.Network, _ repro.Request) (*repro.Result, error) {
	if pn, ok := nw.Base().(*lbnet.PhysNet); ok {
		pn.Engine().Listen(nil, []int32{0})
	}
	panic("injected trial panic")
}
func (panicAlgo) Check(*repro.Network, repro.Request, *repro.Result) {}

// registerPanic guards the process-global registry like registerDummy.
var registerPanic sync.Once

// TestTrialPanicFailsOnlyItsTrial: a panicking trial reports "panic: ..."
// as its error on every execution path, the process survives, and the
// trials around it — run on the same pooled contexts — produce exactly the
// results of a sweep without the panicking scenario.
func TestTrialPanicFailsOnlyItsTrial(t *testing.T) {
	registerPanic.Do(func() { repro.Register(panicAlgo{}) })
	before := &Scenario{Name: "before", Instances: []Instance{{Family: "cycle", N: 48}}, Trials: 2, Algo: AlgoDecay}
	boom := &Scenario{Name: "boom", Instances: []Instance{{Family: "grid", N: 49}}, Trials: 2,
		Algo: "panic-test", Cost: repro.CostPhysical}
	after := &Scenario{Name: "after", Instances: []Instance{{Family: "grid", N: 49}, {Family: "gnp", N: 64}}, Trials: 2, Algo: AlgoDecay}

	ref := Runner{Workers: 1, Root: 4}
	want := ref.Run(before, after)

	check := func(path string, got []Result) {
		t.Helper()
		var rest []Result
		for _, res := range got {
			if res.Scenario != boom.Name {
				rest = append(rest, res)
				continue
			}
			if !strings.HasPrefix(res.Err, "panic:") || res.Metrics != nil {
				t.Errorf("%s: panicking trial %d reported err %q, metrics %v", path, res.Index, res.Err, res.Metrics)
			}
		}
		if !reflect.DeepEqual(rest, want) {
			t.Errorf("%s: trials around the panic differ from a sweep without it\ngot:  %v\nwant: %v", path, rest, want)
		}
	}
	for _, workers := range []int{1, 2} {
		r := Runner{Workers: workers, Root: 4}
		check(fmt.Sprintf("Runner.Run workers=%d", workers), r.Run(before, boom, after))
	}
	st := ref.Stream(before, boom, after)
	got := make([]Result, len(st.Trials()))
	err := st.RunRange(context.Background(), 0, len(got), nil, func(tr TrialRef, res Result) { got[tr.Slot] = res })
	if err != nil {
		t.Fatal(err)
	}
	check("Stream.RunRange", got)
}
