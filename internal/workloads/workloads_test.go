package workloads_test

import (
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/spec"
	"repro/scenarios"
)

// TestTinyInstancesSettle: spec files reach the workload table from outside
// the program (`radiobfs run` arguments, `serve` submissions), so every
// workload must settle each trial — with metrics or an error — on the
// smallest instances a spec can declare, with each embedded spec's args and
// families, instead of spinning on them.
func TestTinyInstancesSettle(t *testing.T) {
	for _, name := range scenarios.Names() {
		f, err := scenarios.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		var tiny []spec.Scenario
		for _, sc := range f.Scenarios {
			if sc.Custom == "" {
				continue
			}
			family := ""
			if len(sc.Instances) > 0 {
				family = sc.Instances[0].Family
			} else {
				family = sc.Grid.Families[0]
			}
			sc.Instances = []harness.Instance{{Family: family, N: 1}, {Family: family, N: 2, MaxDist: 1}, {Family: family, N: 3, MaxDist: 2}}
			sc.Grid, sc.Quick, sc.Trials = nil, nil, 1
			tiny = append(tiny, sc)
		}
		if len(tiny) == 0 {
			continue
		}
		f.Scenarios = tiny
		done := make(chan error, 1)
		var out *spec.Output
		go func() {
			var err error
			out, err = spec.ExecuteFile(f, 2, 0, spec.Options{})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", name, err)
			} else if got, want := len(out.Results), 3*len(tiny); got != want {
				t.Errorf("%s: %d trials settled, want %d", name, got, want)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%s: trials on instances of 1–3 vertices did not settle within a minute", name)
		}
	}
}
