package scenarios

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// paperClaim is one paper bound that every summary of one embedded spec's
// quick-overlay run must meet. TestGoldenAggregates checks it over the
// summaries it already computed for the golden comparison, before any
// golden is written, so re-recording the goldens with -update cannot hide
// a broken bound.
type paperClaim struct {
	// claim names the statement of the paper, e.g. "Theorem 4.1".
	claim string
	// scenarios must all appear in the run, so a check cannot pass
	// vacuously after the scenario carrying its metric is renamed or
	// dropped.
	scenarios []string
	// check inspects one (scenario, family, n) summary.
	check func(c *claimCell)
}

// paperClaims maps an embedded spec's name to its claim. Bounds the specs
// measure but do not assert are listed, with the reason, in DESIGN.md's
// claim map.
var paperClaims = map[string]paperClaim{
	"e1_recursive": {"Theorem 4.1", []string{"E1-recursive", "E1-wavefront", "E1-physical"}, func(c *claimCell) {
		c.always("mislabeled", 0)
		if c.Scenario == "E1-physical" {
			c.always("msgViolations", 0)
		}
	}},
	"e2_localbroadcast": {"Lemma 2.4", nil, func(c *claimCell) {
		// A sender transmits once per pass and never listens.
		c.always("senderE", c.args["passes"])
	}},
	"e3_clustering": {"Lemma 2.5", nil, func(c *claimCell) {
		if v, ok := c.agg("vertices"); ok {
			tmax := cluster.DefaultConfig(int(v.Min), int(c.args["invBeta"])).TMax
			c.maxAtMost("radius", float64(tmax-1), fmt.Sprintf("TMax − 1 (TMax = %d)", tmax))
		}
	}},
	"e4_ideal_mpx": {"Lemmas 2.1, 2.2", nil, func(c *claimCell) {
		// Lemma 2.1 with ℓ = 1: Ball(v, 1) meets more than j clusters with
		// probability at most (1 − e^(−2β))^j.
		q := 1 - math.Exp(-2/c.args["invBeta"])
		for j := 1; j <= 6; j++ {
			c.maxAtMost(workloads.TailMetric(j), math.Pow(q, float64(j)), fmt.Sprintf("q^%d", j))
		}
		// Lemma 2.2: the cluster-graph distance is β·d within a Θ(log n)
		// factor. Single pairs may share a cluster (ratio 0), so the band
		// is checked on each distance bucket's mean.
		lg := math.Log2(float64(c.N))
		buckets := 0
		for _, b := range workloads.RatioBuckets(c.N) {
			if _, ok := c.Metrics[workloads.RatioMetric(b[0], "samples")]; !ok {
				continue // no pair at these distances
			}
			buckets++
			mean := workloads.RatioMetric(b[0], "mean")
			c.minAtLeast(mean, 1/(8*lg), "1/(8·log₂ n)")
			c.maxAtMost(mean, 8*lg, "8·log₂ n")
		}
		if buckets == 0 {
			c.failf("no distance bucket reported a ratio")
		}
	}},
	"e5_vnet": {"Lemmas 3.1, 3.2", nil, func(c *claimCell) {
		c.always("castFails", 0)
		c.always("subsetFails", 0)
		// A virtual Local-Broadcast is three casts and one parent LB.
		cast, ok := c.agg("castLBs")
		if vlb, ok2 := c.agg("vlbCost"); ok && ok2 && (vlb.Min != 3*cast.Min+1 || vlb.Max != 3*cast.Max+1) {
			c.failf("vlbCost over [%g, %g] is not 3·castLBs + 1 with castLBs over [%g, %g]", vlb.Min, vlb.Max, cast.Min, cast.Max)
		}
	}},
	"e7_participation": {"Claims 1–2", nil, func(c *claimCell) {
		w := c.args["w"]
		bound := w * w * math.Ceil(math.Log2(float64(c.MaxDist)))
		c.maxAtMost("maxXi", bound, "w²·⌈log₂ D⌉")
		c.maxAtMost("maxSpecial", bound, "w²·⌈log₂ D⌉")
	}},
	"e10_lowerbound": {"Theorem 5.1", nil, func(c *claimCell) {
		// holds is 1 when |X_good| ≤ 2·energy on the trial's transcript.
		c.always("holds", 1)
	}},
	"e11_setdisj": {"Theorem 5.2", nil, func(c *claimCell) {
		c.always("diamDisj", 2)
		c.always("diamInt", 3)
		// maxDist carries ℓ, with k = 2^ℓ.
		c.maxAtMost("degeneracy", float64(4*c.MaxDist), "4ℓ")
	}},
	"e12_diam2": {"Theorem 5.3", nil, func(c *claimCell) {
		c.always("inBand", 1)
	}},
	"e13_diam32": {"Theorem 5.4", []string{"E13-radio", "E13-mirror"}, func(c *claimCell) {
		c.always("inBand", 1)
	}},
	"e14_polling": {"§1", nil, func(c *claimCell) {
		c.always("delivered", 1)
		if d, ok := c.agg("depth"); ok {
			c.maxAtMost("latency", d.Min+c.args["period"], "depth + P")
		}
	}},
}

// verify runs the claim over every summary of one run of f.
func (pc paperClaim) verify(t *testing.T, f *spec.File, sums []harness.Summary) {
	t.Helper()
	args := map[string]map[string]float64{}
	for i := range f.Scenarios {
		args[f.Scenarios[i].Name] = f.Scenarios[i].Args
	}
	ran := map[string]bool{}
	for _, s := range sums {
		ran[s.Scenario] = true
		pc.check(&claimCell{t: t, claim: pc.claim, spec: f.Name, Summary: s, args: args[s.Scenario]})
	}
	for _, name := range pc.scenarios {
		if !ran[name] {
			t.Errorf("%s (spec %s): scenario %s did not run", pc.claim, f.Name, name)
		}
	}
}

// claimCell is one summary under check, with its scenario's workload args.
type claimCell struct {
	t           *testing.T
	claim, spec string
	harness.Summary
	args map[string]float64
}

// failf reports a violated bound, naming the claim and the cell.
func (c *claimCell) failf(format string, a ...any) {
	c.t.Helper()
	c.t.Errorf("%s (spec %s, scenario %s, %s n=%d): %s", c.claim, c.spec, c.Scenario, c.Family, c.N, fmt.Sprintf(format, a...))
}

// agg returns the named metric's aggregate; a metric the run did not
// report fails the cell.
func (c *claimCell) agg(metric string) (harness.Agg, bool) {
	c.t.Helper()
	a, ok := c.Metrics[metric]
	if !ok {
		c.failf("metric %s missing", metric)
	}
	return a, ok
}

// always requires every trial to report metric = want.
func (c *claimCell) always(metric string, want float64) {
	c.t.Helper()
	if a, ok := c.agg(metric); ok && (a.Min != want || a.Max != want) {
		c.failf("%s ranges over [%g, %g], want %g on every trial", metric, a.Min, a.Max, want)
	}
}

// maxAtMost requires every trial to report metric ≤ bound; what names the
// bound.
func (c *claimCell) maxAtMost(metric string, bound float64, what string) {
	c.t.Helper()
	if a, ok := c.agg(metric); ok && a.Max > bound {
		c.failf("%s max = %g exceeds %s = %g", metric, a.Max, what, bound)
	}
}

// minAtLeast requires every trial to report metric ≥ bound; what names the
// bound.
func (c *claimCell) minAtLeast(metric string, bound float64, what string) {
	c.t.Helper()
	if a, ok := c.agg(metric); ok && a.Min < bound {
		c.failf("%s min = %g is below %s = %g", metric, a.Min, what, bound)
	}
}
