// Command radiobfs runs one of the registered algorithms on a generated
// radio network and prints its structured result and cost meters.
//
// Usage:
//
//	radiobfs -graph cycle -n 256 -algo recursive -source 0 -maxdist 128
//	radiobfs -graph geometric -n 400 -algo diam2
//	radiobfs -algo help            # list every registered algorithm
//
// Algorithms are resolved from the repro registry (repro.Algorithms), so a
// newly registered algorithm is runnable here without touching this file;
// -algo help enumerates them with their parameter names.
//
// The run subcommand executes declarative scenario specs (internal/spec;
// the checked-in library lives in scenarios/) on the parallel trial runner
// (internal/harness) and persists their artifacts — per-trial JSONL,
// aggregated CSV, a Markdown table, and a manifest — to a results
// directory. A families × sizes grid is a scenario's "grid" field, with one
// scenario per algorithm:
//
//	radiobfs run scenarios/e1_recursive.json
//	radiobfs run -out results -workers 8 -quick scenarios/smoke.json
//
// With -dist, run executes the spec across -workers worker processes under a
// lease-based fault-tolerant coordinator (internal/dist); -chaos injects
// deterministic worker crashes and stalls to exercise it:
//
//	radiobfs run -dist -workers 4 scenarios/scale_suite.json
//	radiobfs run -workers 3 -chaos seed=7,killafter=2,stall=25 -quick scenarios/smoke.json
//
// The work subcommand is the worker half of that protocol: spawned by the
// coordinator, never run by hand, it serves trial leases over stdin/stdout.
//
// The serve subcommand turns the same spec executor into a long-lived HTTP
// daemon — admission-controlled scheduling, SSE progress streams, and a
// content-addressed result cache — and submit is its client:
//
//	radiobfs serve -addr 127.0.0.1:8370 -store serve-store
//	radiobfs submit -server http://127.0.0.1:8370 scenarios/smoke.json
//
// `radiobfs help` lists every subcommand; the listing is generated from the
// same registry main dispatches through.
//
// Run output — stdout and artifacts alike — is byte-identical for every
// -workers value, in-process or distributed, faulted or not; wall time and
// coordination logs are reported on stderr. The serve cache relies on
// exactly that property: artifacts are pure functions of (spec, seed, build).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"repro"
	"repro/internal/graph"
)

func main() {
	if len(os.Args) > 1 {
		name := os.Args[1]
		if name == "help" || name == "-help" || name == "--help" {
			fmt.Print(usageText())
			return
		}
		for _, c := range commands() {
			if c.name == name {
				if err := c.run(os.Args[2:]); err != nil {
					fmt.Fprintf(os.Stderr, "radiobfs %s: %v\n", name, err)
					os.Exit(1)
				}
				return
			}
		}
		// A bare word that is not a registered subcommand is a typo, not a
		// single-shot flag set: fail loudly with the registry listing.
		if !strings.HasPrefix(name, "-") {
			fmt.Fprintf(os.Stderr, "radiobfs: unknown command %q\n\n%s", name, usageText())
			os.Exit(2)
		}
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "radiobfs:", err)
		os.Exit(1)
	}
}

// printAlgorithms renders the registry listing shown by -algo help.
func printAlgorithms(w io.Writer) {
	fmt.Fprintln(w, "registered algorithms:")
	for _, a := range repro.Algorithms() {
		params := "none"
		if ps := a.Params(); len(ps) > 0 {
			names := make([]string, len(ps))
			for i, p := range ps {
				names[i] = p.Name
			}
			params = strings.Join(names, ", ")
		}
		fmt.Fprintf(w, "  %-10s %s\n             params: %s\n", a.Name(), a.Doc(), params)
	}
	aliases := repro.Aliases()
	names := make([]string, 0, len(aliases))
	for alias := range aliases {
		names = append(names, alias)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "aliases:")
	for _, alias := range names {
		fmt.Fprintf(w, "  %-14s → %s\n", alias, aliases[alias])
	}
}

func run() error {
	family := flag.String("graph", "grid", "graph family: "+strings.Join(graph.FamilyNames(), ", "))
	n := flag.Int("n", 256, "number of devices")
	algoName := flag.String("algo", "recursive", "registered algorithm ('help' lists all): "+strings.Join(repro.AlgorithmNames(), ", "))
	source := flag.Int("source", 0, "BFS source / base-station vertex")
	maxDist := flag.Int("maxdist", 0, "search radius (0 = n)")
	origin := flag.Int("origin", -1, "alarm origin vertex (-1 = last vertex)")
	period := flag.Int("period", 0, "polling period for poll/alarm (0 = default)")
	seed := flag.Uint64("seed", 1, "root seed")
	physical := flag.Bool("physical", false, "charge real radio slots instead of LB units")
	showLabels := flag.Bool("labels", false, "print the per-vertex labels")
	flag.Parse()

	if *algoName == "help" {
		printAlgorithms(os.Stdout)
		return nil
	}
	alg, err := repro.Get(*algoName)
	if err != nil {
		return err
	}
	g, err := repro.NewGraph(*family, *n, *seed)
	if err != nil {
		return err
	}
	var opts []repro.Option
	if *physical {
		opts = append(opts, repro.WithCostModel(repro.CostPhysical))
	}
	nw, err := repro.NewNetworkE(g, *seed, opts...)
	if err != nil {
		return err
	}
	if *origin < 0 {
		*origin = g.N() - 1
	}
	req := repro.Request{
		Source:  int32(*source),
		MaxDist: *maxDist,
		Period:  *period,
		Origin:  int32(*origin),
	}

	// Ctrl-C cancels the round loops at the next phase boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("graph=%s n=%d m=%d maxdeg=%d algo=%s\n", *family, g.N(), g.M(), g.MaxDegree(), alg.Name())
	res, err := alg.Run(ctx, nw, req)
	if err != nil {
		return err
	}
	alg.Check(nw, req, res)

	if res.Labels != nil {
		labeled, maxLabel := 0, int32(0)
		for _, l := range res.Labels {
			if l >= 0 {
				labeled++
				if l > maxLabel {
					maxLabel = l
				}
			}
		}
		fmt.Printf("labeled %d/%d vertices, eccentricity(source) >= %d\n", labeled, g.N(), maxLabel)
		if *showLabels {
			for v, l := range res.Labels {
				fmt.Printf("%d\t%d\n", v, l)
			}
		}
	}
	keys := make([]string, 0, len(res.Values))
	for k := range res.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s: %g\n", k, res.Values[k])
	}
	c := res.Cost
	fmt.Printf("cost: maxLB=%d totalLB=%d timeLB=%d", c.MaxLBEnergy, c.TotalLBEnergy, c.LBTime)
	if c.PhysRounds > 0 {
		fmt.Printf(" physMax=%d physRounds=%d msgViolations=%d", c.MaxPhysEnergy, c.PhysRounds, c.MsgViolations)
	}
	fmt.Println()
	return nil
}
