package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// This file holds the persistent result sinks used by the artifact pipeline
// (internal/spec, `radiobfs run`): per-trial JSONL records and a rendered
// Markdown table, alongside the CSV/JSON/text writers in aggregate.go. All
// sinks write bytes that are a pure function of their inputs — results
// arrive in the Runner's canonical order and map keys are emitted sorted —
// so persisted artifacts diff cleanly across machines and worker counts.

// WriteTrialJSONL writes one JSON object per executed trial, in results
// order (the Runner's canonical order). Each line carries the trial's full
// coordinates — scenario, family, n, maxDist, trial index, derived seed —
// plus its metrics, so any single line, with the run's root seed for
// workloads that read Trial.Root, is enough to reproduce that trial in
// isolation with Execute.
func WriteTrialJSONL(w io.Writer, results []Result) error {
	for i := range results {
		b, err := json.Marshal(&results[i])
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// WriteMarkdown renders the summaries as GitHub-flavored Markdown: one table
// per scenario, one row per (cell, metric), mirroring WriteTable's layout.
func WriteMarkdown(w io.Writer, sums []Summary) {
	current := ""
	for _, s := range sums {
		if s.Scenario != current {
			if current != "" {
				fmt.Fprintln(w)
			}
			current = s.Scenario
			fmt.Fprintf(w, "### %s\n\n", mdEscape(s.Scenario))
			fmt.Fprintln(w, "| family | n | maxDist | trials | errors | metric | mean | stddev | min | p50 | p90 | max |")
			fmt.Fprintln(w, "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |")
		}
		if len(s.Metrics) == 0 {
			fmt.Fprintf(w, "| %s | %d | %d | %d | %d | - | - | - | - | - | - | - |\n",
				mdEscape(s.Family), s.N, s.MaxDist, s.Trials, s.Errors)
			continue
		}
		for _, name := range sortedAggNames(s.Metrics) {
			a := s.Metrics[name]
			fmt.Fprintf(w, "| %s | %d | %d | %d | %d | %s | %g | %g | %g | %g | %g | %g |\n",
				mdEscape(s.Family), s.N, s.MaxDist, s.Trials, s.Errors,
				mdEscape(name), a.Mean, a.Stddev, a.Min, a.P50, a.P90, a.Max)
		}
	}
	if current != "" {
		fmt.Fprintln(w)
	}
}

// mdEscape neutralizes the characters that would break a Markdown table cell.
func mdEscape(s string) string {
	s = strings.ReplaceAll(s, "|", `\|`)
	return strings.ReplaceAll(s, "\n", " ")
}

// FilterMetrics returns summaries restricted to the named metrics, in the
// given order of preference for presentation sinks that honor it (the
// aggregate maps stay name-keyed; CSV/Markdown render keys sorted). Cells
// lacking every named metric keep an empty metric map. An empty columns list
// returns the input unchanged.
func FilterMetrics(sums []Summary, columns []string) []Summary {
	if len(columns) == 0 {
		return sums
	}
	out := make([]Summary, len(sums))
	for i, s := range sums {
		f := s
		f.Metrics = make(map[string]Agg, len(columns))
		for _, name := range columns {
			if a, ok := s.Metrics[name]; ok {
				f.Metrics[name] = a
			}
		}
		out[i] = f
	}
	return out
}
