package spec

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/harness"
)

// Output is one executed spec file: the per-trial results in the Runner's
// canonical order and their aggregation, plus the coordinates (file, root
// seed) needed to reproduce or persist them.
type Output struct {
	File *File
	Root uint64
	// Quick records whether the scenarios' reduced-size overlays were
	// applied, so the manifest reflects the grid that actually ran.
	Quick     bool
	Results   []harness.Result
	Summaries []harness.Summary
}

// ExecuteFile compiles and runs a spec file on the pooled parallel runner.
// root overrides the file's seed policy when non-zero. The output — and
// every artifact written from it — is byte-identical at any worker count,
// because it inherits the harness's per-trial seed derivation.
func ExecuteFile(f *File, workers int, root uint64, opts Options) (*Output, error) {
	scs, err := Compile(f, opts)
	if err != nil {
		return nil, err
	}
	if root == 0 {
		root = f.RootSeed()
	}
	runner := harness.Runner{Workers: workers, Root: root, OnTrial: opts.OnTrial}
	results := runner.Run(scs...)
	return &Output{File: f, Root: root, Quick: opts.Quick, Results: results, Summaries: harness.Aggregate(results)}, nil
}

// Errors counts failed trials.
func (o *Output) Errors() int {
	n := 0
	for i := range o.Results {
		if o.Results[i].Err != "" {
			n++
		}
	}
	return n
}

// Artifact file names within an experiment's directory.
const (
	TrialsArtifact   = "trials.jsonl"
	CSVArtifact      = "aggregate.csv"
	MarkdownArtifact = "aggregate.md"
	ManifestArtifact = "manifest.json"
)

// Manifest describes one persisted experiment run. Every field is a pure
// function of the spec, the root seed, and the build (CodeVersion) — no
// timestamps, host names, or worker counts — so one binary re-running a
// spec rewrites the directory byte-identically, while a different build
// stamps itself visibly (and, in the serving layer's cache, keys itself
// into fresh entries instead of impersonating old ones).
type Manifest struct {
	Name        string             `json:"name"`
	Doc         string             `json:"doc,omitempty"`
	RootSeed    uint64             `json:"rootSeed"`
	CodeVersion string             `json:"codeVersion"`
	Scenarios   []ManifestScenario `json:"scenarios"`
	Trials      int                `json:"trials"`
	Errors      int                `json:"errors"`
	Columns     []string           `json:"columns,omitempty"`
	Artifacts   []string           `json:"artifacts"`
}

// ManifestScenario summarizes one scenario of the run.
type ManifestScenario struct {
	Name      string `json:"name"`
	Algorithm string `json:"algorithm,omitempty"`
	Custom    string `json:"custom,omitempty"`
	Cost      string `json:"cost,omitempty"`
	Instances int    `json:"instances"`
	Trials    int    `json:"trials"`
}

// WriteArtifacts persists the run under dir/<file name>/: per-trial JSONL,
// aggregated CSV and Markdown (restricted to File.Columns when set), and the
// manifest. It returns the experiment directory. Existing artifacts are
// overwritten — a deterministic run writes the same bytes anyway.
func (o *Output) WriteArtifacts(dir string) (string, error) {
	expDir := filepath.Join(dir, o.File.Name)
	if err := os.MkdirAll(expDir, 0o755); err != nil {
		return "", err
	}
	sums := harness.FilterMetrics(o.Summaries, o.File.Columns)
	writers := []struct {
		name  string
		write func(io.Writer) error
	}{
		{TrialsArtifact, func(w io.Writer) error { return harness.WriteTrialJSONL(w, o.Results) }},
		{CSVArtifact, func(w io.Writer) error { harness.WriteCSV(w, sums); return nil }},
		{MarkdownArtifact, func(w io.Writer) error { o.writeMarkdownDoc(w, sums); return nil }},
		{ManifestArtifact, o.writeManifest},
	}
	for _, art := range writers {
		if err := writeFileAtomicish(filepath.Join(expDir, art.name), art.write); err != nil {
			return "", err
		}
	}
	return expDir, nil
}

// writeMarkdownDoc renders the Markdown artifact: a header identifying the
// run, then one table per scenario.
func (o *Output) writeMarkdownDoc(w io.Writer, sums []harness.Summary) {
	fmt.Fprintf(w, "# %s\n\n", o.File.Name)
	if o.File.Doc != "" {
		fmt.Fprintf(w, "%s\n\n", o.File.Doc)
	}
	fmt.Fprintf(w, "Root seed %d; %d trials, %d errors. Regenerate with `radiobfs run` — output is byte-identical at any worker count.\n\n",
		o.Root, len(o.Results), o.Errors())
	harness.WriteMarkdown(w, sums)
}

func (o *Output) writeManifest(w io.Writer) error {
	m := Manifest{
		Name:        o.File.Name,
		Doc:         o.File.Doc,
		RootSeed:    o.Root,
		CodeVersion: CodeVersion(),
		Trials:      len(o.Results),
		Errors:      o.Errors(),
		Columns:     o.File.Columns,
		Artifacts: []string{
			TrialsArtifact, CSVArtifact, MarkdownArtifact, ManifestArtifact,
		},
	}
	for i := range o.File.Scenarios {
		sc := &o.File.Scenarios[i]
		trials := sc.trialCount(o.Quick)
		if trials < 1 {
			trials = 1 // the harness default (Scenario.TrialCount)
		}
		m.Scenarios = append(m.Scenarios, ManifestScenario{
			Name:      sc.Name,
			Algorithm: sc.Algorithm,
			Custom:    sc.Custom,
			Cost:      sc.Cost,
			Instances: len(sc.expandInstances(o.Quick)),
			Trials:    trials,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&m)
}

// writeFileAtomicish writes through a buffered writer and reports close
// errors, so a partially written artifact cannot be mistaken for a result.
func writeFileAtomicish(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
