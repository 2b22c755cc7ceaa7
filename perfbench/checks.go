package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"repro/internal/harness"
	"repro/internal/spec"
)

// pinnedDigests maps workload → root seed → SHA-256 of the op's
// trials.jsonl followed by its aggregate.csv. manifest.json is never hashed:
// it stamps the build's VCS revision. Regenerate with -update-digests.
//
//go:embed digests.json
var pinnedDigests []byte

func loadDigests(cfg config) (map[string]map[string]string, error) {
	if cfg.digests != nil {
		return cfg.digests, nil
	}
	var d map[string]map[string]string
	if err := json.Unmarshal(pinnedDigests, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// artifactDigest hashes trials.jsonl followed by aggregate.csv.
func artifactDigest(dir string) (string, error) {
	h := sha256.New()
	for _, name := range []string{spec.TrialsArtifact, spec.CSVArtifact} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkClaims asserts the claims the program's own results carry: no trial
// failed; Recursive-BFS labels equal the reference BFS under unit cost
// (Theorem 4.1's exact labels); gradient verification finds no violation;
// the 2-approximate diameter lands in [diam/2, diam]; polling delivers to
// every vertex.
func checkClaims(f *spec.File, results []harness.Result) error {
	byName := make(map[string]*spec.Scenario, len(f.Scenarios))
	for i := range f.Scenarios {
		byName[f.Scenarios[i].Name] = &f.Scenarios[i]
	}
	for _, r := range results {
		where := fmt.Sprintf("%s/%s/n=%d#%d", r.Scenario, r.Family, r.N, r.Index)
		if r.Err != "" {
			return fmt.Errorf("%s: trial error: %s", where, r.Err)
		}
		sc := byName[r.Scenario]
		if sc == nil {
			return fmt.Errorf("%s: result of an unknown scenario", where)
		}
		var key string
		var want float64
		switch {
		case sc.Algorithm == "recursive" && sc.Cost != "physical":
			key, want = "mislabeled", 0
		case sc.Algorithm == "verify":
			key, want = "violations", 0
		case sc.Algorithm == "diam2":
			key, want = "inBand", 1
		case sc.Algorithm == "poll":
			key, want = "delivered", 1
		default:
			continue
		}
		if got, ok := r.Metrics[key]; !ok || got != want {
			return fmt.Errorf("%s: claim check %s = %v, want %v", where, key, r.Get(key), want)
		}
	}
	return nil
}

// updateDigests re-pins every pool seed of both in-process workloads.
func updateDigests(cfg config, path string, stdout io.Writer) error {
	all := map[string]map[string]string{}
	for _, wl := range []struct {
		name string
		in   inputs
		pool []uint64
	}{
		{"paper-grid", paperGridInputs(cfg.seed), rootPool("paper-grid", paperGridPool)},
		{"scale-physics", scalePhysicsInputs(cfg.seed), rootPool("scale-physics", scalePool)},
	} {
		all[wl.name] = map[string]string{}
		w, err := openInproc(cfg, wl.name, wl.in, runtime.NumCPU())
		if err != nil {
			return err
		}
		for _, root := range wl.pool {
			out, _, err := w.execute(root)
			if err == nil {
				err = checkClaims(w.file, out.Results)
			}
			if err != nil {
				w.close()
				return fmt.Errorf("%s root seed %d: %w", wl.name, root, err)
			}
			sum, err := artifactDigest(filepath.Join(w.dir, out.File.Name))
			if err != nil {
				w.close()
				return err
			}
			all[wl.name][strconv.FormatUint(root, 10)] = sum
			fmt.Fprintf(stdout, "%s %d %s\n", wl.name, root, sum)
		}
		if err := w.close(); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
