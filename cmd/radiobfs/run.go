package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/progress"
	"repro/internal/spec"
)

// runSpecs implements `radiobfs run <spec.json>...`: parse and validate each
// declarative scenario file, execute it — on the pooled in-process runner, or
// across worker processes under -dist — and persist its artifacts under the
// output directory. Everything written to stdout and to the artifact files is
// a pure function of the spec and the root seed: re-running at any -workers
// value, in-process or distributed, faulted or not, produces identical bytes.
// Every spec runs here, whether its scenarios name registry algorithms or
// the table workloads of internal/workloads (the instrumented E-series
// measurement code).
//
// SIGINT/SIGTERM cancels the shared context: in-flight trials settle at their
// next phase boundary, no partial artifacts are written, worker processes are
// killed and reaped (no orphans survive the interrupt), and the command exits
// non-zero. Under -checkpoint, journaled progress survives the interrupt and
// the next run against the same directory resumes from it.
func runSpecs(args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return execSpecs(ctx, args, os.Stdout, os.Stderr)
}

// execSpecs is runSpecs minus the signal plumbing, so interruption behavior
// is testable with a pre-canceled context.
func execSpecs(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	outDir := fs.String("out", "results", "artifact directory; each spec writes to <out>/<spec name>/")
	workers := fs.Int("workers", 0, "concurrent trials, or worker processes under -dist (0 = GOMAXPROCS, 1 = sequential)")
	seed := fs.Uint64("seed", 0, "root seed override (0 = each spec file's own seed policy)")
	quick := fs.Bool("quick", false, "apply the specs' reduced-size quick overlays")
	quiet := fs.Bool("quiet", false, "suppress the aggregated text table on stdout")
	distFlag := fs.Bool("dist", false, "execute each spec across -workers worker processes with lease-based fault-tolerant coordination; bytes are identical to in-process runs")
	chaosFlag := fs.String("chaos", "", "deterministic fault injection for -dist workers, as seed=S,killafter=K,stall=P,disconnect=D,delay=MS,corrupt=P,coordkill=K (implies -dist)")
	checkpointFlag := fs.String("checkpoint", "", "durable checkpoint directory (implies -dist): every acked trial is journaled to <dir>/<spec name>/ before it counts, and re-running with the same directory resumes instead of restarting")
	listenFlag := fs.String("listen", "", "host:port to accept remote workers on instead of spawning local worker processes (implies -dist; requires -token); `radiobfs work -connect <addr> -token T` dials in")
	tokenFlag := fs.String("token", "", "shared secret remote workers must prove during the handshake (required with -listen)")
	addrFile := fs.String("addrfile", "", "write the resolved listen address to this file once the listener is up (for -listen 127.0.0.1:0 in scripts)")
	connectWait := fs.Duration("connect-wait", 60*time.Second, "under -listen, how long to tolerate zero connected workers before finishing the sweep in-process")
	progressFlag := fs.Bool("progress", false, "log lease lifecycle events on stderr under -dist")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: radiobfs run [flags] <spec.json>...")
		fmt.Fprintln(fs.Output(), "Executes declarative scenario specs (see scenarios/ and README.md) and")
		fmt.Fprintln(fs.Output(), "persists JSONL/CSV/Markdown artifacts. Flags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		fs.Usage()
		return fmt.Errorf("no spec files given")
	}
	chaos, err := dist.ParseChaos(*chaosFlag)
	if err != nil {
		return err
	}
	distributed := *distFlag || chaos.Enabled() || *listenFlag != "" || *checkpointFlag != ""
	if *listenFlag != "" && *tokenFlag == "" {
		return fmt.Errorf("-listen requires -token: remote workers authenticate with a shared secret")
	}
	if *listenFlag == "" && *tokenFlag != "" {
		return fmt.Errorf("-token only makes sense with -listen")
	}
	if chaos.CoordKill > 0 && *checkpointFlag == "" {
		return fmt.Errorf("-chaos coordkill requires -checkpoint: killing the coordinator without a journal just loses the run")
	}

	// Parse and compile everything up front, so a bad last spec cannot waste
	// the first one's run.
	files := make([]*spec.File, 0, len(paths))
	for _, path := range paths {
		f, err := spec.ParseFile(path)
		if err != nil {
			return err
		}
		if _, err := spec.Compile(f, spec.Options{Quick: *quick}); err != nil {
			return err
		}
		files = append(files, f)
	}

	opts := spec.Options{Quick: *quick, Ctx: ctx}
	dcfg := dist.Config{Workers: *workers, Chaos: chaos, Log: stderr, ConnectWait: *connectWait}
	if *progressFlag {
		dcfg.Observer = leaseLogger{w: stderr}
	}
	if *listenFlag != "" {
		tr, err := dist.Listen(*listenFlag, dist.ListenConfig{Token: *tokenFlag, Log: stderr})
		if err != nil {
			return err
		}
		defer tr.Close()
		fmt.Fprintf(stderr, "dist: listening on %s\n", tr.Addr())
		if *addrFile != "" {
			// Written atomically (tmp + rename) so a polling script never
			// reads a half-written address.
			tmp := *addrFile + ".tmp"
			if err := os.WriteFile(tmp, []byte(tr.Addr().String()+"\n"), 0o644); err != nil {
				return err
			}
			if err := os.Rename(tmp, *addrFile); err != nil {
				return err
			}
		}
		dcfg.Transport = tr
	}

	failed := 0
	for i, f := range files {
		start := time.Now()
		var out *spec.Output
		var err error
		if distributed {
			cfg := dcfg
			if *checkpointFlag != "" {
				// One journal per spec, keyed by spec name, so multi-spec runs
				// resume each file independently.
				cfg.CheckpointDir = filepath.Join(*checkpointFlag, f.Name)
			}
			out, err = dist.Execute(f, *seed, opts, cfg)
		} else {
			out, err = spec.ExecuteFile(f, *workers, *seed, opts)
		}
		if err != nil {
			if ctx.Err() != nil {
				if *checkpointFlag != "" {
					return fmt.Errorf("interrupted (%w) — no artifacts written for %s; checkpointed progress is preserved, re-run with the same -checkpoint to resume", ctx.Err(), f.Name)
				}
				return fmt.Errorf("interrupted (%w) — no artifacts written for %s", ctx.Err(), f.Name)
			}
			return fmt.Errorf("%s: %w", paths[i], err)
		}
		// A canceled run settles its in-flight trials and stops; whatever it
		// produced is partial, so nothing may reach the artifact directory.
		if ctx.Err() != nil {
			if *checkpointFlag != "" {
				return fmt.Errorf("interrupted (%w) — no artifacts written for %s; checkpointed progress is preserved, re-run with the same -checkpoint to resume", ctx.Err(), f.Name)
			}
			return fmt.Errorf("interrupted (%w) — no artifacts written for %s", ctx.Err(), f.Name)
		}
		dir, err := out.WriteArtifacts(*outDir)
		if err != nil {
			return err
		}
		if !*quiet {
			harness.WriteTable(stdout, harness.FilterMetrics(out.Summaries, f.Columns))
		}
		for _, r := range out.Results {
			if r.Err != "" {
				failed++
				fmt.Fprintf(stderr, "trial %s/%s/n=%d#%d: %s\n", r.Scenario, r.Family, r.N, r.Index, r.Err)
			}
		}
		fmt.Fprintf(stderr, "run %s: %d trials, %d errors, seed %d, %v wall → %s\n",
			f.Name, len(out.Results), out.Errors(), out.Root, time.Since(start).Round(time.Millisecond), dir)
	}
	if failed > 0 {
		return fmt.Errorf("%d trials failed", failed)
	}
	return nil
}

// leaseLogger narrates lease lifecycle events on stderr for `run -dist
// -progress`. Event timing depends on scheduling, so this output never goes
// to stdout, which stays byte-deterministic.
type leaseLogger struct {
	w io.Writer
}

var _ progress.LeaseObserver = leaseLogger{}

func (l leaseLogger) LeaseGranted(lease, worker, start, end int) {
	fmt.Fprintf(l.w, "dist: lease %d [%d, %d) → worker %d\n", lease, start, end, worker)
}

func (l leaseLogger) LeaseDone(lease int) {
	fmt.Fprintf(l.w, "dist: lease %d done\n", lease)
}

func (l leaseLogger) LeaseRevoked(lease, worker int, reason string) {
	fmt.Fprintf(l.w, "dist: lease %d revoked from worker %d: %s\n", lease, worker, reason)
}

func (l leaseLogger) WorkerStarted(worker int) {
	fmt.Fprintf(l.w, "dist: worker %d ready\n", worker)
}

func (l leaseLogger) WorkerExited(worker int, reason string) {
	fmt.Fprintf(l.w, "dist: worker %d exited: %s\n", worker, reason)
}
