package dist

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/progress"
	"repro/internal/spec"
	"repro/scenarios"
)

// TestMain doubles as the worker binary: the coordinator under test spawns
// this same test executable with a mode argument, so the end-to-end tests
// exercise real fork/exec, pipes, kills, and reaping without building
// cmd/radiobfs.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "dist-worker":
			if err := ServeWorker(os.Stdin, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			os.Exit(0)
		case "dist-flaky-worker":
			// Accepts the hello, claims readiness, then dies without doing
			// any work: the pure no-progress failure mode.
			fr := NewFrameReader(os.Stdin)
			fw := NewFrameWriter(os.Stdout)
			if _, err := fr.Read(); err != nil {
				os.Exit(1)
			}
			_ = fw.Write(&Message{Kind: KindReady})
			_, _ = fr.Read() // wait for the lease so the failure revokes one
			os.Exit(1)
		case "dist-remote-worker":
			// TCP worker: dials os.Args[2] with token os.Args[3] and serves
			// until the coordinator's clean shutdown, like `radiobfs work
			// -connect addr -token T`.
			if len(os.Args) < 4 {
				fmt.Fprintln(os.Stderr, "dist-remote-worker needs addr and token")
				os.Exit(2)
			}
			err := RemoteWorker{
				Addr:        os.Args[2],
				Token:       os.Args[3],
				Retries:     3,
				BackoffBase: time.Millisecond,
				BackoffMax:  50 * time.Millisecond,
				Log:         os.Stderr,
			}.Run()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			os.Exit(0)
		case "dist-evil-worker":
			// Reports a result whose seed does not match the coordinator's
			// trial list — the version-skew signal Execute must refuse.
			fr := NewFrameReader(os.Stdin)
			fw := NewFrameWriter(os.Stdout)
			if _, err := fr.Read(); err != nil {
				os.Exit(1)
			}
			_ = fw.Write(&Message{Kind: KindReady})
			m, err := fr.Read()
			if err != nil || m.Kind != KindLease {
				os.Exit(1)
			}
			_ = fw.Write(&Message{Kind: KindResult, LeaseID: m.Lease.ID,
				Slot: m.Lease.Start, Seed: 12345, Metrics: map[string]float64{"ok": 1}})
			_, _ = fr.Read()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

func workerCommand(t *testing.T, mode string) []string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	return []string{exe, mode}
}

// testFileTrials is testFile's trial count.
const testFileTrials = 14

// testFile is a small but multi-scenario spec: 14 trials across two
// scenarios and two instance shapes, enough slots for several leases per
// worker and for re-leases after faults.
func testFile() *spec.File {
	return &spec.File{
		Name: "disttest",
		Seed: 5,
		Scenarios: []spec.Scenario{
			{
				Name:      "ring",
				Algorithm: "recursive",
				Trials:    4,
				Instances: []harness.Instance{
					{Family: "cycle", N: 48, MaxDist: 12},
					{Family: "grid", N: 49, MaxDist: 8},
				},
			},
			{
				Name:      "diam",
				Algorithm: "diam2",
				Trials:    6,
				Instances: []harness.Instance{{Family: "star", N: 40}},
			},
		},
	}
}

// artifactBytes renders the full artifact surface of an Output — trial
// JSONL, aggregate CSV — so tests compare exactly what `radiobfs run`
// persists.
func artifactBytes(t *testing.T, out *spec.Output) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := harness.WriteTrialJSONL(&buf, out.Results); err != nil {
		t.Fatalf("trial JSONL: %v", err)
	}
	harness.WriteCSV(&buf, out.Summaries)
	return buf.Bytes()
}

// baseline runs the spec on the ordinary in-process runner.
func baseline(t *testing.T, f *spec.File) []byte {
	t.Helper()
	out, err := spec.ExecuteFile(f, 0, 0, spec.Options{})
	if err != nil {
		t.Fatalf("in-process baseline: %v", err)
	}
	return artifactBytes(t, out)
}

// TestExecuteMatchesInProcess: a fault-free sweep over pipe workers merges
// artifacts byte-identical to the in-process runner's and runs every lease
// exactly once.
func TestExecuteMatchesInProcess(t *testing.T) {
	f := testFile()
	want := baseline(t, f)
	for _, workers := range []int{1, 3} {
		var log bytes.Buffer
		rec := &leaseRecorder{}
		out, err := Execute(f, 0, spec.Options{}, Config{
			Workers:  workers,
			Command:  workerCommand(t, "dist-worker"),
			Log:      &log,
			Observer: rec,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v\nlog: %s", workers, err, log.Bytes())
		}
		if got := artifactBytes(t, out); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: distributed artifacts differ from in-process run\ngot:\n%s\nwant:\n%s", workers, got, want)
		}
		rec.checkOneGrantEach(t, testFileTrials)
	}
}

// TestChaosByteIdentity is the property test: across chaos seeds — each a
// different deterministic schedule of worker crashes and stalls — the merged
// artifacts never change by a byte.
func TestChaosByteIdentity(t *testing.T) {
	f := testFile()
	want := baseline(t, f)
	for seed := uint64(1); seed <= 5; seed++ {
		var log bytes.Buffer
		out, err := Execute(f, 0, spec.Options{}, Config{
			Workers:          3,
			LeaseSize:        3,
			Command:          workerCommand(t, "dist-worker"),
			Chaos:            ChaosSpec{Seed: seed, KillAfter: 2, StallPct: 20},
			Heartbeat:        20 * time.Millisecond,
			HeartbeatTimeout: 200 * time.Millisecond,
			BackoffBase:      time.Millisecond,
			Log:              &log,
		})
		if err != nil {
			t.Fatalf("chaos seed %d: %v\nlog: %s", seed, err, log.Bytes())
		}
		if got := artifactBytes(t, out); !bytes.Equal(got, want) {
			t.Errorf("chaos seed %d: artifacts differ from unfaulted run\nlog: %s", seed, log.Bytes())
		}
	}
}

// leaseRecorder counts lease lifecycle events (the coordinator emits them
// from its single event loop, but record defensively anyway).
type leaseRecorder struct {
	mu       sync.Mutex
	granted  map[int]int // lease id → grant count
	slots    int         // slots covered by all grants, skips included
	revoked  int
	exited   int
	started  int
	done     int
	revokeRe []string
}

func (r *leaseRecorder) LeaseGranted(lease, worker, start, end int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.granted == nil {
		r.granted = map[int]int{}
	}
	r.granted[lease]++
	r.slots += end - start
}

// checkOneGrantEach asserts the one-holder rule on a fault-free run: every
// lease was granted exactly once, so the granted slots sum to the trial
// count.
func (r *leaseRecorder) checkOneGrantEach(t *testing.T, trials int) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, n := range r.granted {
		if n != 1 {
			t.Errorf("lease %d granted %d times, want once", id, n)
		}
	}
	if r.slots != trials {
		t.Errorf("granted slots sum to %d, want the %d trials; grants = %v", r.slots, trials, r.granted)
	}
}
func (r *leaseRecorder) LeaseDone(lease int) { r.mu.Lock(); r.done++; r.mu.Unlock() }
func (r *leaseRecorder) LeaseRevoked(lease, worker int, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.revoked++
	r.revokeRe = append(r.revokeRe, reason)
}
func (r *leaseRecorder) WorkerStarted(worker int) { r.mu.Lock(); r.started++; r.mu.Unlock() }
func (r *leaseRecorder) WorkerExited(worker int, reason string) {
	r.mu.Lock()
	r.exited++
	r.mu.Unlock()
}

var _ progress.LeaseObserver = (*leaseRecorder)(nil)

// TestStallRevocationAndReLease forces every incarnation to stall mid-lease:
// the coordinator must detect each by heartbeat loss, revoke and re-lease
// the remainder, and still merge byte-identical artifacts. Completed trials
// of a revoked lease must not rerun — the re-lease carries them as skips —
// which the grant/ack arithmetic below checks.
func TestStallRevocationAndReLease(t *testing.T) {
	f := testFile()
	want := baseline(t, f)
	rec := &leaseRecorder{}
	var log bytes.Buffer
	out, err := Execute(f, 0, spec.Options{}, Config{
		Workers:          2,
		LeaseSize:        7,
		Command:          workerCommand(t, "dist-worker"),
		Chaos:            ChaosSpec{Seed: 3, KillAfter: 2, StallPct: 100},
		Heartbeat:        15 * time.Millisecond,
		HeartbeatTimeout: 150 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		Log:              &log,
		Observer:         rec,
	})
	if err != nil {
		t.Fatalf("Execute: %v\nlog: %s", err, log.Bytes())
	}
	if got := artifactBytes(t, out); !bytes.Equal(got, want) {
		t.Errorf("artifacts differ from unfaulted run\nlog: %s", log.Bytes())
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.revoked == 0 {
		t.Errorf("100%% stall chaos produced no lease revocations\nlog: %s", log.Bytes())
	}
	hb := 0
	for _, reason := range rec.revokeRe {
		if strings.Contains(reason, "heartbeat") {
			hb++
		}
	}
	if hb == 0 {
		t.Errorf("no revocation mentioned a heartbeat timeout: %q", rec.revokeRe)
	}
	regranted := 0
	for _, n := range rec.granted {
		if n > 1 {
			regranted++
		}
	}
	if regranted == 0 {
		t.Errorf("stalled leases were never re-granted; grants = %v", rec.granted)
	}
}

// TestNoSpawnFallsBackInProcess: when no worker can be spawned at all, the
// sweep must still complete in-process with identical bytes and a warning.
func TestNoSpawnFallsBackInProcess(t *testing.T) {
	f := testFile()
	want := baseline(t, f)
	var log bytes.Buffer
	out, err := Execute(f, 0, spec.Options{}, Config{
		Workers: 3,
		Command: []string{"/nonexistent/radiobfs-worker-binary"},
		Log:     &log,
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if got := artifactBytes(t, out); !bytes.Equal(got, want) {
		t.Error("fallback artifacts differ from in-process run")
	}
	if !strings.Contains(log.String(), "no worker process could be spawned") {
		t.Errorf("missing degradation warning; log: %s", log.String())
	}
}

// TestFlakyWorkersExhaustRetryBudget: workers that join and die without ever
// completing a trial must burn the retry budget and hand their leases to the
// coordinator's own in-process lane — the sweep completes, bytes intact.
func TestFlakyWorkersExhaustRetryBudget(t *testing.T) {
	f := testFile()
	want := baseline(t, f)
	var log bytes.Buffer
	out, err := Execute(f, 0, spec.Options{}, Config{
		Workers:     2,
		RetryBudget: 2,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		Command:     workerCommand(t, "dist-flaky-worker"),
		Log:         &log,
	})
	if err != nil {
		t.Fatalf("Execute: %v\nlog: %s", err, log.Bytes())
	}
	if got := artifactBytes(t, out); !bytes.Equal(got, want) {
		t.Error("retry-exhausted artifacts differ from in-process run")
	}
	if !strings.Contains(log.String(), "in-process") {
		t.Errorf("expected an in-process takeover warning; log: %s", log.String())
	}
}

// TestSeedSkewRejected: a worker whose trial expansion disagrees with the
// coordinator's (wrong seed echo) must abort the run, not merge bad data.
func TestSeedSkewRejected(t *testing.T) {
	f := testFile()
	var log bytes.Buffer
	_, err := Execute(f, 0, spec.Options{}, Config{
		Workers: 1,
		Command: workerCommand(t, "dist-evil-worker"),
		Log:     &log,
	})
	if err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("Execute = %v, want seed-skew error", err)
	}
}

// TestCustomWorkloadDistributed: a spec of table workloads crosses the
// process boundary like a registry spec. The E3 clustering workload draws
// its graphs from the run's root seed, so a worker that lost the root would
// cluster different graphs; under seeded kills the merged artifacts must
// still equal the in-process run's byte for byte.
func TestCustomWorkloadDistributed(t *testing.T) {
	f, err := scenarios.Load("e3_clustering.json")
	if err != nil {
		t.Fatal(err)
	}
	opts := spec.Options{Quick: true}
	const root = 7
	direct, err := spec.ExecuteFile(f, 2, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := direct.Errors(); n != 0 {
		t.Fatalf("%d trials failed in-process", n)
	}
	want := artifactBytes(t, direct)
	var log bytes.Buffer
	out, err := Execute(f, root, opts, Config{
		Workers:     3,
		LeaseSize:   2,
		Command:     workerCommand(t, "dist-worker"),
		Chaos:       ChaosSpec{Seed: 3, KillAfter: 1},
		BackoffBase: time.Millisecond,
		Log:         &log,
	})
	if err != nil {
		t.Fatalf("Execute: %v\nlog: %s", err, log.Bytes())
	}
	if got := artifactBytes(t, out); !bytes.Equal(got, want) {
		t.Errorf("distributed custom-workload artifacts differ from in-process run\ngot:\n%s\nwant:\n%s\nlog: %s", got, want, log.Bytes())
	}
}
