package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/journal"
	"repro/internal/spec"
)

// TestJournalRequeuesUnfinishedJobs is the serve half of the durability
// tentpole: a job the server said 202 to survives the server. The "crash"
// is an executor goroutine that dies (runtime.Goexit) after the job enters
// running — the journal then holds an admission with no terminal state, and
// a second server over the same store must requeue it under its original ID
// and run it to completion.
func TestJournalRequeuesUnfinishedJobs(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	crashed := make(chan struct{})
	s1, err := New(Config{Store: store, Workers: 2, Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	s1.beforeRun = func(*Job) {
		close(crashed)
		runtime.Goexit() // the executor dies mid-job; no terminal record is journaled
	}
	ts1 := httptest.NewServer(s1.Handler())
	code, st, body := submit(t, ts1, tinySpec, "", nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	<-crashed
	ts1.Close() // s1 is deliberately never Closed: Close would journal a clean cancel

	s2, err := New(Config{Store: store, Workers: 2, Heartbeat: time.Hour})
	if err != nil {
		t.Fatalf("restart over journaled store: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })

	final := waitTerminal(t, ts2, st.ID)
	if final.State != StateDone {
		t.Fatalf("recovered job %s finished %s (%s)", st.ID, final.State, final.Error)
	}
	if final.ID != st.ID {
		t.Errorf("recovered job changed ID: %s != %s", final.ID, st.ID)
	}
	stats := getStats(t, ts2)
	if stats.Recovered != 1 || stats.Executions != 1 {
		t.Errorf("stats after recovery = %+v; want recovered 1, executions 1", stats)
	}
	// The recovered job's artifacts are served like any other completed job's.
	resp, err := http.Get(ts2.URL + "/v1/artifacts/" + final.Key + "/" + spec.ManifestArtifact)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch after recovery: %v, %v", err, resp)
	}
	resp.Body.Close()
	// And a re-submission of the same spec is now a cache hit, not a rerun.
	code, st2, _ := submit(t, ts2, tinySpec, "", nil)
	if code != http.StatusOK || !st2.CacheHit {
		t.Errorf("resubmission after recovery: code %d, cacheHit %v; want 200 cache hit", code, st2.CacheHit)
	}
}

// panicAlgo is a test-only registry entry whose every run panics.
type panicAlgo struct{}

func (panicAlgo) Name() string              { return "panic-test" }
func (panicAlgo) Doc() string               { return "test-only entry whose every run panics" }
func (panicAlgo) Params() []repro.ParamSpec { return nil }
func (panicAlgo) Run(context.Context, *repro.Network, repro.Request) (*repro.Result, error) {
	panic("injected trial panic")
}
func (panicAlgo) Check(*repro.Network, repro.Request, *repro.Result) {}

// registerPanic guards the process-global registry: Register panics on
// duplicates, so -count=2 must not re-register.
var registerPanic sync.Once

const panicSpec = `{
  "name": "srv-panic",
  "seed": 9,
  "scenarios": [
    {"name": "srv-boom", "algorithm": "panic-test", "trials": 2,
     "instances": [{"family": "cycle", "n": 12}]},
    {"name": "srv-recursive", "algorithm": "recursive", "trials": 1,
     "instances": [{"family": "grid", "n": 16}]}
  ]
}`

// TestJournalTrialPanicSettlesJob: a panicking trial fails alone. Its job
// reaches done with the panics counted as trial errors, the daemon keeps
// answering, and a restart over the same store requeues nothing — the
// journal holds the job's terminal record, not a job to replay.
func TestJournalTrialPanicSettlesJob(t *testing.T) {
	registerPanic.Do(func() { repro.Register(panicAlgo{}) })
	store := filepath.Join(t.TempDir(), "store")
	s1, err := New(Config{Store: store, Workers: 2, Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	code, st, body := submit(t, ts1, panicSpec, "", nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	final := waitTerminal(t, ts1, st.ID)
	if final.State != StateDone || final.Done != 3 || final.Errors != 2 {
		t.Fatalf("panicking job settled as %+v; want done, 3 trials, 2 errors", final)
	}
	if stats := getStats(t, ts1); stats.Done != 1 || stats.Executions != 1 {
		t.Errorf("stats after the panicking job = %+v; want done 1, executions 1", stats)
	}
	ts1.Close()
	s1.Close()

	s2, err := New(Config{Store: store, Workers: 2, Heartbeat: time.Hour})
	if err != nil {
		t.Fatalf("restart over the store: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	if stats := getStats(t, ts2); stats.Recovered != 0 || stats.Executions != 0 {
		t.Errorf("stats after restart = %+v; want recovered 0, executions 0", stats)
	}
}

// TestJournalRecoversCachedJobAsDone: a crash in the window between the
// artifact commit and the terminal journal record leaves an "unfinished"
// job whose results already exist. Recovery must answer it from the cache
// instead of re-executing.
func TestJournalRecoversCachedJobAsDone(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	s1, err := New(Config{Store: store, Workers: 2, Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	code, st, body := submit(t, ts1, tinySpec, "", nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	waitTerminal(t, ts1, st.ID)
	ts1.Close()
	s1.Close()

	// Forge the crash residue: an admission record for the same spec with no
	// terminal state, appended straight to the journal.
	f, err := spec.Parse(strings.NewReader(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(jobRecord{Op: "submit", ID: "j99", SpecDoc: raw,
		Root: st.RootSeed, Key: st.Key, Client: "forger"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(store, jobsJournalFile)
	jn, err := journal.Recover(path, nil, nil, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Append(rec); err != nil {
		t.Fatal(err)
	}
	jn.Close()

	s2, err := New(Config{Store: store, Workers: 2, Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	got := getStatus(t, ts2, "j99")
	if got.State != StateDone || !got.CacheHit {
		t.Fatalf("forged job recovered as %+v; want done from cache", got)
	}
	stats := getStats(t, ts2)
	if stats.RecoveredCached != 1 || stats.Executions != 0 {
		t.Errorf("stats = %+v; want recoveredCached 1, executions 0", stats)
	}
	// IDs keep counting past everything the journal has seen: the next
	// admission must not collide with the forged j99.
	code, st3, body := submit(t, ts2, strings.Replace(tinySpec, `"seed": 9`, `"seed": 10`, 1), "", nil)
	if code != http.StatusAccepted {
		t.Fatalf("fresh submit = %d: %s", code, body)
	}
	if st3.ID != "j100" {
		t.Errorf("post-recovery ID = %s; want j100", st3.ID)
	}
}

// TestJournalCorruptionRefusal: interior damage in the job journal is a
// typed startup error, not a silent loss of accepted work.
func TestJournalCorruptionRefusal(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	s1, err := New(Config{Store: store, Workers: 2, Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	path := filepath.Join(store, jobsJournalFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // damage the header frame: no identity, no recovery
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Store: store, Workers: 2, Heartbeat: time.Hour}); !journal.IsCorrupt(err) {
		t.Fatalf("New over corrupt journal: err = %v, want journal corruption", err)
	}
}

// TestJournalCompaction: terminal jobs do not accumulate in the journal —
// each restart rewrites it down to the surviving admissions.
func TestJournalCompaction(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	s1, err := New(Config{Store: store, Workers: 2, Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	code, st, body := submit(t, ts1, tinySpec, "", nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	waitTerminal(t, ts1, st.ID)
	ts1.Close()
	s1.Close()

	s2, err := New(Config{Store: store, Workers: 2, Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	records := 0
	jn, err := journal.Recover(filepath.Join(store, jobsJournalFile), nil,
		func([]byte) error { records++; return nil }, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jn.Close()
	if records != 0 {
		t.Errorf("journal holds %d records after a restart with no unfinished jobs; want 0", records)
	}
}
