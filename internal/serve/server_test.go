package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
)

const tinySpec = `{
  "name": "srv",
  "seed": 9,
  "scenarios": [
    {"name": "srv-recursive", "algorithm": "recursive", "trials": 2,
     "instances": [{"family": "grid", "n": 16}]},
    {"name": "srv-poll", "algorithm": "poll", "params": {"period": 3},
     "instances": [{"family": "cycle", "n": 12}]}
  ]
}`

// newTestServer builds a Server over a temp store plus an httptest front
// end; mutate lets tests tighten admission knobs before startup.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Store: filepath.Join(t.TempDir(), "store"), Workers: 2, Heartbeat: time.Hour}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// submit POSTs a spec document and decodes the response.
func submit(t *testing.T, ts *httptest.Server, doc, query string, hdr map[string]string) (int, JobStatus, string) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs"+query, strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
	}
	return resp.StatusCode, st, string(body)
}

// getStatus fetches one job's status.
func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls a job until it settles.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

type sseEvent struct {
	id    int
	typ   string
	event Event
}

// readSSE consumes a job's event stream (optionally resuming after lastID)
// until the log closes, returning every event frame.
func readSSE(t *testing.T, ts *httptest.Server, id string, lastID int) []sseEvent {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(lastID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.typ != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.id)
		case strings.HasPrefix(line, "event: "):
			cur.typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.event); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
		}
	}
	return out
}

func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeEndToEnd is the subsystem's acceptance test in miniature:
// submit → SSE narration → artifacts byte-identical to a direct run →
// resubmission is a cache hit without re-execution.
func TestServeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, nil)

	// Direct execution through the exact code path `radiobfs run` uses.
	f := parseSpec(t, tinySpec)
	out, err := spec.ExecuteFile(f, 3, 0, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	directDir, err := out.WriteArtifacts(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	code, st, body := submit(t, ts, tinySpec, "", nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	if st.CacheHit || st.State.Terminal() {
		t.Fatalf("fresh submit reported %+v", st)
	}
	if st.Trials != 3 {
		t.Fatalf("expanded %d trials, want 3", st.Trials)
	}

	events := readSSE(t, ts, st.ID, 0)
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone || final.Errors != 0 || final.Done != 3 {
		t.Fatalf("final status %+v", final)
	}
	if len(final.Artifacts) != 4 {
		t.Fatalf("artifacts %v", final.Artifacts)
	}

	// Event stream: contiguous ids, every event tagged with the job,
	// queued → started → 3 trials → complete(done).
	counts := map[string]int{}
	for i, e := range events {
		if e.id != i+1 {
			t.Fatalf("event %d has id %d", i, e.id)
		}
		if e.event.Job != st.ID {
			t.Fatalf("event %+v misfiled (job %s)", e, st.ID)
		}
		counts[e.typ]++
	}
	if counts["queued"] != 1 || counts["started"] != 1 || counts["trial"] != 3 || counts["complete"] != 1 {
		t.Fatalf("event counts %v", counts)
	}
	if last := events[len(events)-1]; last.typ != "complete" || last.event.State != string(StateDone) {
		t.Fatalf("last event %+v", last)
	}

	// Artifacts: byte-identical to the direct run.
	checkServedArtifacts(t, ts, final, directDir)

	// Resubmit: cache hit, no new execution, same key, fresh job id.
	code, hit, body := submit(t, ts, tinySpec, "", nil)
	if code != http.StatusOK {
		t.Fatalf("resubmit = %d: %s", code, body)
	}
	if !hit.CacheHit || hit.State != StateDone || hit.Key != st.Key || hit.ID == st.ID {
		t.Fatalf("resubmit status %+v (first %+v)", hit, st)
	}
	if len(hit.Artifacts) != 4 {
		t.Fatalf("cache-hit artifacts %v", hit.Artifacts)
	}
	// A cache-hit job's event stream replays a single complete event.
	hitEvents := readSSE(t, ts, hit.ID, 0)
	if len(hitEvents) != 1 || hitEvents[0].typ != "complete" || !hitEvents[0].event.CacheHit {
		t.Fatalf("cache-hit events %+v", hitEvents)
	}

	// A different seed is a different key and a real execution.
	code, reseeded, body := submit(t, ts, tinySpec, "?seed=77", nil)
	if code != http.StatusAccepted {
		t.Fatalf("reseeded submit = %d: %s", code, body)
	}
	if reseeded.Key == st.Key || reseeded.RootSeed != 77 {
		t.Fatalf("reseeded status %+v", reseeded)
	}
	waitTerminal(t, ts, reseeded.ID)

	stats := getStats(t, ts)
	if stats.Executions != 2 || stats.CacheHits != 1 {
		t.Fatalf("stats %+v; want 2 executions, 1 cache hit", stats)
	}
}

// checkServedArtifacts fetches a finished job's artifacts and requires each
// to equal the file of the same name in directDir.
func checkServedArtifacts(t *testing.T, ts *httptest.Server, final JobStatus, directDir string) {
	t.Helper()
	for i, name := range ArtifactNames() {
		want, err := os.ReadFile(filepath.Join(directDir, name))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + final.Artifacts[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", final.Artifacts[i], resp.StatusCode)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: served bytes differ from `radiobfs run` bytes", name)
		}
	}
}

// TestSubmitCustomWorkload: a spec naming table workloads runs as a job,
// and its artifacts equal a direct run's.
func TestSubmitCustomWorkload(t *testing.T) {
	const doc = `{
  "name": "srv-custom",
  "seed": 4,
  "scenarios": [
    {"name": "probe", "custom": "e10/budgeted-probe", "args": {"budget": 4}, "trials": 3,
     "instances": [{"family": "complete-e", "n": 16}]},
    {"name": "polling", "custom": "e14/dissemination", "args": {"period": 2},
     "instances": [{"family": "geometric", "n": 36}]}
  ]
}`
	_, ts := newTestServer(t, nil)
	out, err := spec.ExecuteFile(parseSpec(t, doc), 1, 0, spec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	directDir, err := out.WriteArtifacts(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	code, st, body := submit(t, ts, doc, "", nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone || final.Errors != 0 || final.Done != 4 {
		t.Fatalf("final status %+v", final)
	}
	checkServedArtifacts(t, ts, final, directDir)
}

// TestSingleFlightCoalescing: concurrent duplicate submissions attach to
// the one running job, and exactly one execution happens.
func TestSingleFlightCoalescing(t *testing.T) {
	started := make(chan *Job, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, nil)
	s.beforeRun = func(j *Job) {
		started <- j
		<-release
	}
	code, first, body := submit(t, ts, tinySpec, "", nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	<-started // the job is now running and holding the gate

	code, dup, body := submit(t, ts, tinySpec, "", map[string]string{"X-Client-ID": "other-client"})
	if code != http.StatusOK {
		t.Fatalf("duplicate submit = %d: %s", code, body)
	}
	if !dup.Coalesced || dup.ID != first.ID || dup.CacheHit {
		t.Fatalf("duplicate did not coalesce: %+v (first %+v)", dup, first)
	}
	close(release)
	final := waitTerminal(t, ts, first.ID)
	if final.State != StateDone {
		t.Fatalf("final %+v", final)
	}
	stats := getStats(t, ts)
	if stats.Executions != 1 || stats.Coalesced != 1 {
		t.Fatalf("stats %+v; want exactly one execution and one coalesced attach", stats)
	}
}

// TestAdmissionControl: a full queue and a per-client cap both answer 429
// with Retry-After; a different client still gets in.
func TestAdmissionControl(t *testing.T) {
	started := make(chan *Job, 4)
	release := make(chan struct{})
	s, ts := newTestServer(t, func(c *Config) {
		c.Execs = 1
		c.QueueCap = 1
		c.MaxPerClient = 2
	})
	s.beforeRun = func(j *Job) {
		started <- j
		<-release
	}
	defer close(release)

	specN := func(seed int) string {
		return strings.Replace(tinySpec, `"seed": 9`, fmt.Sprintf(`"seed": %d`, seed), 1)
	}
	hdrA := map[string]string{"X-Client-ID": "client-a"}

	if code, _, body := submit(t, ts, specN(11), "", hdrA); code != http.StatusAccepted {
		t.Fatalf("job A = %d: %s", code, body)
	}
	<-started // A is running; the queue is empty again
	if code, _, body := submit(t, ts, specN(12), "", hdrA); code != http.StatusAccepted {
		t.Fatalf("job B = %d: %s", code, body)
	}
	// Client A is now at its cap (one running, one queued).
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(specN(13)))
	req.Header.Set("X-Client-ID", "client-a")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit = %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if !strings.Contains(string(body), "client") {
		t.Errorf("unhelpful 429 body: %s", body)
	}

	// Another client hits the queue bound instead: B occupies the one slot.
	code, _, body2 := submit(t, ts, specN(14), "", map[string]string{"X-Client-ID": "client-b"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit = %d: %s", code, body2)
	}
	if !strings.Contains(body2, "queue") {
		t.Errorf("unhelpful queue-full body: %s", body2)
	}
	if st := getStats(t, ts); st.Rejected != 2 {
		t.Fatalf("stats %+v; want 2 rejections", st)
	}
}

// TestCancel: canceling a queued job settles it instantly; canceling a
// running job settles at the next boundary; neither writes to the cache.
func TestCancel(t *testing.T) {
	started := make(chan *Job, 2)
	release := make(chan struct{})
	s, ts := newTestServer(t, func(c *Config) { c.Execs = 1 })
	s.beforeRun = func(j *Job) {
		started <- j
		select {
		case <-release:
		case <-j.ctx.Done():
		}
	}
	defer close(release)

	code, running, body := submit(t, ts, tinySpec, "", nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	<-started
	code, queued, body := submit(t, ts, tinySpec, "?seed=21", nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}

	// Cancel the queued job: immediate terminal state.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued = %d", resp.StatusCode)
	}
	if st := getStatus(t, ts, queued.ID); st.State != StateCanceled {
		t.Fatalf("queued job state %s after cancel", st.State)
	}

	// Cancel the running job while it holds the gate.
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running = %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts, running.ID)
	if final.State != StateCanceled {
		t.Fatalf("running job settled %s", final.State)
	}
	events := readSSE(t, ts, running.ID, 0)
	if last := events[len(events)-1]; last.typ != "complete" || last.event.State != string(StateCanceled) {
		t.Fatalf("last event %+v", last)
	}
	// Nothing reached the cache; the artifact endpoint 404s.
	resp, err = http.Get(ts.URL + "/v1/artifacts/" + running.Key + "/" + spec.ManifestArtifact)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("canceled job's artifacts served: %d", resp.StatusCode)
	}
	// DELETE on a terminal job is an idempotent no-op.
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-cancel = %d", resp.StatusCode)
	}
}

// TestSSEResume: a reconnect with Last-Event-ID replays only later events.
func TestSSEResume(t *testing.T) {
	_, ts := newTestServer(t, nil)
	code, st, body := submit(t, ts, tinySpec, "", nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	waitTerminal(t, ts, st.ID)
	all := readSSE(t, ts, st.ID, 0)
	if len(all) < 3 {
		t.Fatalf("only %d events", len(all))
	}
	cut := all[1].id
	resumed := readSSE(t, ts, st.ID, cut)
	if len(resumed) != len(all)-2 {
		t.Fatalf("resume after id %d replayed %d events, want %d", cut, len(resumed), len(all)-2)
	}
	for i, e := range resumed {
		if e.id != all[i+2].id || e.typ != all[i+2].typ {
			t.Fatalf("resumed[%d] = %+v, want %+v", i, e, all[i+2])
		}
	}
}

// TestSSEHeartbeat: an idle stream carries comment heartbeats.
func TestSSEHeartbeat(t *testing.T) {
	started := make(chan *Job, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, func(c *Config) { c.Heartbeat = 10 * time.Millisecond })
	s.beforeRun = func(j *Job) {
		started <- j
		<-release
	}
	code, st, body := submit(t, ts, tinySpec, "", nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	<-started
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	sawHeartbeat := false
	deadline := time.Now().Add(5 * time.Second)
	for !sawHeartbeat && time.Now().Before(deadline) {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended early: %v", err)
		}
		if strings.HasPrefix(line, ":") {
			sawHeartbeat = true
		}
	}
	if !sawHeartbeat {
		t.Fatal("no heartbeat on an idle stream")
	}
	close(release)
	waitTerminal(t, ts, st.ID)
}

// TestSubmitRejections: malformed JSON, unknown algorithms and custom
// workloads (with the registries' actionable messages) are all 400s.
func TestSubmitRejections(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name, doc, want string
	}{
		{"malformed", `{"name": "x", `, "spec"},
		{"unknown-field", `{"name": "x", "bogus": 1, "scenarios": []}`, "bogus"},
		{"unknown-algo", `{"name": "x", "scenarios": [{"name": "s", "algorithm": "nope", "instances": [{"family": "grid", "n": 4}]}]}`, "unknown algorithm"},
		{"custom-workload", `{"name": "x", "scenarios": [{"name": "s", "custom": "e10", "instances": [{"family": "grid", "n": 4}]}]}`, "unknown custom workload"},
		{"bad-family", `{"name": "x", "scenarios": [{"name": "s", "algorithm": "recursive", "instances": [{"family": "moebius", "n": 4}]}]}`, "unknown graph family"},
	}
	for _, c := range cases {
		code, _, body := submit(t, ts, c.doc, "", nil)
		if code != http.StatusBadRequest {
			t.Errorf("%s: code %d (%s)", c.name, code, body)
			continue
		}
		if !strings.Contains(body, c.want) {
			t.Errorf("%s: body %q lacks %q", c.name, body, c.want)
		}
	}
	// Unknown job / artifact routes 404 cleanly.
	for _, path := range []string{"/v1/jobs/zzz", "/v1/jobs/zzz/events", "/v1/artifacts/" + strings.Repeat("a", 64) + "/manifest.json"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	// Traversal-shaped artifact fetches never succeed.
	resp, err := http.Get(ts.URL + "/v1/artifacts/..%2f..%2fetc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("traversal-shaped artifact path served")
	}
}

// TestServerCloseSettlesJobs: Close cancels queued and running jobs and
// returns once the executors settle.
func TestServerCloseSettlesJobs(t *testing.T) {
	started := make(chan *Job, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, func(c *Config) { c.Execs = 1 })
	s.beforeRun = func(j *Job) {
		started <- j
		<-release
	}
	code, running, body := submit(t, ts, tinySpec, "", nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	<-started
	code, queued, body := submit(t, ts, tinySpec, "?seed=31", nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	close(release)
	s.Close() // cancels base context; executors drain
	for _, id := range []string{running.ID, queued.ID} {
		j := s.jobByID(id)
		if j == nil {
			t.Fatalf("job %s pruned during Close", id)
		}
		state, _, _, _, _, _ := j.snapshot()
		if !state.Terminal() {
			t.Errorf("job %s left %s after Close", id, state)
		}
	}
	s.Close() // idempotent
}
