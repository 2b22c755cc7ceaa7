package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/spec"
)

// Config sizes the server. The zero value is usable: defaults are applied
// by New.
type Config struct {
	// Store is the content-addressed artifact cache directory.
	Store string
	// Workers bounds concurrent trials inside one job (harness.Runner
	// semantics: 0 = GOMAXPROCS, 1 = sequential). Output bytes never
	// depend on it.
	Workers int
	// Execs is the number of jobs executing concurrently on the shared
	// runner (default 1: jobs serialize, each using the whole trial pool).
	Execs int
	// QueueCap bounds the pending-job queue; a full queue answers 429
	// (default 64).
	QueueCap int
	// MaxPerClient caps one client's jobs in flight — queued or running;
	// exceeding it answers 429 (default 8). Clients identify themselves
	// with the X-Client-ID header and default to their remote host.
	MaxPerClient int
	// RetryAfter is the seconds value of the Retry-After header on 429
	// responses (default 1).
	RetryAfter int
	// Heartbeat is the SSE keep-alive comment interval (default 15s).
	Heartbeat time.Duration
	// EventLogCap bounds each job's retained event window (default 4096).
	EventLogCap int
	// RoundsPerEvent coalesces round-batch observer callbacks: one SSE
	// rounds event per this many cumulative rounds (default 65536).
	RoundsPerEvent int64
	// MaxSpecBytes bounds the request body of a submission (default 1 MiB).
	MaxSpecBytes int64
	// JobHistory bounds retained terminal job records (default 1024); the
	// artifact cache is unaffected by pruning.
	JobHistory int
	// Execute, when non-nil, replaces spec.ExecuteFile as the job execution
	// engine — the seam `radiobfs serve -dist-listen` uses to run jobs
	// across remote workers. It must honor opts (Ctx, Observer, OnTrial)
	// and produce bytes identical to spec.ExecuteFile's.
	Execute func(f *spec.File, root uint64, opts spec.Options) (*spec.Output, error)
	// Log, when non-nil, receives one line per admission and completion.
	Log io.Writer
}

func (c *Config) applyDefaults() {
	if c.Execs < 1 {
		c.Execs = 1
	}
	if c.QueueCap < 1 {
		c.QueueCap = 64
	}
	if c.MaxPerClient < 1 {
		c.MaxPerClient = 8
	}
	if c.RetryAfter < 1 {
		c.RetryAfter = 1
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 15 * time.Second
	}
	if c.EventLogCap < 1 {
		c.EventLogCap = 4096
	}
	if c.RoundsPerEvent < 1 {
		c.RoundsPerEvent = 1 << 16
	}
	if c.MaxSpecBytes < 1 {
		c.MaxSpecBytes = 1 << 20
	}
	if c.JobHistory < 1 {
		c.JobHistory = 1024
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
}

// Server is the simulation service: admission control in front of a
// bounded queue, a fixed pool of job executors over the shared harness
// runner, per-job SSE event logs, and the content-addressed result cache.
// Create with New, expose with Handler, stop with Close.
type Server struct {
	cfg   Config
	store *Store

	baseCtx    context.Context
	cancelBase context.CancelFunc
	queue      chan *Job
	wg         sync.WaitGroup

	mu        sync.Mutex
	closed    bool
	nextID    int
	jobs      map[string]*Job
	order     []string        // job ids in admission order, for pruning
	inflight  map[string]*Job // cache key → active (queued/running) job
	perClient map[string]int

	// jn is the durable job journal at the store root; jnMu serializes its
	// appends (the admission path and the executors both write).
	jn   *journal.Journal
	jnMu sync.Mutex

	executions      atomic.Int64 // jobs that actually executed trials
	cacheHits       atomic.Int64
	coalesced       atomic.Int64
	rejected        atomic.Int64
	recovered       atomic.Int64 // journaled jobs requeued at startup
	recoveredCached atomic.Int64 // journaled jobs satisfied from the cache at startup

	// beforeRun, when non-nil, runs on the executor goroutine after a job
	// enters the running state and before any trial executes. Tests use it
	// to hold jobs open deterministically.
	beforeRun func(*Job)
}

// New opens the store, recovers the job journal — requeueing every job a
// previous process accepted but never finished — and starts the executor
// pool.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	store, err := OpenStore(cfg.Store)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		store:      store,
		baseCtx:    ctx,
		cancelBase: cancel,
		jobs:       map[string]*Job{},
		inflight:   map[string]*Job{},
		perClient:  map[string]int{},
	}
	requeue, err := s.openJobsJournal()
	if err != nil {
		cancel()
		return nil, err
	}
	// Recovered jobs must all fit regardless of the configured queue bound —
	// they were admitted once already.
	s.queue = make(chan *Job, cfg.QueueCap+len(requeue))
	for _, j := range requeue {
		s.queue <- j
	}
	for i := 0; i < cfg.Execs; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s, nil
}

// Close stops admission, cancels every live job, and waits for the
// executors to settle. Queued jobs finish canceled; running jobs settle at
// their next phase boundary. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.cancelBase()
	s.wg.Wait()
	s.jnMu.Lock()
	s.jn.Close()
	s.jnMu.Unlock()
}

// Handler returns the HTTP API. The routes are REST/JSON with one SSE
// stream; the method set is deliberately small and handler-thin so a gRPC
// front end can wrap the same Server operations.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/artifacts/{key}/{name}", s.handleArtifact)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

// clientID resolves the submitting client for per-client admission caps.
func clientID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get("X-Client-ID")); id != "" {
		if len(id) > 100 {
			id = id[:100]
		}
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// overload answers 429 with a Retry-After hint — the admission-control
// refusal clients are expected to back off on.
func (s *Server) overload(w http.ResponseWriter, format string, args ...any) {
	s.rejected.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfter))
	httpError(w, http.StatusTooManyRequests, format, args...)
}

// handleSubmit admits one spec: parse → validate/compile (reusing the
// registries' actionable error messages verbatim) → cache lookup →
// single-flight attach → admission-controlled enqueue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	f, err := spec.Parse(http.MaxBytesReader(w, r.Body, s.cfg.MaxSpecBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	q := r.URL.Query()
	quick := false
	if v := q.Get("quick"); v != "" {
		quick, err = strconv.ParseBool(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "quick=%q is not a boolean", v)
			return
		}
	}
	root := f.RootSeed()
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "seed=%q is not a uint64", v)
			return
		}
		if seed != 0 {
			root = seed
		}
	}
	// Compile validates against the live registries and — with no Custom
	// table — rejects custom-workload specs with the same actionable
	// message `radiobfs run` prints.
	scs, err := spec.Compile(f, spec.Options{Quick: quick})
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	total := 0
	for _, sc := range scs {
		total += len(sc.Instances) * sc.TrialCount()
	}
	key, err := CacheKey(f, root, quick)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	client := clientID(r)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if s.store.Has(key) {
		job := s.registerLocked(f, key, root, quick, client, total)
		job.state = StateDone
		job.cacheHit = true
		job.done = total
		s.cacheHits.Add(1)
		s.mu.Unlock()
		job.log.Append(Event{Type: "complete", Job: job.ID, State: string(StateDone), Done: total, Total: total, CacheHit: true})
		job.log.Close()
		fmt.Fprintf(s.cfg.Log, "serve: job %s spec %s: cache hit (%s)\n", job.ID, job.Spec, short(key))
		writeJSON(w, http.StatusOK, job.status())
		return
	}
	if active := s.inflight[key]; active != nil {
		s.coalesced.Add(1)
		s.mu.Unlock()
		st := active.status()
		st.Coalesced = true
		fmt.Fprintf(s.cfg.Log, "serve: spec %s coalesced onto job %s (%s)\n", f.Name, active.ID, short(key))
		writeJSON(w, http.StatusOK, st)
		return
	}
	if n := s.perClient[client]; n >= s.cfg.MaxPerClient {
		s.mu.Unlock()
		s.overload(w, "client %q has %d jobs in flight (cap %d) — retry after they settle", client, n, s.cfg.MaxPerClient)
		return
	}
	if len(s.queue) >= s.cfg.QueueCap {
		s.mu.Unlock()
		s.overload(w, "job queue is full (%d pending) — retry later", s.cfg.QueueCap)
		return
	}
	job := s.registerLocked(f, key, root, quick, client, total)
	job.state = StateQueued
	// Journal the admission — durably — before the client hears 202: an
	// accepted job must survive this process.
	if err := s.journalSubmit(job); err != nil {
		delete(s.jobs, job.ID)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		job.cancel()
		httpError(w, http.StatusInternalServerError, "recording job: %v", err)
		return
	}
	s.inflight[key] = job
	s.perClient[client]++
	job.log.Append(Event{Type: "queued", Job: job.ID, Total: total})
	select {
	case s.queue <- job:
	default:
		// The capacity check above makes this unreachable in practice, but
		// never block the admission path on the queue.
		delete(s.inflight, key)
		s.perClient[client]--
		s.mu.Unlock()
		s.overload(w, "job queue is full (%d pending) — retry later", s.cfg.QueueCap)
		return
	}
	s.mu.Unlock()
	fmt.Fprintf(s.cfg.Log, "serve: job %s queued: spec %s, %d trials, seed %d, key %s\n", job.ID, job.Spec, total, root, short(key))
	writeJSON(w, http.StatusAccepted, job.status())
}

// registerLocked allocates and indexes a job record; the caller holds s.mu
// and finishes initializing the state fields.
func (s *Server) registerLocked(f *spec.File, key string, root uint64, quick bool, client string, total int) *Job {
	s.nextID++
	ctx, cancel := context.WithCancel(s.baseCtx)
	job := &Job{
		ID:     fmt.Sprintf("j%d", s.nextID),
		Key:    key,
		Spec:   f.Name,
		Root:   root,
		Quick:  quick,
		client: client,
		file:   f,
		ctx:    ctx,
		cancel: cancel,
		log:    NewLog(s.cfg.EventLogCap),
		total:  total,
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.pruneLocked()
	return job
}

// pruneLocked drops the oldest terminal job records beyond the history cap.
// Active jobs are never pruned; cache entries outlive their job records.
func (s *Server) pruneLocked() {
	excess := len(s.jobs) - s.cfg.JobHistory
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil {
			if st, _, _, _, _, _ := j.snapshot(); st.Terminal() {
				delete(s.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// runJob executes one admitted job on the shared runner: progress flows
// into the job's event log through a job-scoped observer and the per-trial
// hook, artifacts commit to the content-addressed store, and cancellation
// (DELETE, shutdown) settles at the next phase boundary without writing
// anything.
func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return
	}
	if j.ctx.Err() != nil {
		j.mu.Unlock()
		s.finish(j, StateCanceled, "canceled while queued")
		return
	}
	j.state = StateRunning
	j.mu.Unlock()
	s.journalState(j, StateRunning, "")
	j.log.Append(Event{Type: "started", Job: j.ID, Total: j.total})
	if hook := s.beforeRun; hook != nil {
		hook(j)
	}
	if j.ctx.Err() != nil {
		s.finish(j, StateCanceled, "canceled")
		return
	}
	s.executions.Add(1)
	onTrial := func(res harness.Result) {
		j.mu.Lock()
		j.done++
		if res.Err != "" {
			j.errors++
		}
		done := j.done
		j.mu.Unlock()
		j.log.Append(Event{
			Type:  "trial",
			Job:   j.ID,
			Trial: fmt.Sprintf("%s/%s/n=%d#%d", res.Scenario, res.Family, res.N, res.Index),
			Done:  done,
			Total: j.total,
			Err:   res.Err,
		})
	}
	opts := spec.Options{
		Quick:    j.Quick,
		Ctx:      j.ctx,
		Observer: newJobObserver(j.log, j.ID, s.cfg.RoundsPerEvent),
		OnTrial:  onTrial,
	}
	execute := s.cfg.Execute
	if execute == nil {
		execute = func(f *spec.File, root uint64, opts spec.Options) (*spec.Output, error) {
			return spec.ExecuteFile(f, s.cfg.Workers, root, opts)
		}
	}
	out, err := execute(j.file, j.Root, opts)
	switch {
	case j.ctx.Err() != nil:
		// Canceled mid-run: trials settled at phase boundaries; partial
		// output must never reach the cache.
		s.finish(j, StateCanceled, "canceled")
	case err != nil:
		s.finish(j, StateFailed, err.Error())
	default:
		if err := s.store.Commit(j.Key, out); err != nil {
			s.finish(j, StateFailed, err.Error())
			return
		}
		s.finish(j, StateDone, "")
	}
}

// finish moves a job to a terminal state exactly once: records the outcome,
// emits the complete event, closes the log, and releases the job's
// admission slots (single-flight entry, per-client count).
func (s *Server) finish(j *Job, state State, errText string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	if state != StateDone {
		j.err = errText
	}
	done, total := j.done, j.total
	j.mu.Unlock()
	j.cancel()
	s.journalState(j, state, errText)
	j.log.Append(Event{Type: "complete", Job: j.ID, State: string(state), Done: done, Total: total, Err: errText})
	j.log.Close()
	s.mu.Lock()
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	if n := s.perClient[j.client]; n > 1 {
		s.perClient[j.client] = n - 1
	} else {
		delete(s.perClient, j.client)
	}
	s.mu.Unlock()
	fmt.Fprintf(s.cfg.Log, "serve: job %s spec %s: %s (%d/%d trials)\n", j.ID, j.Spec, state, done, total)
}

// jobByID resolves a job record.
func (s *Server) jobByID(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	for _, j := range jobs {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// handleCancel implements DELETE /v1/jobs/{id}: queued jobs finish
// immediately; running jobs get their context canceled and settle at the
// next phase boundary. Terminal jobs are a no-op (idempotent).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	switch {
	case state.Terminal():
		writeJSON(w, http.StatusOK, j.status())
	case state == StateQueued:
		j.cancel()
		s.finish(j, StateCanceled, "canceled by client")
		writeJSON(w, http.StatusOK, j.status())
	default:
		j.cancel()
		writeJSON(w, http.StatusAccepted, j.status())
	}
}

// handleEvents streams the job's event log as Server-Sent Events: retained
// events after the client's Last-Event-ID replay first, then live appends,
// with comment heartbeats while idle. The stream ends when the job's log
// closes (terminal state) or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	cursor := 0
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("lastEventID")
	}
	if lastID != "" {
		n, err := strconv.Atoi(lastID)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "Last-Event-ID %q is not an event id", lastID)
			return
		}
		cursor = n
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	ticker := time.NewTicker(s.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		batch, next, wait, open := j.log.After(cursor)
		cursor = next
		for _, e := range batch {
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.ID, e.Type, data)
		}
		if len(batch) > 0 {
			fl.Flush()
		}
		if !open {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wait:
		case <-ticker.C:
			io.WriteString(w, ": hb\n\n")
			fl.Flush()
		}
	}
}

// handleArtifact serves one cached artifact file, byte-identical to what
// `radiobfs run` writes for the same (spec, seed). Keys and names are
// validated against the cache-key alphabet and the fixed artifact set, so
// the path join cannot traverse.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	key, name := r.PathValue("key"), r.PathValue("name")
	f, err := s.store.Open(key, name)
	if err != nil {
		httpError(w, http.StatusNotFound, "no artifact %s/%s", key, name)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, f)
}

// Stats is the server-wide counter snapshot served at /v1/stats. The
// executions counter is the observable proof of caching: submitting the
// same spec twice moves cacheHits, not executions.
type Stats struct {
	Executions int64 `json:"executions"`
	CacheHits  int64 `json:"cacheHits"`
	Coalesced  int64 `json:"coalesced"`
	Rejected   int64 `json:"rejected"`
	// Recovered counts journaled jobs this process requeued at startup;
	// RecoveredCached counts journaled jobs it finished directly because
	// their artifacts were already committed before the crash.
	Recovered       int64 `json:"recovered"`
	RecoveredCached int64 `json:"recoveredCached"`
	Queued          int   `json:"queued"`
	Running         int   `json:"running"`
	Done            int   `json:"done"`
	Failed          int   `json:"failed"`
	Canceled        int   `json:"canceled"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{
		Executions:      s.executions.Load(),
		CacheHits:       s.cacheHits.Load(),
		Coalesced:       s.coalesced.Load(),
		Rejected:        s.rejected.Load(),
		Recovered:       s.recovered.Load(),
		RecoveredCached: s.recoveredCached.Load(),
	}
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		state, _, _, _, _, _ := j.snapshot()
		switch state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCanceled:
			st.Canceled++
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// short abbreviates a cache key for log lines.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
