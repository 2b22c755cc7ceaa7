package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/progress"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/spec"
)

const (
	serviceToken = "perfbench-token"
	// hitsPerCold is the mix: every cold job is followed by this many
	// cached resubmissions of earlier seeds.
	hitsPerCold = 2
	// countJobs is how many cold seeds of the sequence the exact work
	// counts average over.
	countJobs = 32
	// tracedVerify bounds the verification executions run with spans.
	tracedVerify = 50
)

// serviceFile is one job: twenty trials of the paper's algorithms at
// n ≤ 256. The trials are heavy enough that computing them, not the serve
// and dist control planes, takes most of a cold job; with lighter jobs the
// cold latency tracked host steal three times over and no bound could hold
// it (see README.md).
func serviceFile() *spec.File {
	return &spec.File{
		Name: "sweep-job",
		Doc:  "Benchmark service job: twenty trials of the paper's algorithms at n <= 256.",
		Scenarios: []spec.Scenario{
			{Name: "job-recursive", Algorithm: "recursive", Trials: 2,
				Instances: []harness.Instance{inst("cycle", 128, 64), inst("grid", 256, 30), inst("geometric", 256, 0)}},
			{Name: "job-physical", Algorithm: "recursive", Cost: "physical", Trials: 2,
				Instances: []harness.Instance{inst("cycle", 64, 32)}},
			{Name: "job-decay", Algorithm: "decay", Cost: "physical", Trials: 2,
				Instances: []harness.Instance{inst("gnp", 256, 0), inst("tree", 256, 0)}},
			{Name: "job-verify", Algorithm: "verify", Trials: 2,
				Instances: []harness.Instance{inst("grid", 256, 0)}},
			{Name: "job-diam2", Algorithm: "diam2", Trials: 2,
				Instances: []harness.Instance{inst("cycle", 128, 0), inst("gnp", 128, 0)}},
			{Name: "job-poll", Algorithm: "poll", Trials: 2, Params: map[string]float64{"period": 3},
				Instances: []harness.Instance{inst("geometric", 256, 0)}},
		},
	}
}

// coldRoot is the i-th fresh root seed of a workload seed's job sequence.
func coldRoot(seed uint64, i int) uint64 {
	return rng.Derive(seed, 0xc01d, uint64(i))%1_000_000_000 + 1
}

// service is the sweep-service session: a serve.Server behind loopback
// HTTP whose jobs execute through serve.Config.Execute on dist.Execute, over
// a dist.Listen TCP transport with two persistent in-process RemoteWorkers.
// One closed-loop client drives it.
type service struct {
	seed      uint64
	doc       []byte
	file      *spec.File
	root      string // the store and verifyDir live under it
	store     string
	verifyDir string
	base      string
	client    *http.Client
	srv       *serve.Server
	hsrv      *http.Server
	served    chan error
	tr        *dist.TCPTransport
	dcfg      dist.Config
	workers   sync.WaitGroup

	mu    sync.Mutex
	execs map[uint64]*execStats // by root seed, filled by execute
	cur   spanCtx               // where lease spans of the job in flight go

	steps    int
	colds    []*coldJob
	done     []*coldJob // cold jobs that succeeded: the hits' pool
	win      int        // first cold job of the current window
	stats0   serve.Stats
	timings  []opTiming
	verified []tracedOp
	vops     []int
}

// coldJob is one cold submission and what its checks need.
type coldJob struct {
	root   uint64
	op     int
	key    string
	hashes [][sha256.Size]byte
	exec   *execStats
}

// execStats counts one dist execution's lease events.
type execStats struct {
	grants, revocations, starts int
	granted, trials             int
	leaseStart                  map[int]time.Time
	rtt                         []time.Duration
}

type spanCtx struct {
	tr     *tracer
	op     int
	parent int64
}

// opTiming is a traced op's client-side split.
type opTiming struct {
	hit                        bool
	submit, queue, exec, fetch time.Duration
}

func openSweepService(cfg config, _ bool) (session, error) {
	s := &service{
		seed:   cfg.seed,
		doc:    encode(serviceFile()),
		execs:  map[uint64]*execStats{},
		served: make(chan error, 1),
	}
	var err error
	if s.file, err = spec.Parse(bytes.NewReader(s.doc)); err != nil {
		return nil, err
	}
	// A fresh store per set-up, on the filesystem the run writes to, so
	// the journal's fsync is measured.
	if err = os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	if s.root, err = os.MkdirTemp(cfg.out, "sweep-service-"); err != nil {
		return nil, err
	}
	s.store, s.verifyDir = filepath.Join(s.root, "store"), filepath.Join(s.root, "verify")
	if s.tr, err = dist.Listen("127.0.0.1:0", dist.ListenConfig{Token: serviceToken}); err != nil {
		os.RemoveAll(s.root)
		return nil, err
	}
	s.dcfg = dist.Config{Workers: 2, Transport: s.tr, ConnectWait: 5 * time.Second}
	for i := 0; i < 2; i++ {
		rw := dist.RemoteWorker{Addr: s.tr.Addr().String(), Token: serviceToken, Persist: true,
			Retries: 2, BackoffBase: 10 * time.Millisecond, BackoffMax: 50 * time.Millisecond}
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			rw.Run() // ends with a dial error once the listener closes
		}()
	}
	if s.srv, err = serve.New(serve.Config{Store: s.store, Execs: 1, Execute: s.execute}); err != nil {
		s.stopWorkers()
		os.RemoveAll(s.root)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		s.stopWorkers()
		os.RemoveAll(s.root)
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hsrv = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hsrv.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	return s, nil
}

// stopWorkers closes the listener and waits for both workers to give up
// redialing it.
func (s *service) stopWorkers() error {
	s.tr.Close()
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("sweep-service: dist workers did not stop within 10s")
	}
}

func (s *service) close() error {
	err := s.hsrv.Close()
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	s.srv.Close()
	if werr := s.stopWorkers(); err == nil {
		err = werr
	}
	if rerr := os.RemoveAll(s.root); err == nil {
		err = rerr
	}
	return err
}

// execute is the serve.Config.Execute seam: dist.Execute with a lease
// observer that counts this job's lease events.
func (s *service) execute(f *spec.File, root uint64, opts spec.Options) (*spec.Output, error) {
	st := &execStats{leaseStart: map[int]time.Time{}}
	s.mu.Lock()
	s.execs[root] = st
	sc := s.cur
	s.mu.Unlock()
	cfg := s.dcfg
	cfg.Observer = progress.LeaseFuncs{
		OnLeaseGranted: func(lease, _, start, end int) {
			now := time.Now()
			s.mu.Lock()
			defer s.mu.Unlock()
			st.grants++
			st.granted += end - start
			if _, ok := st.leaseStart[lease]; !ok {
				st.leaseStart[lease] = now
			}
		},
		OnLeaseDone: func(lease int) {
			now := time.Now()
			s.mu.Lock()
			defer s.mu.Unlock()
			if t0, ok := st.leaseStart[lease]; ok {
				st.rtt = append(st.rtt, now.Sub(t0))
				if sc.tr != nil {
					sc.tr.add(sc.tr.id(), sc.parent, sc.op, "dist.lease", t0, now)
				}
			}
		},
		OnLeaseRevoked: func(int, int, string) {
			s.mu.Lock()
			st.revocations++
			s.mu.Unlock()
		},
		OnWorkerStart: func(int) {
			s.mu.Lock()
			st.starts++
			s.mu.Unlock()
		},
	}
	out, err := dist.Execute(f, root, opts, cfg)
	if out != nil {
		s.mu.Lock()
		st.trials = len(out.Results)
		s.mu.Unlock()
	}
	return out, err
}

func (s *service) beginWindow() {
	s.win = len(s.colds)
	s.timings = nil
	s.verified, s.vops = nil, nil
	s.stats0, _ = s.stats()
}

func (s *service) step(tr *tracer, op int) sample {
	pos := s.steps % (1 + hitsPerCold)
	s.steps++
	if pos != 0 {
		if job := s.pickHit(); job != nil {
			return s.hit(tr, op, job)
		}
	}
	return s.cold(tr, op)
}

// pickHit draws the earlier cold job the next hit resubmits. The draw is a
// function of the seed and the op sequence only.
func (s *service) pickHit() *coldJob {
	if len(s.done) == 0 {
		return nil
	}
	return s.done[rand.New(rand.NewPCG(s.seed, uint64(s.steps))).IntN(len(s.done))]
}

func (s *service) cold(tr *tracer, op int) sample {
	job := &coldJob{root: coldRoot(s.seed, len(s.colds)), op: op}
	s.colds = append(s.colds, job)
	var opID, submitID, queueID, execID, fetchID int64
	if tr != nil {
		opID, submitID, queueID, execID, fetchID = tr.id(), tr.id(), tr.id(), tr.id(), tr.id()
		s.setCur(spanCtx{tr, op, execID})
		defer s.setCur(spanCtx{})
	}
	start := time.Now()
	st, code, err := s.submit(job.root)
	submitted := time.Now()
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("cold submit answered HTTP %d, want 202", code)
	}
	var started, completed time.Time
	if err == nil {
		started, completed, err = s.follow(st.ID)
	}
	fetched := time.Now()
	var hashes [][sha256.Size]byte
	if err == nil {
		hashes, err = s.fetch(st.Key)
	}
	end := time.Now()
	s.mu.Lock()
	job.exec = s.execs[job.root]
	delete(s.execs, job.root)
	s.mu.Unlock()
	if err == nil && (job.exec == nil || job.exec.grants == 0) {
		err = errors.New("dist job saw no LeaseGranted event: the coordinator fell back to in-process execution")
	}
	if err == nil {
		job.key, job.hashes = st.Key, hashes
		s.done = append(s.done, job)
	}
	if tr != nil && err == nil {
		tr.add(submitID, opID, op, "serve.submit", start, submitted)
		tr.add(queueID, opID, op, "serve.queue", submitted, started)
		tr.add(execID, opID, op, "serve.exec", started, completed)
		tr.add(fetchID, opID, op, "serve.fetch", fetched, end)
		tr.add(opID, 0, op, "op", start, end)
		s.timings = append(s.timings, opTiming{submit: submitted.Sub(start), queue: started.Sub(submitted),
			exec: completed.Sub(started), fetch: end.Sub(fetched)})
	}
	return sample{op: true, wall: end.Sub(start), err: err}
}

func (s *service) hit(tr *tracer, op int, job *coldJob) sample {
	start := time.Now()
	st, code, err := s.submit(job.root)
	submitted := time.Now()
	if err == nil && (code != http.StatusOK || !st.CacheHit) {
		err = fmt.Errorf("resubmission answered HTTP %d cacheHit=%v, want 200 from the cache", code, st.CacheHit)
	}
	if err == nil {
		_, _, err = s.follow(st.ID)
	}
	fetched := time.Now()
	var hashes [][sha256.Size]byte
	if err == nil {
		hashes, err = s.fetch(st.Key)
	}
	end := time.Now()
	if err == nil && !equalHashes(hashes, job.hashes) {
		err = fmt.Errorf("cached artifacts of root seed %d differ from the cold job's", job.root)
	}
	if tr != nil && err == nil {
		opID := tr.id()
		tr.add(tr.id(), opID, op, "serve.hit_submit", start, submitted)
		tr.add(tr.id(), opID, op, "serve.events", submitted, fetched)
		tr.add(tr.id(), opID, op, "serve.fetch", fetched, end)
		tr.add(opID, 0, op, "hit", start, end)
		s.timings = append(s.timings, opTiming{hit: true, submit: submitted.Sub(start), fetch: end.Sub(fetched)})
	}
	return sample{hit: true, wall: end.Sub(start), err: err}
}

func (s *service) setCur(sc spanCtx) {
	s.mu.Lock()
	s.cur = sc
	s.mu.Unlock()
}

func equalHashes(a, b [][sha256.Size]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// submit POSTs the job document under root. Any non-2xx answer, a 429
// included, is an error.
func (s *service) submit(root uint64) (serve.JobStatus, int, error) {
	var st serve.JobStatus
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/jobs?seed="+strconv.FormatUint(root, 10), bytes.NewReader(s.doc))
	if err != nil {
		return st, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", "perfbench")
	resp, err := s.client.Do(req)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return st, resp.StatusCode, fmt.Errorf("submit answered HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return st, resp.StatusCode, json.Unmarshal(body, &st)
}

// follow reads the job's SSE stream to its complete event and returns when
// the started and complete events arrived.
func (s *service) follow(id string) (started, completed time.Time, err error) {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return started, completed, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return started, completed, fmt.Errorf("event stream answered HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "" && event != "":
			var e serve.Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				return started, completed, fmt.Errorf("event %s: %w", event, err)
			}
			switch event {
			case "started":
				started = time.Now()
			case "trial":
				if e.Err != "" {
					return started, completed, fmt.Errorf("trial %s: %s", e.Trial, e.Err)
				}
			case "complete":
				completed = time.Now()
				if e.State != string(serve.StateDone) {
					return started, completed, fmt.Errorf("job %s ended %s: %s", id, e.State, e.Err)
				}
				if started.IsZero() {
					started = completed
				}
				return started, completed, nil
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		return started, completed, err
	}
	return started, completed, fmt.Errorf("job %s: event stream ended before the complete event", id)
}

// fetch GETs the four artifacts of a cache entry and hashes each.
func (s *service) fetch(key string) ([][sha256.Size]byte, error) {
	var out [][sha256.Size]byte
	for _, name := range serve.ArtifactNames() {
		resp, err := s.client.Get(s.base + "/v1/artifacts/" + key + "/" + name)
		if err != nil {
			return nil, err
		}
		h := sha256.New()
		_, err = io.Copy(h, resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("artifact %s answered HTTP %d", name, resp.StatusCode)
		}
		out = append(out, [sha256.Size]byte(h.Sum(nil)))
	}
	return out, nil
}

func (s *service) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := s.client.Get(s.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats answered HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// verify compares every cold job of the window, byte for byte, with an
// untimed in-process spec.ExecuteFile of the same spec and seed, and runs
// the claim checks on that execution's results.
func (s *service) verify(tr *tracer) map[int]error {
	fails := map[int]error{}
	for _, job := range s.colds[s.win:] {
		if job.hashes == nil {
			continue // failed inline already
		}
		traced := tr != nil && len(s.verified) < tracedVerify
		out, hashes, err := s.local(job, tr, traced)
		switch {
		case err != nil:
			fails[job.op] = err
		case !equalHashes(hashes, job.hashes):
			fails[job.op] = fmt.Errorf("served artifacts of root seed %d differ from an in-process run", job.root)
		default:
			if err := checkClaims(s.file, out.Results); err != nil {
				fails[job.op] = err
			}
		}
	}
	return fails
}

// local executes a job in-process and hashes its four artifacts; traced
// runs it one trial at a time with the in-process layers' spans.
func (s *service) local(job *coldJob, tr *tracer, traced bool) (*spec.Output, [][sha256.Size]byte, error) {
	f, err := spec.Parse(bytes.NewReader(s.doc))
	if err != nil {
		return nil, nil, err
	}
	workers, opts := runtime.NumCPU(), spec.Options{}
	var rec *trialRecorder
	var rootID, execID int64
	start := time.Now()
	if traced {
		if _, err := spec.Compile(f, opts); err != nil {
			return nil, nil, err
		}
		rootID, execID = tr.id(), tr.id()
		tr.add(tr.id(), rootID, job.op, "spec.compile", start, time.Now())
		rec = newTrialRecorder(tr, job.op, execID, time.Now())
		workers, opts = 1, spec.Options{Observer: rec, OnTrial: rec.settle}
	}
	execStart := time.Now()
	out, err := spec.ExecuteFile(f, workers, job.root, opts)
	if err != nil {
		return nil, nil, err
	}
	written := time.Now()
	dir, err := out.WriteArtifacts(s.verifyDir)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		end := time.Now()
		tr.add(execID, rootID, job.op, "spec.execute", execStart, written)
		tr.add(tr.id(), rootID, job.op, "spec.artifacts", written, end)
		tr.add(rootID, 0, job.op, "verify", start, end)
		s.verified = append(s.verified, tracedOp{root: job.root, results: out.Results, trials: rec.records()})
		s.vops = append(s.vops, job.op)
	}
	var hashes [][sha256.Size]byte
	for _, name := range serve.ArtifactNames() {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		hashes = append(hashes, sha256.Sum256(b))
	}
	return out, hashes, nil
}

func (s *service) layers(tr *tracer, ops []int) []metric {
	var submit, queue, exec, fetch, hitSubmit []time.Duration
	for _, t := range s.timings {
		fetch = append(fetch, t.fetch)
		if t.hit {
			hitSubmit = append(hitSubmit, t.submit)
		} else {
			submit, queue, exec = append(submit, t.submit), append(queue, t.queue), append(exec, t.exec)
		}
	}
	var rtt []time.Duration
	var grants, revocations, starts, granted, trials, cold int
	for _, j := range s.colds[s.win:] {
		if j.exec == nil || j.op < 0 {
			continue
		}
		cold++
		rtt = append(rtt, j.exec.rtt...)
		grants += j.exec.grants
		revocations += j.exec.revocations
		starts += j.exec.starts
		granted += j.exec.granted
		trials += j.exec.trials
	}
	st1, err := s.stats()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stats:", err)
	}
	med := func(ds []time.Duration) float64 { return quantile(msAll(ds), 0.5) }
	perJob := func(n int) float64 { return float64(n) / float64(max(cold, 1)) }
	out := []metric{
		{"serve.submit_ms_p50", med(submit), "ms", len(submit)},
		{"serve.queue_ms_p50", med(queue), "ms", len(queue)},
		{"serve.exec_ms_p50", med(exec), "ms", len(exec)},
		{"serve.fetch_ms_p50", med(fetch), "ms", len(fetch)},
		{"serve.hit_submit_ms_p50", med(hitSubmit), "ms", len(hitSubmit)},
		{"serve.executions_per_cold", perJob(int(st1.Executions - s.stats0.Executions)), "count", cold},
		{"dist.lease_rtt_ms_p50", med(rtt), "ms", len(rtt)},
		{"dist.grants_per_job", perJob(grants), "count", cold},
		{"dist.revocations_per_job", perJob(revocations), "count", cold},
		{"dist.worker_starts_per_job", perJob(starts), "count", cold},
		{"dist.slot_efficiency", ratio(float64(trials), float64(granted)), "fraction", cold},
	}
	out = append(out, s.counts()...)
	out = append(out, tracedLayers(tr, s.vops, s.verified)...)
	out = append(out, probeLayers(s.file, s.store, s.verified)...)
	return out
}

// counts executes the first countJobs cold seeds of the sequence in-process
// and averages their exact work counts, so the figure repeats exactly for a
// seed however many jobs a window held.
func (s *service) counts() []metric {
	counts := map[uint64]workCounts{}
	order := make([]uint64, countJobs)
	for i := range order {
		order[i] = coldRoot(s.seed, i)
		f, err := spec.Parse(bytes.NewReader(s.doc))
		if err != nil {
			continue
		}
		if out, err := spec.ExecuteFile(f, runtime.NumCPU(), order[i], spec.Options{}); err == nil {
			counts[order[i]] = countWork(out.Results)
		}
	}
	return meanCounts(order, counts)
}
