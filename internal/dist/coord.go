package dist

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/progress"
	"repro/internal/spec"
)

// Config tunes the coordinator. The zero value is usable: GOMAXPROCS worker
// processes over the fork/exec pipe transport, about four leases per
// worker, production-scale heartbeat and backoff parameters, no chaos, and
// `<this binary> work` as the worker command.
type Config struct {
	// Workers is the number of worker slots (<= 0 = GOMAXPROCS), capped at
	// the lease count. On the pipe transport each slot is a spawned
	// process; on a listener transport each slot is filled by a remote
	// worker as it dials in.
	Workers int
	// Transport supplies worker connections (default: fork/exec of
	// Command over stdin/stdout pipes). A TCPTransport from Listen accepts
	// authenticated remote workers instead. The coordinator never closes
	// the transport — the owner does, which is what lets a serve daemon
	// share one listener across successive runs.
	Transport Transport
	// ConnectWait, on listener transports, bounds how long the
	// coordinator waits with zero live workers (at start, or after every
	// worker disconnected) before degrading to in-process execution
	// (default 60s).
	ConnectWait time.Duration
	// LeaseSize is the number of trial slots per lease (<= 0 = automatic:
	// about four leases per worker). Every grant is exactly one lease.
	LeaseSize int
	// Heartbeat is the interval workers emit liveness frames at
	// (default 500ms).
	Heartbeat time.Duration
	// HeartbeatTimeout is the silence after which a worker is declared dead,
	// killed, and its lease revoked (default 3s). Results count as
	// heartbeats, so only a truly wedged worker trips it.
	HeartbeatTimeout time.Duration
	// RetryBudget bounds consecutive no-progress grants of one lease and
	// consecutive failed (re)spawns of one worker slot before the
	// coordinator stops trusting processes and runs the work in-process
	// (default 8).
	RetryBudget int
	// BackoffBase/BackoffMax shape the capped exponential backoff between
	// respawns of a failed worker slot (defaults 100ms / 5s). Backoff
	// resets whenever the slot acks a trial.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Chaos is the deterministic fault-injection schedule shipped to
	// workers (zero value = none).
	Chaos ChaosSpec
	// CheckpointDir, when set, makes the run durable: every acked trial is
	// journaled there before the in-memory ack, and a rerun against the
	// same directory resumes — replaying completed trials, re-leasing only
	// the rest — after verifying the journal belongs to this exact run.
	CheckpointDir string
	// Command is the worker argv for the default pipe transport (default:
	// this binary with the single argument "work"). Ignored when
	// Transport is set.
	Command []string
	// Log receives warnings and the end-of-run coordination summary
	// (default: discard). It is written only from the coordinator's event
	// loop.
	Log io.Writer
	// Observer, when non-nil, receives lease lifecycle events.
	Observer progress.LeaseObserver
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.ConnectWait <= 0 {
		cfg.ConnectWait = 60 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 3 * time.Second
	}
	if cfg.HeartbeatTimeout < 2*cfg.Heartbeat {
		cfg.HeartbeatTimeout = 2 * cfg.Heartbeat
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 8
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.Transport == nil {
		if len(cfg.Command) == 0 {
			exe, err := os.Executable()
			if err != nil {
				exe = os.Args[0]
			}
			cfg.Command = []string{exe, "work"}
		}
		cfg.Transport = NewProcTransport(cfg.Command)
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if cfg.Observer == nil {
		cfg.Observer = progress.LeaseFuncs{}
	}
	return cfg
}

// workerProc is one worker slot: a position in the fleet that successive
// worker incarnations occupy — process respawns over pipes, reconnecting
// remote workers over sockets.
type workerProc struct {
	slot int
	inc  int // incarnation number of the current/last worker
	conn Conn

	live      bool
	readySeen bool
	lastSeen  time.Time
	lease     *leaseState // the lease this incarnation holds, or nil
	// fails counts consecutive spawn failures / exits without an ack;
	// it drives backoff and the give-up decision, and resets on progress.
	fails     int
	nextSpawn time.Time
	gaveUp    bool
	killedFor string // set when the coordinator killed the worker
}

// event is one item on the coordinator's single event stream: a frame from
// a worker, or (msg == nil) its exit.
type event struct {
	w   *workerProc
	msg *Message
	err error
}

type coordinator struct {
	cfg     Config
	file    *spec.File
	opts    spec.Options
	root    uint64
	raw     []byte
	scs     []*harness.Scenario
	runner  harness.Runner
	refs    []harness.TrialRef
	results []harness.Result
	tbl     *table
	events  chan event
	done    chan struct{}
	workers []*workerProc
	incs    int
	// async is set for listener transports: slots fill from Accepts
	// instead of Spawn, and ConnectWait bounds the worker drought.
	async bool
	// lastAlive is the latest moment at least one worker was attached (or
	// the run start); the ConnectWait clock measures from it.
	lastAlive time.Time
	stream    *harness.Stream // lazy; in-process execution of poisoned leases
	fatal     error
	// jn is the durability journal (nil without -checkpoint); replayed
	// counts slots restored from it, ckptAppends records appended through
	// this process (the coordkill chaos trigger).
	jn          *journal.Journal
	replayed    int
	ckptAppends int

	stats struct {
		spawns, releases, dupResults, inproc int
	}
}

// Execute runs the spec file across workers and returns an Output
// byte-for-byte equal to spec.ExecuteFile's for the same (file, root, opts):
// per-trial results in canonical slot order, merged by first-writer-wins on
// the slot index. root == 0 selects the file's own seed policy. Workers
// compile the shipped spec against their own embedded registries and
// workload table, so registry and custom workloads alike cross the process
// boundary. When no worker can be obtained at all — spawning fails on the
// pipe transport, or no remote worker connects within ConnectWait on a
// listener transport — Execute degrades to in-process execution with a
// warning instead of failing.
func Execute(f *spec.File, root uint64, opts spec.Options, cfg Config) (*spec.Output, error) {
	cfg = cfg.withDefaults()
	scs, err := spec.Compile(f, opts)
	if err != nil {
		return nil, err
	}
	if root == 0 {
		root = f.RootSeed()
	}
	raw, err := f.Encode()
	if err != nil {
		return nil, err
	}
	c := &coordinator{
		cfg:  cfg,
		file: f,
		opts: opts,
		root: root,
		raw:  raw,
		scs:  scs,
		// OnTrial on the runner covers the wholesale in-process fallback
		// (Runner.Run fires it); the coordinator fires it by hand for
		// worker results and per-lease fallbacks, once per fresh ack.
		runner: harness.Runner{Workers: cfg.Workers, Root: root, OnTrial: opts.OnTrial},
		async:  cfg.Transport.Accepts() != nil,
	}
	c.refs = c.runner.ExpandAll(scs...)
	c.results = make([]harness.Result, len(c.refs))
	size := cfg.LeaseSize
	if size <= 0 {
		size = defaultLeaseSize(len(c.refs), cfg.Workers)
	}
	c.tbl = newTable(len(c.refs), size)
	c.events = make(chan event, 64)
	c.done = make(chan struct{})
	defer close(c.done)

	if cfg.CheckpointDir != "" && len(c.refs) > 0 {
		if err := c.openCheckpoint(); err != nil {
			return nil, err
		}
		defer c.jn.Close()
	}
	if len(c.refs) > 0 {
		if err := c.run(); err != nil {
			return nil, err
		}
		// The run completed: make the journal's tail durable before the
		// caller writes artifacts, so a post-run crash cannot strand a
		// checkpoint behind the outputs derived from it.
		if c.jn != nil {
			if err := c.jn.Sync(); err != nil {
				return nil, err
			}
		}
	}
	return &spec.Output{
		File:      f,
		Root:      root,
		Quick:     opts.Quick,
		Results:   c.results,
		Summaries: harness.Aggregate(c.results),
	}, nil
}

// run populates the fleet and drives the event loop to completion.
func (c *coordinator) run() error {
	if c.tbl.allDone() {
		// Every slot was replayed from the checkpoint; there is nothing to
		// lease, so no worker is spawned at all.
		fmt.Fprintf(c.cfg.Log, "dist: checkpoint already holds all %d trials; nothing to re-run\n", len(c.refs))
		return nil
	}
	fleet := c.cfg.Workers
	if fleet > len(c.tbl.leases) {
		fleet = len(c.tbl.leases)
	}
	c.workers = make([]*workerProc, fleet)
	c.lastAlive = time.Now()
	started := 0
	for slot := 0; slot < fleet; slot++ {
		c.workers[slot] = &workerProc{slot: slot}
		if !c.async && c.spawn(c.workers[slot]) {
			started++
		}
	}
	if !c.async && started == 0 {
		// No worker process could be spawned at all: degrade gracefully to
		// the in-process parallel runner — identical bytes, no coordination.
		// Trials already replayed from a checkpoint are recomputed (the
		// pooled runner has no skip list) but keep their journaled results;
		// determinism makes the two identical anyway.
		fmt.Fprintf(c.cfg.Log, "dist: warning: no worker process could be spawned (%q); running %d trials in-process\n",
			c.cfg.Command[0], len(c.refs))
		for i, res := range c.runner.Run(c.scs...) {
			if c.tbl.acked[i] {
				continue
			}
			if !c.checkpointAppend(i, res.Metrics, res.Err) {
				return c.fatal
			}
			c.tbl.ack(i)
			c.results[i] = res
		}
		return nil
	}
	err := c.loop()
	c.shutdownAll()
	if err == nil {
		fmt.Fprintf(c.cfg.Log, "dist: %d trials over %d leases on %d worker slots: %d spawns, %d re-leases, %d duplicate results dropped, %d leases finished in-process\n",
			len(c.refs), len(c.tbl.leases), len(c.workers),
			c.stats.spawns, c.stats.releases, c.stats.dupResults, c.stats.inproc)
	}
	return err
}

// loop is the single-threaded coordination core: every state change —
// frames, exits, attaches, liveness, respawns, give-up — happens here.
func (c *coordinator) loop() error {
	tick := c.cfg.HeartbeatTimeout / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	var ctxDone <-chan struct{}
	if c.opts.Ctx != nil {
		ctxDone = c.opts.Ctx.Done()
	}
	for !c.tbl.allDone() && c.fatal == nil {
		// Accept a parked remote connection only while a slot can take it;
		// a nil channel blocks forever, disabling the case.
		var acceptCh <-chan Conn
		if c.async && c.freeSlot() != nil {
			acceptCh = c.cfg.Transport.Accepts()
		}
		select {
		case ev := <-c.events:
			if ev.msg != nil {
				c.handleMsg(ev.w, ev.msg)
			} else {
				c.handleExit(ev.w, ev.err)
			}
		case conn := <-acceptCh:
			c.attach(c.freeSlot(), conn)
		case <-ticker.C:
			now := time.Now()
			c.checkLiveness(now)
			c.respawnDue(now)
			c.checkConnectWait(now)
			c.assignIdle()
			c.maybeRunInProcess()
		case <-ctxDone:
			return c.opts.Ctx.Err()
		}
	}
	return c.fatal
}

// freeSlot returns a slot a fresh remote connection may occupy, or nil.
func (c *coordinator) freeSlot() *workerProc {
	for _, w := range c.workers {
		if !w.live && !w.gaveUp {
			return w
		}
	}
	return nil
}

// anyLive reports whether any worker is currently attached.
func (c *coordinator) anyLive() bool {
	for _, w := range c.workers {
		if w.live {
			return true
		}
	}
	return false
}

// checkConnectWait is the listener transport's drought detector: with zero
// live workers for ConnectWait — nobody ever dialed in, or everyone
// disconnected and nobody came back — the remaining slots give up, and
// maybeRunInProcess finishes the sweep locally.
func (c *coordinator) checkConnectWait(now time.Time) {
	if !c.async || c.tbl.allDone() {
		return
	}
	if c.anyLive() {
		c.lastAlive = now
		return
	}
	if now.Sub(c.lastAlive) <= c.cfg.ConnectWait {
		return
	}
	gave := false
	for _, w := range c.workers {
		if !w.gaveUp {
			w.gaveUp = true
			gave = true
		}
	}
	if gave {
		fmt.Fprintf(c.cfg.Log, "dist: warning: no remote worker connected for %v; finishing the sweep in-process\n", c.cfg.ConnectWait)
	}
}

func (c *coordinator) handleMsg(w *workerProc, m *Message) {
	w.lastSeen = time.Now()
	switch m.Kind {
	case KindReady:
		w.readySeen = true
		c.cfg.Observer.WorkerStarted(w.inc)
		c.assign(w)
	case KindHeartbeat:
		// lastSeen already advanced.
	case KindResult:
		if m.Slot < 0 || m.Slot >= c.tbl.total() {
			c.fatal = fmt.Errorf("dist: worker %d reported slot %d outside [0, %d)", w.inc, m.Slot, c.tbl.total())
			return
		}
		if want := c.refs[m.Slot].Trial.Seed; m.Seed != want {
			// The worker expanded a different trial list — a spec or binary
			// skew no amount of retrying fixes. Results are already suspect.
			c.fatal = fmt.Errorf("dist: worker %d disagrees on slot %d's trial seed (%d != %d) — coordinator and worker are not running the same spec/binary", w.inc, m.Slot, m.Seed, want)
			return
		}
		if c.tbl.acked[m.Slot] {
			c.stats.dupResults++
			return
		}
		// Journal first, ack second: the bitmap must never lead the
		// durable record, or a crash between the two un-completes a trial
		// the journal promised was done.
		if !c.checkpointAppend(m.Slot, m.Metrics, m.TrialErr) {
			return
		}
		c.tbl.ack(m.Slot)
		c.results[m.Slot] = harness.Result{Trial: c.refs[m.Slot].Trial, Metrics: m.Metrics, Err: m.TrialErr}
		w.fails = 0
		c.notifyTrial(m.Slot)
		if l := c.tbl.leaseOf(m.Slot); !l.done && c.tbl.remaining(l) == 0 {
			l.done = true
			c.cfg.Observer.LeaseDone(l.id)
		}
	case KindLeaseDone:
		if m.LeaseID < 0 || m.LeaseID >= len(c.tbl.leases) {
			c.fatal = fmt.Errorf("dist: worker %d finished unknown lease %d", w.inc, m.LeaseID)
			return
		}
		l := c.tbl.leases[m.LeaseID]
		if w.lease == l {
			c.tbl.release(l)
			w.lease = nil
		}
		if !l.done && c.tbl.remaining(l) == 0 {
			l.done = true
			c.cfg.Observer.LeaseDone(l.id)
		}
		c.assign(w)
	default:
		c.fatal = fmt.Errorf("dist: unexpected %q frame from worker %d", m.Kind, w.inc)
	}
}

// notifyTrial forwards one freshly acked slot's result to the OnTrial
// hook, so progress streaming (the serve layer's SSE trial events) works
// under distributed execution too. Ack-gating keeps it exactly-once per
// slot; arrival order is scheduling-dependent, exactly as it is for the
// pooled in-process runner.
func (c *coordinator) notifyTrial(slot int) {
	if c.opts.OnTrial != nil {
		c.opts.OnTrial(c.results[slot])
	}
}

// handleExit revokes a dead worker's lease and schedules its respawn.
func (c *coordinator) handleExit(w *workerProc, err error) {
	if !w.live {
		return
	}
	w.live = false
	w.readySeen = false
	w.conn = nil
	c.lastAlive = time.Now()
	reason := "exit"
	if w.killedFor != "" {
		reason = w.killedFor
	} else if err != nil {
		reason = err.Error()
	}
	c.cfg.Observer.WorkerExited(w.inc, reason)
	progressed := false
	if l := w.lease; l != nil {
		w.lease = nil
		c.tbl.release(l)
		if !l.done {
			c.stats.releases++
			c.cfg.Observer.LeaseRevoked(l.id, w.inc, reason)
			progressed = l.retries == 0
			if l.retries > c.cfg.RetryBudget {
				c.runLeaseInProcess(l)
			}
		}
	}
	if progressed {
		w.fails = 0
	} else {
		w.fails++
	}
	if c.tbl.allDone() {
		return
	}
	if w.fails > c.cfg.RetryBudget {
		if !w.gaveUp {
			w.gaveUp = true
			fmt.Fprintf(c.cfg.Log, "dist: warning: worker slot %d failed %d times without progress; not respawning it\n", w.slot, w.fails)
		}
		return
	}
	w.nextSpawn = time.Now().Add(c.backoff(w.fails))
}

// backoff is the capped exponential respawn delay after fails consecutive
// no-progress failures.
func (c *coordinator) backoff(fails int) time.Duration {
	d := c.cfg.BackoffBase
	for i := 1; i < fails; i++ {
		d *= 2
		if d >= c.cfg.BackoffMax {
			return c.cfg.BackoffMax
		}
	}
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	return d
}

// assign grants an idle worker the lowest pending lease. A lease has at
// most one holder, so once every lease is held or done an idle worker
// stays idle until a revocation frees one or shutdown arrives. A failed
// grant write kills the worker; its reader goroutine then delivers the
// exit event.
func (c *coordinator) assign(w *workerProc) {
	if !w.live || !w.readySeen || w.lease != nil {
		return
	}
	l := c.tbl.pending()
	if l == nil {
		return
	}
	skip := c.tbl.skipList(l)
	if err := w.conn.Write(&Message{Kind: KindLease, Lease: &Lease{ID: l.id, Start: l.start, End: l.end, Skip: skip}}); err != nil {
		c.kill(w, "lease write failed: "+err.Error())
		return
	}
	c.tbl.grant(l)
	w.lease = l
	c.cfg.Observer.LeaseGranted(l.id, w.inc, l.start, l.end)
}

// assignIdle offers work to every idle live worker. A lease released by a
// dead peer must not wait for one of the survivors to produce a
// ready/leaseDone event — they may all be idle already.
func (c *coordinator) assignIdle() {
	for _, w := range c.workers {
		c.assign(w)
	}
}

// checkLiveness kills workers silent past the heartbeat timeout.
func (c *coordinator) checkLiveness(now time.Time) {
	for _, w := range c.workers {
		if w.live && now.Sub(w.lastSeen) > c.cfg.HeartbeatTimeout {
			c.kill(w, "heartbeat timeout")
		}
	}
}

// respawnDue restarts dead worker slots whose backoff has elapsed, as long
// as unfinished leases remain. Listener transports cannot respawn remote
// processes; their slots refill from Accepts instead.
func (c *coordinator) respawnDue(now time.Time) {
	if c.async || c.tbl.allDone() {
		return
	}
	for _, w := range c.workers {
		if !w.live && !w.gaveUp && !now.Before(w.nextSpawn) {
			c.spawn(w)
		}
	}
}

// maybeRunInProcess is the last line of the degradation ladder: when every
// worker slot has given up and leases remain, the coordinator finishes them
// itself so the sweep still completes with correct bytes.
func (c *coordinator) maybeRunInProcess() {
	if c.tbl.allDone() || c.fatal != nil {
		return
	}
	for _, w := range c.workers {
		if w.live || !w.gaveUp {
			return
		}
	}
	fmt.Fprintf(c.cfg.Log, "dist: warning: all %d worker slots gave up; finishing the sweep in-process\n", len(c.workers))
	for _, l := range c.tbl.leases {
		if !l.done {
			c.runLeaseInProcess(l)
			if c.fatal != nil {
				return
			}
		}
	}
}

// runLeaseInProcess executes a lease's remaining slots on the coordinator's
// own pooled stream — the fallback for poisoned leases and worker-starved
// runs. Acked slots are skipped and newly settled ones checkpointed exactly
// as worker results are, so mixing in-process and worker execution cannot
// change bytes.
func (c *coordinator) runLeaseInProcess(l *leaseState) {
	if l.done || c.fatal != nil {
		return
	}
	c.stats.inproc++
	fmt.Fprintf(c.cfg.Log, "dist: warning: lease %d [%d, %d) exhausted its retry budget; running its remaining %d trials in-process\n",
		l.id, l.start, l.end, c.tbl.remaining(l))
	if c.stream == nil {
		c.stream = c.runner.Stream(c.scs...)
	}
	err := c.stream.RunRange(c.opts.Ctx, l.start, l.end,
		func(slot int) bool { return c.tbl.acked[slot] },
		func(ref harness.TrialRef, res harness.Result) {
			if c.tbl.acked[ref.Slot] || c.fatal != nil {
				return
			}
			if !c.checkpointAppend(ref.Slot, res.Metrics, res.Err) {
				return
			}
			c.tbl.ack(ref.Slot)
			c.results[ref.Slot] = res
			c.notifyTrial(ref.Slot)
		})
	if err != nil {
		c.fatal = err
		return
	}
	if !l.done && c.tbl.remaining(l) == 0 {
		l.done = true
		c.cfg.Observer.LeaseDone(l.id)
	}
}

// spawn starts the next incarnation on a worker slot over a synchronous
// transport; false on failure (backoff already scheduled).
func (c *coordinator) spawn(w *workerProc) bool {
	conn, err := c.cfg.Transport.Spawn()
	if err == nil && conn != nil {
		c.attach(w, conn)
		return true
	}
	fmt.Fprintf(c.cfg.Log, "dist: warning: spawning worker %d (%q): %v\n", c.incs, c.cfg.Command[0], err)
	w.fails++
	if w.fails > c.cfg.RetryBudget {
		w.gaveUp = true
	} else {
		w.nextSpawn = time.Now().Add(c.backoff(w.fails))
	}
	return false
}

// attach binds a live connection to a worker slot as a fresh incarnation:
// hello goes out and the reader goroutine starts.
func (c *coordinator) attach(w *workerProc, conn Conn) {
	inc := c.incs
	c.incs++
	c.stats.spawns++
	w.inc = inc
	w.conn = conn
	w.live = true
	w.readySeen = false
	w.killedFor = ""
	w.lastSeen = time.Now()
	c.lastAlive = w.lastSeen
	if werr := conn.Write(&Message{Kind: KindHello, Hello: &Hello{
		Worker:      inc,
		Spec:        c.raw,
		Quick:       c.opts.Quick,
		Root:        c.root,
		HeartbeatMS: int(c.cfg.Heartbeat / time.Millisecond),
		Chaos:       c.cfg.Chaos,
	}}); werr != nil {
		c.kill(w, "hello write failed: "+werr.Error())
	}
	go c.read(w, conn)
}

// read is the per-connection reader goroutine: it forwards frames to the
// event loop and, when the stream ends, reaps the worker and reports the
// exit.
func (c *coordinator) read(w *workerProc, conn Conn) {
	readLoop(conn, func(m *Message, err error) bool {
		if m != nil {
			select {
			case c.events <- event{w: w, msg: m}:
				return true
			case <-c.done:
				return false
			}
		}
		select {
		case c.events <- event{w: w, err: err}:
		case <-c.done:
		}
		return false
	})
}

// kill terminates a worker abruptly; bookkeeping happens when its reader
// goroutine reports the death.
func (c *coordinator) kill(w *workerProc, reason string) {
	if w.killedFor == "" {
		w.killedFor = reason
	}
	if w.conn != nil {
		w.conn.Kill()
	}
}

// shutdownAll asks live workers to exit and kills whatever lingers. On an
// interrupted run (SIGINT/SIGTERM cancelled the context) there is no point
// being polite — a worker mid-trial will not read the shutdown frame until
// the trial finishes, which on a large scenario is exactly the window that
// leaves orphans behind the operator's ^C — so every live worker is killed
// outright and reaped before Execute returns.
func (c *coordinator) shutdownAll() {
	interrupted := c.opts.Ctx != nil && c.opts.Ctx.Err() != nil
	for _, w := range c.workers {
		if w != nil && w.live {
			if interrupted {
				c.kill(w, "run interrupted")
			} else {
				_ = w.conn.Write(&Message{Kind: KindShutdown})
			}
		}
	}
	// Clean workers exit on the shutdown frame within milliseconds; anything
	// slower is wedged and gets killed — every result is already streamed
	// and checkpointed, so there is nothing to flush. A kill on an
	// already-dead worker is a no-op, and the reader goroutines reap every
	// connection via Conn.Wait.
	const grace = 250 * time.Millisecond
	deadline := time.After(grace)
	live := func() int {
		n := 0
		for _, w := range c.workers {
			if w != nil && w.live {
				n++
			}
		}
		return n
	}
	for live() > 0 {
		select {
		case ev := <-c.events:
			if ev.msg == nil {
				c.handleExit(ev.w, ev.err)
			}
		case <-deadline:
			for _, w := range c.workers {
				if w != nil && w.live {
					c.kill(w, "shutdown deadline")
				}
			}
			deadline = time.After(grace)
			// One more drain round; if they still will not die we abandon
			// them to the reader goroutines, which reap on c.done.
			for live() > 0 {
				select {
				case ev := <-c.events:
					if ev.msg == nil {
						c.handleExit(ev.w, ev.err)
					}
				case <-deadline:
					return
				}
			}
			return
		}
	}
}
