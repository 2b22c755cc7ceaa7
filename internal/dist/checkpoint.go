package dist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/spec"
)

// Durable checkpointing for the coordinator: with Config.CheckpointDir set,
// every acked trial is appended to an on-disk journal BEFORE the in-memory
// bitmap ack, so a coordinator that dies — OOM, node reboot, SIGKILL —
// loses at most the unsynced tail of its progress, never the run. A restart
// against the same directory replays the journal, verifies it belongs to
// the identical run (spec hash, code version, root seed, quick mode, trial
// count — a mismatch is a typed refusal in the same style as the handshake
// rejects), rebuilds the ack bitmap, and re-leases only the unacked slots.
//
// The byte-identity argument from the lease table extends verbatim: a
// trial's Result is a pure function of its Trial value, the journal record
// preserves the exact metrics the trial settled with (float64s survive the
// JSON round trip byte-for-byte via Go's shortest-representation encoding,
// the same property the worker result frames already rely on), and merged
// results live in canonical slot order — so a resumed run's artifacts are
// indistinguishable from an uninterrupted one's.

// checkpointFile is the journal's name inside CheckpointDir.
const checkpointFile = "run.journal"

// checkpointFormat versions the journal payloads themselves, independent of
// the frame protocol.
const checkpointFormat = "radiobfs-dist-checkpoint/v1"

// checkpointIdentity is the journal's header frame: everything that must
// match before replaying a single record, because results from a different
// spec, binary, seed, or trial expansion would silently poison the merge.
type checkpointIdentity struct {
	Format   string `json:"format"`
	SpecHash string `json:"specHash"`
	Code     string `json:"code"`
	Root     uint64 `json:"root"`
	Quick    bool   `json:"quick,omitempty"`
	Trials   int    `json:"trials"`
}

// checkpointRecord is one acked slot: the same fields a worker's result
// frame carries, which is what makes replay equivalent to re-receiving it.
type checkpointRecord struct {
	Slot     int                `json:"slot"`
	Seed     uint64             `json:"seed"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	TrialErr string             `json:"trialErr,omitempty"`
}

// CheckpointMismatchError is the typed refusal for a checkpoint directory
// that belongs to a different run. Like a handshake rejection, it is
// terminal and operator-facing: retrying cannot help until the inputs match
// or the checkpoint moves aside.
type CheckpointMismatchError struct {
	Path  string // journal file refused
	Field string // which identity field disagreed
	Want  string // this run's value
	Got   string // the journal's value
}

func (e *CheckpointMismatchError) Error() string {
	return fmt.Sprintf("dist: checkpoint %s was written by a different run (%s: journal has %s, this run has %s) — resume with the original spec, binary, and seed, or point -checkpoint at a fresh directory",
		e.Path, e.Field, e.Got, e.Want)
}

// openCheckpoint creates or resumes the run journal in cfg.CheckpointDir.
// On resume it verifies identity, replays every surviving record into the
// ack bitmap and result slice, and marks fully-replayed leases done so the
// scheduler re-leases only unacked slots.
func (c *coordinator) openCheckpoint() error {
	dir := c.cfg.CheckpointDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dist: checkpoint: %w", err)
	}
	hash, err := c.file.CanonicalHash()
	if err != nil {
		return err
	}
	id := checkpointIdentity{
		Format:   checkpointFormat,
		SpecHash: hash,
		Code:     spec.CodeVersion(),
		Root:     c.root,
		Quick:    c.opts.Quick,
		Trials:   len(c.refs),
	}
	path := filepath.Join(dir, checkpointFile)
	// Every append fsyncs before the trial counts as acked.
	var opts journal.Options
	if _, err := os.Stat(path); os.IsNotExist(err) {
		header, err := json.Marshal(id)
		if err != nil {
			return fmt.Errorf("dist: checkpoint: %w", err)
		}
		c.jn, err = journal.Create(path, header, opts)
		if err != nil {
			return err
		}
		return nil
	}
	c.jn, err = journal.Recover(path,
		func(header []byte) error { return checkIdentity(path, header, id) },
		func(rec []byte) error { return c.replayRecord(path, rec) },
		opts)
	if err != nil {
		return err
	}
	for _, l := range c.tbl.leases {
		if !l.done && c.tbl.remaining(l) == 0 {
			l.done = true
		}
	}
	if c.replayed > 0 {
		fmt.Fprintf(c.cfg.Log, "dist: checkpoint %s: resumed %d of %d trials; re-leasing the remaining %d\n",
			path, c.replayed, len(c.refs), len(c.refs)-c.replayed)
	}
	return nil
}

// checkIdentity compares the journal's header against this run's identity,
// field by field, so the refusal names exactly what diverged.
func checkIdentity(path string, header []byte, want checkpointIdentity) error {
	var got checkpointIdentity
	if err := json.Unmarshal(header, &got); err != nil {
		return &journal.CorruptError{Path: path, Offset: 0, Reason: "undecodable identity header: " + err.Error()}
	}
	mismatch := func(field, w, g string) error {
		return &CheckpointMismatchError{Path: path, Field: field, Want: w, Got: g}
	}
	switch {
	case got.Format != want.Format:
		return mismatch("format", want.Format, got.Format)
	case got.SpecHash != want.SpecHash:
		return mismatch("spec hash", want.SpecHash, got.SpecHash)
	case got.Code != want.Code:
		return mismatch("code version", want.Code, got.Code)
	case got.Root != want.Root:
		return mismatch("root seed", fmt.Sprint(want.Root), fmt.Sprint(got.Root))
	case got.Quick != want.Quick:
		return mismatch("quick mode", fmt.Sprint(want.Quick), fmt.Sprint(got.Quick))
	case got.Trials != want.Trials:
		return mismatch("trial count", fmt.Sprint(want.Trials), fmt.Sprint(got.Trials))
	}
	return nil
}

// replayRecord applies one journaled ack during recovery.
func (c *coordinator) replayRecord(path string, rec []byte) error {
	var r checkpointRecord
	if err := json.Unmarshal(rec, &r); err != nil {
		return fmt.Errorf("dist: checkpoint %s: undecodable record: %w", path, err)
	}
	if r.Slot < 0 || r.Slot >= len(c.refs) {
		return fmt.Errorf("dist: checkpoint %s: record for slot %d outside [0, %d)", path, r.Slot, len(c.refs))
	}
	if want := c.refs[r.Slot].Trial.Seed; r.Seed != want {
		// The identity header matched but a record's trial seed does not:
		// the journal and this run disagree on the expansion itself.
		return &CheckpointMismatchError{Path: path, Field: fmt.Sprintf("slot %d trial seed", r.Slot),
			Want: fmt.Sprint(want), Got: fmt.Sprint(r.Seed)}
	}
	if c.tbl.ack(r.Slot) {
		c.results[r.Slot] = harness.Result{Trial: c.refs[r.Slot].Trial, Metrics: r.Metrics, Err: r.TrialErr}
		c.replayed++
	}
	return nil
}

// checkpointAppend journals one freshly settled slot BEFORE the caller acks
// it in memory — the ordering that makes the bitmap a subset of the journal
// and therefore makes crashes lossless. Returns false (with c.fatal set)
// when the journal write fails: continuing without durability would let a
// later crash silently shed completed trials the operator believes are
// safe. With no journal configured it is a no-op.
//
// This is also where coordinator-side chaos lives: after CoordKill
// checkpointed trials, the journal is synced and the process SIGKILLs
// itself — the hardest crash there is, straight through the resume path.
func (c *coordinator) checkpointAppend(slot int, metrics map[string]float64, trialErr string) bool {
	if c.jn == nil {
		return true
	}
	rec, err := json.Marshal(checkpointRecord{Slot: slot, Seed: c.refs[slot].Trial.Seed, Metrics: metrics, TrialErr: trialErr})
	if err != nil {
		c.fatal = fmt.Errorf("dist: checkpoint: %w", err)
		return false
	}
	if err := c.jn.Append(rec); err != nil {
		c.fatal = fmt.Errorf("dist: checkpoint: %w", err)
		return false
	}
	c.ckptAppends++
	if k := c.cfg.Chaos.CoordKill; k > 0 && c.ckptAppends >= k {
		_ = c.jn.Sync()
		fmt.Fprintf(c.cfg.Log, "dist: chaos: coordkill firing after %d checkpointed trials\n", c.ckptAppends)
		if p, err := os.FindProcess(os.Getpid()); err == nil {
			_ = p.Kill() // SIGKILL: no deferred cleanup, no Close — the real crash
		}
	}
	return true
}
