package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/spec"
)

// Probe sizes: enough repetitions for a steady median, few enough that the
// fsync probe stays well under a second on a slow disk.
const (
	hashReps     = 2000
	frameReps    = 5000
	syncAppends  = 200
	batchAppends = 2000
	batchSync    = 10 * time.Millisecond
)

// trafficFreeProbes times the layer calls that need no traffic: the spec's
// canonical hash, a journal append at SyncInterval 0 and batched (on the
// filesystem holding dir), and a dist result frame's write + read.
func trafficFreeProbes(f *spec.File, dir string, res harness.Result) []metric {
	hash := repeat(hashReps, func() { f.CanonicalHash() })
	doc, _ := f.Encode()
	syncUs, syncErr := journalAppend(dir, doc, 0, syncAppends)
	batchUs, batchErr := journalAppend(dir, doc, batchSync, batchAppends)
	for _, err := range []error{syncErr, batchErr} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: journal probe:", err)
		}
	}
	frame, frameErr := frameRoundTrip(res)
	if frameErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: frame probe:", frameErr)
	}
	return []metric{
		{"spec.canonical_hash_us", us(quantile(hash, 0.5)), "us", hashReps},
		{"journal.append_sync_us_p50", us(quantile(syncUs, 0.5)), "us", len(syncUs)},
		{"journal.append_batched_us_p50", us(quantile(batchUs, 0.5)), "us", len(batchUs)},
		{"dist.frame_rt_us", us(quantile(frame, 0.5)), "us", len(frame)},
	}
}

func us(msValue float64) float64 { return msValue * 1000 }

// repeat times n calls of fn, in milliseconds each.
func repeat(n int, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		fn()
		out[i] = ms(time.Since(start))
	}
	return out
}

// journalAppend creates a journal under dir and times n appends of rec, the
// size of a serve job's submit record.
func journalAppend(dir string, rec []byte, interval time.Duration, n int) ([]float64, error) {
	path := filepath.Join(dir, fmt.Sprintf("probe-%d.journal", interval))
	j, err := journal.Create(path, []byte(`{"format":"perfbench-probe"}`), journal.Options{SyncInterval: interval})
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := j.Append(rec); err != nil {
			j.Close()
			return out, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, j.Close()
}

// frameRoundTrip times FrameWriter.Write + FrameReader.Read of the result
// frame a worker sends for res.
func frameRoundTrip(res harness.Result) ([]float64, error) {
	var buf bytes.Buffer
	fw, fr := dist.NewFrameWriter(&buf), dist.NewFrameReader(&buf)
	m := &dist.Message{Kind: dist.KindResult, LeaseID: 7, Slot: 42, Seed: res.Seed, Metrics: res.Metrics, TrialErr: res.Err}
	out := make([]float64, 0, frameReps)
	for i := 0; i < frameReps; i++ {
		start := time.Now()
		if err := fw.Write(m); err != nil {
			return out, err
		}
		if _, err := fr.Read(); err != nil {
			return out, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

// serviceLayers are the serve and dist metrics; layers the in-process
// workloads never reach report them as 0.
var serviceLayers = []metric{
	{name: "serve.submit_ms_p50", unit: "ms"},
	{name: "serve.queue_ms_p50", unit: "ms"},
	{name: "serve.exec_ms_p50", unit: "ms"},
	{name: "serve.fetch_ms_p50", unit: "ms"},
	{name: "serve.hit_submit_ms_p50", unit: "ms"},
	{name: "serve.executions_per_cold", unit: "count"},
	{name: "dist.lease_rtt_ms_p50", unit: "ms"},
	{name: "dist.grants_per_job", unit: "count"},
	{name: "dist.revocations_per_job", unit: "count"},
	{name: "dist.worker_starts_per_job", unit: "count"},
	{name: "dist.slot_efficiency", unit: "fraction"},
}
