package dist

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
)

// startRemoteWorkers launches n real worker processes (this test binary in
// dist-remote-worker mode) dialing addr with token, and returns a wait
// function collecting their exits.
func startRemoteWorkers(t *testing.T, n int, addr, token string) func() []error {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	cmds := make([]*exec.Cmd, n)
	for i := range cmds {
		cmd := exec.Command(exe, "dist-remote-worker", addr, token)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting remote worker %d: %v", i, err)
		}
		cmds[i] = cmd
	}
	t.Cleanup(func() {
		for _, cmd := range cmds {
			if cmd.ProcessState == nil {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}
		}
	})
	return func() []error {
		errs := make([]error, n)
		for i, cmd := range cmds {
			errs[i] = cmd.Wait()
		}
		return errs
	}
}

// waitAuthenticated polls the transport log until n workers have passed
// the handshake.
func waitAuthenticated(t *testing.T, log *syncBuffer, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for strings.Count(log.String(), "worker authenticated from") < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers never authenticated:\n%s", n, log.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tcpExecute runs the spec over a loopback TCP transport with nw remote
// worker processes and returns the artifacts plus the coordinator log.
func tcpExecute(t *testing.T, f *spec.File, nw int, cfg Config) ([]byte, *syncBuffer) {
	t.Helper()
	var log syncBuffer
	tr, err := Listen("127.0.0.1:0", ListenConfig{Token: "s3cret", Log: &log})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer tr.Close()
	wait := startRemoteWorkers(t, nw, tr.Addr().String(), "s3cret")
	// Every worker is parked before the run starts. A worker process slow
	// to start could otherwise first dial after the run finished and the
	// listener closed, and exit with a failed dial that says nothing about
	// the run.
	waitAuthenticated(t, &log, nw)
	cfg.Transport = tr
	cfg.Log = &log
	out, err := Execute(f, 0, spec.Options{}, cfg)
	if err != nil {
		t.Fatalf("Execute over TCP: %v\nlog: %s", err, log.Bytes())
	}
	// Shutdown frames ended the attached workers; closing the transport
	// releases any parked worker awaiting an attach that will never come:
	// one the run finished without, or a chaos-disconnected one that
	// redialed after the run finished.
	tr.Close()
	for i, werr := range wait() {
		if werr != nil {
			t.Errorf("remote worker %d exit: %v\nlog: %s", i, werr, log.Bytes())
		}
	}
	return artifactBytes(t, out), &log
}

// TestTCPExecuteMatchesInProcess: a sweep over real remote worker processes
// on the loopback TCP transport produces artifacts byte-identical to the
// in-process runner's, and runs every lease exactly once.
func TestTCPExecuteMatchesInProcess(t *testing.T) {
	f := testFile()
	want := baseline(t, f)
	rec := &leaseRecorder{}
	got, log := tcpExecute(t, f, 3, Config{Workers: 3, Observer: rec})
	if !bytes.Equal(got, want) {
		t.Errorf("TCP artifacts differ from in-process run\nlog: %s", log.Bytes())
	}
	rec.checkOneGrantEach(t, testFileTrials)
	if !strings.Contains(log.String(), "worker authenticated from") {
		t.Errorf("coordinator log missing authentication lines: %s", log.String())
	}
}

// TestTCPChaosByteIdentity is the transport-level property test: across
// chaos seeds injecting mid-lease disconnects (workers drop the socket and
// redial as fresh incarnations) and per-trial link latency, the merged
// artifacts never change by a byte. Kill/stall chaos is exercised over the
// pipe transport, where the coordinator can respawn the process; over TCP a
// killed worker is simply gone, so the deterministic TCP chaos kinds are
// disconnect and delay.
func TestTCPChaosByteIdentity(t *testing.T) {
	f := testFile()
	want := baseline(t, f)
	for seed := uint64(1); seed <= 3; seed++ {
		got, log := tcpExecute(t, f, 3, Config{
			Workers:          3,
			LeaseSize:        3,
			Chaos:            ChaosSpec{Seed: seed, Disconnect: 3, DelayMS: 3},
			Heartbeat:        20 * time.Millisecond,
			HeartbeatTimeout: 500 * time.Millisecond,
			BackoffBase:      time.Millisecond,
		})
		if !bytes.Equal(got, want) {
			t.Errorf("chaos seed %d: TCP artifacts differ from unfaulted run\nlog: %s", seed, log.Bytes())
		}
	}
}

// TestTCPLatencyIsNotFailure: delay chaos slows every result without
// stopping heartbeats, so a worker behind a slow link must keep its
// leases — zero revocations — and the bytes never move.
func TestTCPLatencyIsNotFailure(t *testing.T) {
	f := testFile()
	rec := &leaseRecorder{}
	got, log := tcpExecute(t, f, 2, Config{
		Workers:          2,
		Chaos:            ChaosSpec{Seed: 7, DelayMS: 40},
		Heartbeat:        20 * time.Millisecond,
		HeartbeatTimeout: 2 * time.Second,
		Observer:         rec,
	})
	if !bytes.Equal(got, baseline(t, f)) {
		t.Errorf("latency-chaos artifacts differ from unfaulted run\nlog: %s", log.Bytes())
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.revoked != 0 {
		t.Errorf("injected latency caused %d revocations (%q); a slow link must not read as a dead worker\nlog: %s",
			rec.revoked, rec.revokeRe, log.Bytes())
	}
}

// TestTCPWrongTokenRejected: a worker with the wrong token must be turned
// away with the typed badToken rejection and exit non-zero — while the run,
// served by correctly-authenticated workers, completes unaffected.
func TestTCPWrongTokenRejected(t *testing.T) {
	f := testFile()
	want := baseline(t, f)
	var log syncBuffer
	tr, err := Listen("127.0.0.1:0", ListenConfig{Token: "s3cret", Log: &log})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer tr.Close()

	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	var evilErr bytes.Buffer
	evil := exec.Command(exe, "dist-remote-worker", tr.Addr().String(), "wrong-token")
	evil.Stderr = &evilErr
	if err := evil.Start(); err != nil {
		t.Fatalf("starting wrong-token worker: %v", err)
	}

	wait := startRemoteWorkers(t, 2, tr.Addr().String(), "s3cret")
	// Both workers are parked before the run starts. Counted after the run,
	// a served worker's redial would authenticate a second time, and could
	// stand in for a worker whose first dial then meets a closed listener.
	waitAuthenticated(t, &log, 2)
	out, err := Execute(f, 0, spec.Options{}, Config{Workers: 2, Transport: tr, Log: &log})
	if err != nil {
		t.Fatalf("Execute: %v\nlog: %s", err, log.Bytes())
	}
	if got := artifactBytes(t, out); !bytes.Equal(got, want) {
		t.Errorf("artifacts differ despite the rejected intruder\nlog: %s", log.Bytes())
	}
	evilWait := evil.Wait()
	if evilWait == nil {
		t.Error("wrong-token worker exited zero, want a rejection failure")
	}
	if !strings.Contains(evilErr.String(), "handshake rejected (badToken)") {
		t.Errorf("wrong-token worker stderr missing the typed rejection: %s", evilErr.String())
	}
	// The listener outlives the run, so a worker that redialed after the
	// run finished sits parked awaiting an attach that will never come;
	// closing the listener releases it with a clean exit.
	tr.Close()
	for i, werr := range wait() {
		if werr != nil {
			t.Errorf("authenticated worker %d exit: %v", i, werr)
		}
	}
	waitForLog(t, &log, "rejected worker from")
}

// TestTCPConnectWaitFallsBackInProcess: a listening coordinator nobody
// dials must not hang — after ConnectWait it finishes the sweep in-process
// with identical bytes and a warning.
func TestTCPConnectWaitFallsBackInProcess(t *testing.T) {
	f := testFile()
	want := baseline(t, f)
	var log syncBuffer
	tr, err := Listen("127.0.0.1:0", ListenConfig{Token: "s3cret", Log: &log})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer tr.Close()
	start := time.Now()
	out, err := Execute(f, 0, spec.Options{}, Config{
		Workers:     2,
		Transport:   tr,
		ConnectWait: 300 * time.Millisecond,
		Log:         &log,
	})
	if err != nil {
		t.Fatalf("Execute: %v\nlog: %s", err, log.Bytes())
	}
	if got := artifactBytes(t, out); !bytes.Equal(got, want) {
		t.Error("fallback artifacts differ from in-process run")
	}
	if !strings.Contains(log.String(), "no remote worker connected") {
		t.Errorf("missing connect-wait warning; log: %s", log.String())
	}
	if waited := time.Since(start); waited < 300*time.Millisecond {
		t.Errorf("fell back after %v, before ConnectWait elapsed", waited)
	}
}

// TestTCPWorkersServeSuccessiveRuns: remote workers without Persist serve
// every run of their coordinator, as `radiobfs run -listen ... a.json
// b.json` runs one Execute per spec over one listener. After the first
// run's clean shutdown each worker redials and parks, so the second run is
// served remotely instead of waiting out ConnectWait and finishing
// in-process; once the listener closes, the workers exit cleanly.
func TestTCPWorkersServeSuccessiveRuns(t *testing.T) {
	f := testFile()
	want := baseline(t, f)
	var log syncBuffer
	tr, err := Listen("127.0.0.1:0", ListenConfig{Token: "s3cret", Log: &log})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer tr.Close()
	wait := startRemoteWorkers(t, 2, tr.Addr().String(), "s3cret")
	waitAuthenticated(t, &log, 2)
	cfg := Config{Workers: 2, Transport: tr, ConnectWait: 3 * time.Second, Log: &log}
	for run := 1; run <= 2; run++ {
		out, err := Execute(f, 0, spec.Options{}, cfg)
		if err != nil {
			t.Fatalf("run %d: %v\nlog: %s", run, err, log.Bytes())
		}
		if got := artifactBytes(t, out); !bytes.Equal(got, want) {
			t.Errorf("run %d: TCP artifacts differ from in-process run", run)
		}
	}
	if strings.Contains(log.String(), "finishing the sweep in-process") {
		t.Errorf("a run finished in-process: its workers left after the first run\nlog: %s", log.Bytes())
	}
	tr.Close()
	for i, werr := range wait() {
		if werr != nil {
			t.Errorf("remote worker %d exit: %v\nlog: %s", i, werr, log.Bytes())
		}
	}
}
