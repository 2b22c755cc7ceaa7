package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/spec"
)

// defaultHeartbeatMS is the worker heartbeat interval when the hello frame
// does not set one.
const defaultHeartbeatMS = 500

// Sentinel outcomes of one served connection.
var (
	// errShutdown: the coordinator ended the run cleanly.
	errShutdown = errors.New("dist worker: coordinator shutdown")
	// errChaosDisconnect: the incarnation's fault plan severed the
	// connection; a remote worker reconnects as a fresh incarnation.
	errChaosDisconnect = errors.New("dist worker: chaos disconnect")
	// errParkedEOF: an authenticated connection closed while parked, before
	// the coordinator attached it — the run ended without needing this
	// worker.
	errParkedEOF = errors.New("dist worker: connection closed while parked — the coordinator ended its run or closed its listener before attaching this worker")
)

// ServeWorker runs the worker half of the protocol over (in, out) —
// normally the process's stdin/stdout under `radiobfs work`. It reads the
// hello, compiles the spec against the worker's own embedded registries,
// expands the identical canonical trial list the coordinator holds, and
// then serves leases until shutdown or EOF, streaming every result frame
// the moment its trial settles.
//
// Chaos faults are honored here: once the incarnation has completed its
// seeded number of trials, a kill plan exits the process with ChaosExitCode
// and a stall plan silences the heartbeat and hangs — after the triggering
// trial's result frame is already flushed, so injected failures never lose
// completed work. A disconnect plan severs the transport: over pipes that
// is indistinguishable from a kill, so it exits with ChaosExitCode too;
// remote workers instead drop the socket and redial (see RemoteWorker). A
// corrupt plan flips bytes in one result frame after its CRC32 was computed
// — the coordinator's reader reports a typed checksum failure — and then
// severs the transport the same way a disconnect does.
func ServeWorker(in io.Reader, out io.Writer) error {
	fr := NewFrameReader(in)
	fw := NewFrameWriter(out)
	m, err := fr.Read()
	if err != nil {
		return fmt.Errorf("dist worker: reading hello: %w", err)
	}
	if m.Kind != KindHello || m.Hello == nil {
		return fmt.Errorf("dist worker: first frame is %q, want hello", m.Kind)
	}
	err = serveHello(fr, fw, m.Hello, false)
	if err == errShutdown || err == io.EOF || err == errChaosDisconnect {
		// errChaosDisconnect is unreachable over pipes (serveHello exits),
		// but mapping it keeps the contract obvious.
		return nil
	}
	return err
}

// serveHello is the shared post-hello worker loop: compile, ready,
// heartbeat, then serve leases until the connection ends. remote selects
// how a chaos disconnect manifests (severed socket vs process exit).
func serveHello(fr *FrameReader, fw *FrameWriter, h *Hello, remote bool) error {
	f, err := spec.Parse(bytes.NewReader(h.Spec))
	if err != nil {
		return fmt.Errorf("dist worker: %w", err)
	}
	scs, err := spec.Compile(f, spec.Options{Quick: h.Quick})
	if err != nil {
		return fmt.Errorf("dist worker: %w", err)
	}
	root := h.Root
	if root == 0 {
		root = f.RootSeed()
	}
	runner := harness.Runner{Root: root}
	st := runner.Stream(scs...)
	total := len(st.Trials())
	fault := h.Chaos.Plan(h.Worker)
	if err := fw.Write(&Message{Kind: KindReady}); err != nil {
		return err
	}

	// Heartbeats ride a timer goroutine sharing the frame writer's lock
	// with the result stream; stopHB silences it exactly once (the stall
	// fault and the normal return paths both go through it).
	hbStop := make(chan struct{})
	stopped := false
	stopHB := func() {
		if !stopped {
			stopped = true
			close(hbStop)
		}
	}
	defer stopHB()
	interval := time.Duration(h.HeartbeatMS) * time.Millisecond
	if interval <= 0 {
		interval = defaultHeartbeatMS * time.Millisecond
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				// A failed write means the coordinator is gone; the main
				// loop notices on its next read.
				_ = fw.Write(&Message{Kind: KindHeartbeat})
			case <-hbStop:
				return
			}
		}
	}()

	completed := 0
	disconnected := false
	for {
		m, err := fr.Read()
		if err == io.EOF {
			return io.EOF // coordinator closed the connection
		}
		if err != nil {
			return fmt.Errorf("dist worker: %w", err)
		}
		switch m.Kind {
		case KindLease:
			l := m.Lease
			if l == nil || l.Start < 0 || l.End > total || l.Start > l.End {
				return fmt.Errorf("dist worker: bad lease frame %+v over %d trials", m.Lease, total)
			}
			skip := make(map[int]bool, len(l.Skip))
			for _, s := range l.Skip {
				skip[s] = true
			}
			// A disconnect fault must unwind cleanly through the trial
			// stream (unlike kill/stall, the process lives on), so it
			// cancels this context between trials.
			ctx, cancel := context.WithCancel(context.Background())
			var writeErr error
			err := st.RunRange(ctx, l.Start, l.End,
				func(slot int) bool { return skip[slot] },
				func(ref harness.TrialRef, res harness.Result) {
					if writeErr != nil || disconnected {
						return
					}
					if fault.Delay > 0 {
						// Injected link latency: results arrive late, but
						// the heartbeat goroutine keeps the lease alive, so
						// a slow link is never revoked, and the bytes never
						// change.
						time.Sleep(fault.Delay)
					}
					// A corrupt fault damages the frame AFTER the planned
					// number of good ones — never the first — so every
					// incarnation still lands completed work and chaos
					// sweeps converge even at corrupt=100.
					corrupting := fault.Kind == FaultCorrupt && completed >= fault.After
					if corrupting {
						fw.CorruptNext()
					}
					writeErr = fw.Write(&Message{
						Kind:     KindResult,
						LeaseID:  l.ID,
						Slot:     ref.Slot,
						Seed:     ref.Trial.Seed,
						Metrics:  res.Metrics,
						TrialErr: res.Err,
					})
					completed++
					if corrupting {
						// The stream cannot resynchronize past a lying body,
						// so a corrupting worker severs like a disconnect:
						// pipes exit, remote drops the socket and redials.
						if !remote {
							os.Exit(ChaosExitCode)
						}
						disconnected = true
						cancel()
						return
					}
					if fault.Kind != FaultNone && completed >= fault.After {
						switch fault.Kind {
						case FaultKill:
							os.Exit(ChaosExitCode)
						case FaultStall:
							// Wedge silently: heartbeats stop but the process
							// stays alive until the coordinator's liveness
							// check kills it. A timer loop, not `select {}` —
							// with every goroutine blocked the runtime would
							// call it a deadlock and crash, turning the
							// injected stall into a plain kill.
							stopHB()
							for {
								time.Sleep(time.Hour)
							}
						case FaultDisconnect:
							if !remote {
								// Over pipes a severed transport and a dead
								// process look identical to the coordinator.
								os.Exit(ChaosExitCode)
							}
							disconnected = true
							cancel()
						}
					}
				})
			cancel()
			if disconnected {
				return errChaosDisconnect
			}
			if err != nil {
				return fmt.Errorf("dist worker: lease %d: %w", l.ID, err)
			}
			if writeErr != nil {
				return fmt.Errorf("dist worker: lease %d: %w", l.ID, writeErr)
			}
			if err := fw.Write(&Message{Kind: KindLeaseDone, LeaseID: l.ID}); err != nil {
				return err
			}
		case KindShutdown:
			return errShutdown
		default:
			return fmt.Errorf("dist worker: unexpected %q frame", m.Kind)
		}
	}
}
