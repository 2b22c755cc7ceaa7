package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// RemoteWorker is the dialing half of the TCP transport: `radiobfs work
// -connect host:port -token T`. It dials the coordinator, passes the
// challenge/auth handshake, and serves leases exactly like a pipe worker;
// when the connection drops it redials with capped exponential backoff and
// rejoins as a fresh incarnation (the coordinator already revoked and
// re-queued whatever it was holding, and the acked-slot checkpoint makes
// the rejoin loss-free).
type RemoteWorker struct {
	// Addr is the coordinator's listen address (host:port).
	Addr string
	// Token is the shared secret proven during the handshake.
	Token string
	// Persist keeps the worker retrying once its coordinator is gone.
	// Every worker redials after a run's clean shutdown and parks for the
	// next run while the coordinator still listens (`radiobfs run -listen
	// a.json b.json` runs one Execute per spec); without Persist, a redial
	// the coordinator no longer answers ends the worker cleanly. With it,
	// the worker spends its retry budget waiting for a listener to come
	// back, the mode for a fleet that outlives a serve daemon's restarts.
	Persist bool
	// Retries bounds consecutive failed connection attempts (dial errors,
	// dropped handshakes) before the worker gives up (default 10). A
	// typed handshake rejection is terminal immediately — retrying cannot
	// fix a wrong token or a version skew.
	Retries int
	// BackoffBase/BackoffMax shape the capped exponential redial backoff
	// (defaults 100ms / 5s), reset by any successfully served connection.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Log receives connection lifecycle lines (default: discard).
	Log io.Writer
	// Version overrides the build's handshake versions; zero = this
	// build. Tests inject skews here.
	Version VersionInfo
}

func (rw RemoteWorker) withDefaults() RemoteWorker {
	if rw.Retries <= 0 {
		rw.Retries = 10
	}
	if rw.BackoffBase <= 0 {
		rw.BackoffBase = 100 * time.Millisecond
	}
	if rw.BackoffMax <= 0 {
		rw.BackoffMax = 5 * time.Second
	}
	if rw.Log == nil {
		rw.Log = io.Discard
	}
	return rw
}

// Run serves the coordinator's runs until the coordinator is gone after
// serving at least one (nil, unless Persist), a terminal handshake
// rejection (*RejectedError), or the retry budget is exhausted.
func (rw RemoteWorker) Run() error {
	rw = rw.withDefaults()
	fails := 0
	served := false
	backoff := func() time.Duration {
		d := rw.BackoffBase
		for i := 1; i < fails; i++ {
			d *= 2
			if d >= rw.BackoffMax {
				return rw.BackoffMax
			}
		}
		return d
	}
	for {
		err := rw.serveOnce()
		switch {
		case err == nil:
			fails = 0
			served = true
			fmt.Fprintf(rw.Log, "dist worker: run complete; reconnecting to %s for the next one\n", rw.Addr)
		case err == errChaosDisconnect:
			// The fault plan severed the socket on purpose; rejoin
			// immediately as a fresh incarnation.
			fails = 0
			served = true
			fmt.Fprintf(rw.Log, "dist worker: chaos disconnect; redialing %s\n", rw.Addr)
		default:
			var rej *RejectedError
			if errors.As(err, &rej) {
				return err
			}
			if served && !rw.Persist {
				// A worker without Persist serves one coordinator; once it
				// has served and the coordinator is unreachable, its runs
				// are over — exit clean rather than burn retries against a
				// listener that is gone.
				fmt.Fprintf(rw.Log, "dist worker: %v; coordinator gone, treating the run as complete\n", err)
				return nil
			}
			fails++
			if fails > rw.Retries {
				return fmt.Errorf("dist worker: giving up on %s after %d consecutive failures: %w", rw.Addr, fails-1, err)
			}
			d := backoff()
			fmt.Fprintf(rw.Log, "dist worker: %v; redialing %s in %v (%d/%d)\n", err, rw.Addr, d, fails, rw.Retries)
			time.Sleep(d)
		}
	}
}

// serveOnce runs one connection lifecycle: dial, handshake, serve leases.
// nil means the coordinator ended the run cleanly (shutdown frame, or EOF
// after the run — a closed parked connection).
func (rw RemoteWorker) serveOnce() error {
	c, err := net.Dial("tcp", rw.Addr)
	if err != nil {
		return err
	}
	defer c.Close()
	fr, fw := NewFrameReader(c), NewFrameWriter(c)
	m, v, err := clientHandshake(fr, fw, rw.Token, rw.Version)
	if err == errParkedEOF {
		fmt.Fprintln(rw.Log, err)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(rw.Log, "dist worker: authenticated to %s (proto v%d, code %s)\n", rw.Addr, v.Proto, v.Code)
	// The frame after the handshake arrives when the coordinator attaches
	// this connection to a worker slot: normally the hello, or shutdown if
	// the run ended while we were parked.
	switch m.Kind {
	case KindHello:
		if m.Hello == nil {
			return fmt.Errorf("dist worker: hello frame without a payload")
		}
	case KindShutdown:
		return nil
	default:
		return fmt.Errorf("dist worker: post-handshake frame is %q, want hello", m.Kind)
	}
	err = serveHello(fr, fw, m.Hello, true)
	if err == errShutdown || err == io.EOF {
		return nil
	}
	return err
}
