package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/serve"
	"repro/internal/spec"
)

// runServe implements `radiobfs serve`: a long-lived HTTP daemon that
// executes submitted scenario specs on a shared pooled runner behind
// admission control, streams per-job progress over SSE, and answers repeat
// submissions from a content-addressed artifact cache. See internal/serve
// for the API and DESIGN.md for the serving-layer rationale.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8370", "listen address (use :0 for an ephemeral port with -addrfile)")
	store := fs.String("store", "serve-store", "content-addressed artifact cache directory")
	workers := fs.Int("workers", 0, "concurrent trials within one job (0 = GOMAXPROCS, 1 = sequential); never changes output bytes")
	execs := fs.Int("execs", 1, "jobs executing concurrently on the shared runner")
	queueCap := fs.Int("queue", 64, "pending-job queue bound; a full queue answers 429")
	maxClient := fs.Int("maxclient", 8, "per-client in-flight job cap; exceeding it answers 429")
	heartbeat := fs.Duration("heartbeat", 15*time.Second, "SSE keep-alive comment interval")
	addrFile := fs.String("addrfile", "", "write the bound address to this file once listening (for scripts using an ephemeral port)")
	distListen := fs.String("dist-listen", "", "host:port to accept remote sweep workers on; jobs then execute across `radiobfs work -connect` workers instead of in-process (requires -dist-token)")
	distToken := fs.String("dist-token", "", "shared secret remote workers must prove (required with -dist-listen)")
	distWorkers := fs.Int("dist-workers", 0, "worker slots per job under -dist-listen (0 = GOMAXPROCS)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: radiobfs serve [flags]")
		fmt.Fprintln(fs.Output(), "Serves spec execution over HTTP/JSON: POST /v1/jobs to submit, GET")
		fmt.Fprintln(fs.Output(), "/v1/jobs/{id}/events for SSE progress, GET /v1/artifacts/{key}/{name}")
		fmt.Fprintln(fs.Output(), "for cached results. Flags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("serve takes no positional arguments (got %q)", fs.Args())
	}

	cfg := serve.Config{
		Store:        *store,
		Workers:      *workers,
		Execs:        *execs,
		QueueCap:     *queueCap,
		MaxPerClient: *maxClient,
		Heartbeat:    *heartbeat,
		Log:          os.Stderr,
	}
	if *distListen != "" {
		if *distToken == "" {
			return fmt.Errorf("-dist-listen requires -dist-token")
		}
		// One listener shared across every job: workers started with
		// -persist drain successive jobs, reconnecting after each run's
		// clean shutdown. Each job's coordinator borrows the transport and
		// must not close it; serve owns its lifetime.
		tr, err := dist.Listen(*distListen, dist.ListenConfig{Token: *distToken, Log: os.Stderr})
		if err != nil {
			return err
		}
		defer tr.Close()
		fmt.Fprintf(os.Stderr, "serve: accepting sweep workers on %s\n", tr.Addr())
		dcfg := dist.Config{
			Workers:   *distWorkers,
			Transport: tr,
			Log:       os.Stderr,
			// A worker-less daemon should degrade to in-process execution
			// quickly rather than stall every job for the full minute.
			ConnectWait: 3 * time.Second,
		}
		cfg.Execute = func(f *spec.File, root uint64, opts spec.Options) (*spec.Output, error) {
			return dist.Execute(f, root, opts, dcfg)
		}
	} else if *distToken != "" || *distWorkers != 0 {
		return fmt.Errorf("-dist-token and -dist-workers require -dist-listen")
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s, store %s, execs %d, queue %d\n",
		ln.Addr(), *store, *execs, *queueCap)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			srv.Close()
			return err
		}
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "serve: shutting down")
		// Settle the jobs first: canceling them closes their event logs, so
		// in-flight SSE streams end and Shutdown can drain the connections.
		srv.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		return nil
	case err := <-errc:
		srv.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
