package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/dist"
)

// command is one radiobfs subcommand: its dispatch name, the one-line
// synopsis shown by the top-level usage text, and its entry point.
type command struct {
	name     string
	synopsis string
	run      func(args []string) error
}

// commands is the subcommand registry, in listing order. main dispatches
// through it and usageText enumerates it, so adding an entry here is all it
// takes for a new subcommand to be both runnable and documented.
func commands() []command {
	return []command{
		{"run", "execute declarative scenario specs and persist their artifacts", runSpecs},
		{"serve", "serve spec execution over HTTP: pooled scheduling, SSE progress, result cache", runServe},
		{"submit", "submit a spec to a serve daemon, follow progress, fetch the artifacts", runSubmit},
		{"work", "distributed-run worker: spawned by run -dist, or dialing a coordinator with -connect", runWork},
	}
}

// runWork is the worker half of the distributed-run protocol. Without flags
// it serves trial leases over stdin/stdout (the mode `run -dist` spawns);
// with -connect it dials a coordinator's -listen address over TCP,
// authenticates with -token, and serves leases until the run completes.
func runWork(args []string) error {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	connect := fs.String("connect", "", "coordinator host:port to dial (from its run -listen flag); omitted = pipe mode over stdin/stdout")
	token := fs.String("token", "", "shared secret matching the coordinator's -token (required with -connect)")
	persist := fs.Bool("persist", false, "after a run completes, reconnect and wait for the next one (for serve daemons); default is to exit")
	retries := fs.Int("retries", 10, "consecutive failed connection attempts before giving up")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: radiobfs work [-connect host:port -token T [-persist] [-retries N]]")
		fmt.Fprintln(fs.Output(), "Serves trial leases for a distributed run. Without -connect it speaks the")
		fmt.Fprintln(fs.Output(), "protocol over stdin/stdout and is spawned by `radiobfs run -dist`, never by")
		fmt.Fprintln(fs.Output(), "hand. With -connect it is a remote worker dialing a coordinator started")
		fmt.Fprintln(fs.Output(), "with `radiobfs run -dist -listen ... -token ...`. Flags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) > 0 {
		return fmt.Errorf("work takes no positional arguments")
	}
	if *connect == "" {
		if *token != "" || *persist {
			return fmt.Errorf("-token and -persist require -connect")
		}
		return dist.ServeWorker(os.Stdin, os.Stdout)
	}
	if *token == "" {
		return fmt.Errorf("-connect requires -token")
	}
	return dist.RemoteWorker{
		Addr:    *connect,
		Token:   *token,
		Persist: *persist,
		Retries: *retries,
		Log:     os.Stderr,
	}.Run()
}

// usageText renders the top-level usage: every registered subcommand plus
// the flag-driven single-shot mode.
func usageText() string {
	var b strings.Builder
	b.WriteString("usage: radiobfs <command> [flags] [args]\n")
	b.WriteString("       radiobfs [flags]           (single-shot: one algorithm on one generated graph)\n")
	b.WriteString("\ncommands:\n")
	for _, c := range commands() {
		fmt.Fprintf(&b, "  %-8s %s\n", c.name, c.synopsis)
	}
	b.WriteString("\nRun 'radiobfs <command> -h' for a command's flags, 'radiobfs -h' for the\n")
	b.WriteString("single-shot flags, and 'radiobfs -algo help' for the algorithm registry.\n")
	return b.String()
}
