// Command mdmserve is the long-lived simulation daemon: an HTTP/JSON service
// that admits, schedules and supervises concurrent NaCl simulation sessions
// for multiple tenants, journaling and checkpointing every session so that
// killing the server and restarting it resumes every interrupted run at its
// exact committed step.
//
//	mdmserve -addr :8488 -root /var/lib/mdm
//
// Submit a session and watch it:
//
//	curl -s -X POST localhost:8488/v1/sessions \
//	     -d '{"tenant":"alice","cells":2,"steps":200}'
//	curl -s localhost:8488/v1/sessions/s0001
//	curl -s localhost:8488/v1/sessions/s0001/observables?since=100
//
// A tenant whose sessions fail 3 times within 20 admission ticks is
// quarantined by its circuit breaker (503) for 8 ticks, doubling on every
// failed probe; the policy is fixed, not a flag.
//
// Signal contract: the first SIGINT/SIGTERM drains — admission stops (503),
// running sessions finish their step and wait for its journal record to be
// durable, final checkpoints are written — then the drain summary is printed
// (and written to -summary if set) and the process exits 0. A second signal
// kills the process immediately (exit 130). Startup errors exit 1, usage
// errors 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"mdm/internal/lifecycle"
	"mdm/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8488", "listen address")
	root := flag.String("root", "mdmserve-data", "run-directory root (sessions live in <root>/<tenant>/<id>)")
	executors := flag.Int("executors", 2, "concurrent session executors")
	workerBudget := flag.Int("worker-budget", 0, "total simulation worker budget shared by all executors (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 16, "admission queue capacity")
	admitWait := flag.Duration("admit-wait", 100*time.Millisecond, "bounded wait for a queue slot before a 503")
	ckptEvery := flag.Int("checkpoint-every", 8, "steps between checkpoint commits")
	maxSteps := flag.Int("max-steps", 100000, "server-side per-session step budget")
	maxSessions := flag.Int("tenant-max-sessions", 8, "per-tenant live-session quota (0 = unlimited)")
	maxQueued := flag.Int("tenant-max-queued", 4, "per-tenant queued-session quota (0 = unlimited)")
	maxPSteps := flag.Int64("tenant-max-particle-steps", 0, "per-tenant lifetime particle-step budget (0 = unlimited)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429/503 rejections")
	summaryPath := flag.String("summary", "", "write the machine-readable drain summary to this file")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	mgr, err := serve.Open(serve.Config{
		Root:            *root,
		Executors:       *executors,
		WorkerBudget:    *workerBudget,
		QueueDepth:      *queueDepth,
		AdmitWait:       *admitWait,
		CheckpointEvery: *ckptEvery,
		MaxSessionSteps: *maxSteps,
		Quota: serve.Quota{
			MaxSessions:      *maxSessions,
			MaxQueued:        *maxQueued,
			MaxParticleSteps: *maxPSteps,
		},
		RetryAfter: *retryAfter,
		Logf:       logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	srv := mgr.Server(*addr)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// The resolved address is part of the startup contract: with -addr :0
	// the supervising process (or test) reads it from stdout.
	fmt.Printf("mdmserve: listening on %s, root %s\n", ln.Addr(), *root)

	// Graceful drain: the first signal stops admission and interrupts
	// sessions at their next committed step; a second signal exits 130.
	done := make(chan struct{})
	sd := lifecycle.Watch(func() { close(done) })
	defer sd.Stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, err)
		mgr.Close()
		return 1
	case <-done:
	}

	sum := mgr.Drain()
	_ = srv.Close()
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
	}
	fmt.Printf("mdmserve: drained: %d interrupted, %d queued, sessions %v\n",
		len(sum.Interrupted), len(sum.Queued), sum.Sessions)
	if *summaryPath != "" {
		if err := lifecycle.WriteSummary(*summaryPath, sum); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}
