// Package lifecycle owns the process-lifetime contracts shared by the
// long-running binaries (cmd/mdmsim, cmd/mdmserve): the two-signal graceful
// shutdown protocol and the machine-readable summary report.
//
// The two-signal contract, pinned by TestExitCodeContract:
//
//   - the first SIGINT/SIGTERM requests a graceful stop — the binary finishes
//     the committed step of every run it owns, flushes journals and final
//     checkpoints, writes its summary, and exits 0;
//   - a second signal kills the process immediately with exit code 130
//     (128 + SIGINT, the shell convention for an interrupted job).
//
// The contract matters because the layers underneath promise durability only
// at committed-step granularity: the write-ahead journal (§10) fsyncs each
// completed step, so "finish the current step, then stop" is exactly the
// window in which stopping is free. Killing mid-step is always safe too —
// that is what the crash matrix proves — but it wastes the partial step and
// forces a journal replay on restart, so the first signal is polite and only
// the second is violent.
package lifecycle

import (
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
)

// ExitKilled is the exit code of the second-signal hard kill: 128 + SIGINT,
// the shell convention for a process that died to an interrupt.
const ExitKilled = 130

// Shutdown is an installed two-signal watcher. Requested flips after the
// first signal; the second signal terminates the process with ExitKilled.
type Shutdown struct {
	requested atomic.Bool
	sigc      chan os.Signal
	exit      func(int) // os.Exit, injectable for tests
	logf      func(format string, args ...any)
}

// Option tunes a Watch call.
type Option func(*Shutdown)

// Watch installs the two-signal contract for SIGINT and SIGTERM: the first
// signal sets Requested and invokes onFirst (which may be nil); the second
// exits the process with ExitKilled. The returned Shutdown's Requested method
// is safe to poll from any goroutine — it is the natural argument to
// mdm.(*Simulation).SetInterrupt.
func Watch(onFirst func(), opts ...Option) *Shutdown {
	s := &Shutdown{
		sigc: make(chan os.Signal, 2),
		exit: os.Exit,
		logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	for _, opt := range opts {
		opt(s)
	}
	signal.Notify(s.sigc, os.Interrupt, syscall.SIGTERM)
	//mdm:gojoinok -- process-lifetime signal watcher; parked on sigc, detached by design (Stop releases it)
	go func() {
		if _, ok := <-s.sigc; !ok {
			return
		}
		s.requested.Store(true)
		s.logf("%s: signal received; finishing the committed step (repeat to kill)", prog())
		if onFirst != nil {
			onFirst()
		}
		if _, ok := <-s.sigc; !ok {
			return
		}
		s.logf("%s: killed", prog())
		s.exit(ExitKilled)
	}()
	return s
}

// Requested reports whether the first signal has arrived. It is the graceful
// stop predicate: poll it at committed-step boundaries.
func (s *Shutdown) Requested() bool { return s.requested.Load() }

// Stop uninstalls the watcher and releases its goroutine. The process reverts
// to default signal disposition.
func (s *Shutdown) Stop() {
	signal.Stop(s.sigc)
	close(s.sigc)
}

// prog names the running binary for the watcher's stderr lines.
func prog() string {
	if len(os.Args) == 0 || os.Args[0] == "" {
		return "mdm"
	}
	base := os.Args[0]
	for i := len(base) - 1; i >= 0; i-- {
		if base[i] == '/' {
			return base[i+1:]
		}
	}
	return base
}

// WriteSummary writes v as indented JSON to path — the machine-readable
// result contract of a run or a drain. An empty path is a no-op. The summary
// is a report, not durable run state: losing it on a crash costs nothing
// (the run is re-summarizable from its journal), so it takes the direct
// write path rather than the store layer's atomic-replace discipline.
func WriteSummary(path string, v any) error {
	if path == "" {
		return nil
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	//mdm:rawiook -- summary report: re-runnable output, not durable run state
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
