// Package supervise is the long-run supervision layer of the MDM
// reproduction. The paper's headline run held 2,304 ASICs busy for 36.5
// hours at 43.8 s/step (§5); over such a run the dangerous failures are the
// silent ones — a wedged board that never returns, a rank that stops making
// progress, a process killed between checkpoints. The recovery ladder in
// internal/core only reacts to *errors*; this package supplies the three
// mechanisms that turn silence into errors and bound the blast radius:
//
//   - Watchdog: one silence clock beaten by every hardware call and a monitor
//     that declares a stall after a configurable deadline, so a hung call is
//     converted into a retryable fault instead of blocking forever.
//   - BreakerSet: per-board and per-link circuit breakers
//     (closed → open → half-open, step-clock cooldowns with exponential
//     reopen backoff) so a chronically flaky component is quarantined up
//     front instead of paying a retry round-trip every step.
//   - Journal: a write-ahead step journal (CRC-32-framed, fsynced per
//     append) so a SIGKILL between checkpoints resumes at the exact step.
//
// The package is deliberately free of dependencies on the rest of the stack:
// internal/core wires a Watchdog and BreakerSet into its recovery ladder, and
// the top-level mdm package owns the Journal's payload format.
package supervise

import (
	"sync"
	"time"
)

// Watchdog detects stalls: every hardware call beats it, and a monitor
// goroutine declares a stall once the watchdog has been silent longer than
// the deadline, invoking the registered OnStall callbacks. Arm/Disarm
// bracket the window in which silence is meaningful (a hardware step in
// flight); outside it the monitor stays quiet, so idle time between steps or
// after the run never counts as a stall.
//
// There is one silence clock for the whole machine: on the parallel path a
// wedged rank stalls its peers in the next collective, so the machine as a
// whole falls silent. Silence counts from the later of the outermost Arm and
// the last beat; a watchdog that has never been beaten cannot stall.
//
// A Watchdog is one-shot: New → Start → Stop. All methods are safe for
// concurrent use.
type Watchdog struct {
	deadline time.Duration
	interval time.Duration

	mu      sync.Mutex
	last    time.Time // zero until the first beat
	stalled bool      // latched until the next beat or outermost Arm
	stalls  int
	onStall []func()
	armed   int
	stop    chan struct{}
	done    chan struct{}
	started bool
	stopped bool
}

// NewWatchdog builds a watchdog that declares a stall after deadline of
// silence inside an armed window. The monitor polls at deadline/4 (at least
// 1 ms).
func NewWatchdog(deadline time.Duration) *Watchdog {
	interval := deadline / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	return &Watchdog{
		deadline: deadline,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// OnStall registers a callback invoked (from the monitor goroutine) each time
// a stall is declared. Register callbacks before Start.
func (w *Watchdog) OnStall(fn func()) {
	w.mu.Lock()
	w.onStall = append(w.onStall, fn)
	w.mu.Unlock()
}

// Beat records a sign of life, restarting the silence clock and clearing a
// latched stall.
//
//mdm:wallclockok -- the liveness clock must be wall time (a stall IS elapsed wall time); timestamps stay inside the watchdog and never reach simulation state or the journal
func (w *Watchdog) Beat() {
	now := time.Now()
	w.mu.Lock()
	w.last = now
	w.stalled = false
	w.mu.Unlock()
}

// Arm opens a supervision window: until the matching Disarm, silence counts
// as a stall. Windows nest; the silence clock restarts at the outermost Arm
// so staleness from the previous window cannot trip the monitor instantly.
//
//mdm:wallclockok -- the liveness clock must be wall time (a stall IS elapsed wall time); timestamps stay inside the watchdog and never reach simulation state or the journal
func (w *Watchdog) Arm() {
	now := time.Now()
	w.mu.Lock()
	w.armed++
	if w.armed == 1 && !w.last.IsZero() {
		w.last = now
		w.stalled = false
	}
	w.mu.Unlock()
}

// Disarm closes the supervision window opened by Arm.
func (w *Watchdog) Disarm() {
	w.mu.Lock()
	if w.armed > 0 {
		w.armed--
	}
	w.mu.Unlock()
}

// Start launches the monitor goroutine. It is a no-op on a watchdog that has
// already started.
func (w *Watchdog) Start() {
	w.mu.Lock()
	if w.started {
		w.mu.Unlock()
		return
	}
	w.started = true
	w.mu.Unlock()
	go w.monitor()
}

// Stop terminates the monitor and waits for it to exit. Idempotent.
func (w *Watchdog) Stop() {
	w.mu.Lock()
	if !w.started || w.stopped {
		w.mu.Unlock()
		return
	}
	w.stopped = true
	w.mu.Unlock()
	close(w.stop)
	<-w.done
}

// StallCount returns how many stalls have been declared so far, so a caller
// can bracket a call with it.
func (w *Watchdog) StallCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stalls
}

func (w *Watchdog) monitor() {
	defer close(w.done)
	ticker := time.NewTicker(w.interval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-ticker.C:
			w.check(now)
		}
	}
}

// check declares a stall when an armed window has been silent past the
// deadline. Callbacks run outside the lock: they reach back into the injector
// (ReleaseHangs) and the MPI world (CancelRun), either of which may beat or
// re-enter concurrently.
func (w *Watchdog) check(now time.Time) {
	w.mu.Lock()
	if w.armed == 0 || w.last.IsZero() || w.stalled || now.Sub(w.last) <= w.deadline {
		w.mu.Unlock()
		return
	}
	w.stalled = true
	w.stalls++
	callbacks := w.onStall
	w.mu.Unlock()
	for _, fn := range callbacks {
		fn()
	}
}
