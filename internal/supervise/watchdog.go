// Package supervise is the long-run supervision layer of the MDM
// reproduction. The paper's headline run held 2,304 ASICs busy for 36.5
// hours at 43.8 s/step (§5); over such a run the dangerous failures are the
// silent ones — a wedged board that never returns, a rank that stops making
// progress, a process killed between checkpoints. The recovery ladder in
// internal/core only reacts to *errors*; this package supplies the three
// mechanisms that turn silence into errors and bound the blast radius:
//
//   - Watchdog: per-scope heartbeats from the hot loops and a monitor that
//     declares a stall after a configurable deadline, so a hung call is
//     converted into a retryable fault instead of blocking forever.
//   - Breaker / BreakerSet: per-board and per-link circuit breakers
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
	"fmt"
	"sort"
	"sync"
	"time"
)

// Watchdog detects stalls: hot loops call Beat with a scope name (a hardware
// site or a rank), and a monitor goroutine declares any armed scope that has
// been silent longer than the deadline stalled, invoking the registered
// OnStall callbacks. Arm/Disarm bracket the window in which silence is
// meaningful (a hardware step in flight); outside it the monitor stays quiet,
// so idle time between steps or after the run never counts as a stall.
//
// A Watchdog is one-shot: New → Start → Stop. All methods are safe for
// concurrent use.
type Watchdog struct {
	deadline time.Duration
	interval time.Duration

	mu      sync.Mutex
	scopes  map[string]*scopeState
	onStall []func(scope string)
	stalls  []string
	armed   int
	stop    chan struct{}
	done    chan struct{}
	started bool
	stopped bool
}

type scopeState struct {
	last    time.Time
	stalled bool // latched until the scope beats again
}

// NewWatchdog builds a watchdog that declares a stall after deadline of
// silence on an armed scope. The monitor polls at deadline/4 (at least 1 ms).
func NewWatchdog(deadline time.Duration) *Watchdog {
	interval := deadline / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	return &Watchdog{
		deadline: deadline,
		interval: interval,
		scopes:   make(map[string]*scopeState),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// OnStall registers a callback invoked (from the monitor goroutine) each time
// a scope is declared stalled. Register callbacks before Start.
func (w *Watchdog) OnStall(fn func(scope string)) {
	w.mu.Lock()
	w.onStall = append(w.onStall, fn)
	w.mu.Unlock()
}

// Beat records a sign of life from a scope, registering it on first use and
// clearing any stall latched against it.
//
//mdm:stepflow -- hot-path root: installed as the hardware-call heartbeat hook (core wires cfg.Heartbeat = wd.Beat), so it runs inside every step; annotated explicitly because the hook wiring is an assignment the callgraph cannot see
//mdm:wallclockok -- the liveness clock must be wall time (a stall IS elapsed wall time); timestamps stay inside the watchdog and never reach simulation state or the journal
func (w *Watchdog) Beat(scope string) {
	now := time.Now()
	w.mu.Lock()
	s := w.scopes[scope]
	if s == nil {
		s = &scopeState{}
		w.scopes[scope] = s
	}
	s.last = now
	s.stalled = false
	w.mu.Unlock()
}

// Arm opens a supervision window: until the matching Disarm, a silent scope
// counts as stalled. Windows nest; every known scope's silence clock resets
// at the outermost Arm so staleness from the previous window cannot trip the
// monitor instantly.
//
//mdm:wallclockok -- the liveness clock must be wall time (a stall IS elapsed wall time); timestamps stay inside the watchdog and never reach simulation state or the journal
func (w *Watchdog) Arm() {
	now := time.Now()
	w.mu.Lock()
	w.armed++
	if w.armed == 1 {
		for _, s := range w.scopes {
			s.last = now
			s.stalled = false
		}
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

// Stalls returns the log of declared stalls, in declaration order.
func (w *Watchdog) Stalls() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, len(w.stalls))
	copy(out, w.stalls)
	return out
}

// StallCount returns how many stalls have been declared so far: len(Stalls())
// without the copy, so a caller can bracket a call with it on a hot path.
func (w *Watchdog) StallCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.stalls)
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

// check declares stalls for armed scopes past the deadline. Callbacks run
// outside the lock: they reach back into the injector (ReleaseHangs) and the
// MPI world (CancelRun), either of which may beat or re-enter concurrently.
func (w *Watchdog) check(now time.Time) {
	w.mu.Lock()
	if w.armed == 0 {
		w.mu.Unlock()
		return
	}
	// Walk scopes in sorted order so the stall log and the callback sequence
	// are stable when several scopes trip on the same tick (map iteration
	// order would otherwise shuffle them run to run).
	names := make([]string, 0, len(w.scopes))
	for scope := range w.scopes {
		names = append(names, scope)
	}
	sort.Strings(names)
	var stalled []string
	for _, scope := range names {
		s := w.scopes[scope]
		if !s.stalled && now.Sub(s.last) > w.deadline {
			s.stalled = true
			w.stalls = append(w.stalls, fmt.Sprintf("%s silent > %v", scope, w.deadline))
			stalled = append(stalled, scope)
		}
	}
	callbacks := w.onStall
	w.mu.Unlock()
	for _, scope := range stalled {
		for _, fn := range callbacks {
			fn(scope)
		}
	}
}
