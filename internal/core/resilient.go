package core

import (
	"errors"
	"fmt"
	"math"

	"mdm/internal/ewald"
	"mdm/internal/fault"
	"mdm/internal/md"
	"mdm/internal/mpi"
	"mdm/internal/supervise"
	"mdm/internal/vec"
)

// Guards are the force-sanity thresholds that classify a completed step as
// suspect. Non-finite forces or potentials are always rejected; the numeric
// threshold is opt-in (zero disables).
type Guards struct {
	// MaxForce rejects a step whose largest force component magnitude
	// exceeds it — the signature of a bit flip in a high exponent bit.
	MaxForce float64
}

// RecoveryConfig tunes the Resilient recovery policy.
type RecoveryConfig struct {
	// MaxRetries bounds per-step hardware retries. Zero means the default
	// (3); negative disables retries.
	MaxRetries int
	Guards     Guards
	// Injector, when set, drives the fault schedule: Resilient advances its
	// step clock and installs it as the hardware hook. It is also how the
	// recovery loop is chaos-tested.
	Injector *fault.Injector

	// Watchdog, when set, is armed around every hardware step: the engine's
	// heartbeats feed it, and a declared stall releases injected hangs (and,
	// on the parallel path, cancels the rank group) so a wedged call fails
	// fast with a retryable StallError instead of blocking the run. Resilient
	// starts the monitor on construction and stops it in Free.
	Watchdog *supervise.Watchdog

	// Breakers, when set, adds per-board and per-link circuit breakers over
	// the retry ladder: a board that trips its breaker is quarantined up
	// front (re-striped away like a dead board), and while a site or link
	// breaker is open the step is served by the host path without paying the
	// hardware round-trip. Cooldowns run on the step clock, so breaker
	// behaviour is deterministic for a scripted fault schedule.
	Breakers *supervise.BreakerSet
}

const defaultMaxRetries = 3

// RunReport is the recovery audit trail of a run. Under a deterministic
// fault schedule the whole report — counts and event log — is reproducible.
type RunReport struct {
	Steps          int      // force evaluations served
	Retries        int      // hardware retries performed
	Restripes      int      // board dropouts survived by re-striping
	SuspectSteps   int      // steps rejected by the sanity guards
	FallbackSteps  int      // steps served by the host reference path
	WineBoardsLost int      // WINE-2 boards marked dead
	MDGBoardsLost  int      // MDGRAPE-2 boards marked dead
	Stalls         int      // stalled calls interrupted by the watchdog
	BreakerTrips   int      // circuit-breaker openings
	Quarantines    int      // boards re-striped away by a tripped breaker
	Fallback       bool     // permanently degraded to the host path
	Events         []string // recovery log, one line per transition
}

// errSuspect marks a guard rejection so the retry logic can classify it.
var errSuspect = errors.New("core: suspect step")

// hardware is the hardware path under the recovery policy: the serial Machine
// (no world — the 1 + 1 layout) or a persistent ParallelRun session on world.
// Board counts are explicit, so a dropout is a decrement followed by free +
// rebuild: sessions are sized from the counts at construction, and the paper's
// striping makes the re-partition a pure re-initialization.
type hardware struct {
	cfg          MachineConfig
	world        *mpi.World // nil: the single-process Machine
	nReal, nWave int
	eng          Engine
}

func newHardware(cfg MachineConfig, world *mpi.World, nReal, nWave int) (*hardware, error) {
	if cfg.WineBoards == 0 {
		cfg.WineBoards = cfg.Wine.Boards()
	}
	if cfg.MDGBoards == 0 {
		cfg.MDGBoards = cfg.MDG.Boards()
	}
	h := &hardware{cfg: cfg, world: world, nReal: nReal, nWave: nWave}
	return h, h.build()
}

// build constructs the engine for the current board counts; on failure the
// previous engine stays in place.
func (h *hardware) build() error {
	var eng Engine
	var err error
	if h.world == nil {
		eng, err = NewMachine(h.cfg)
	} else {
		eng, err = NewParallelRun(h.world, h.cfg, h.nReal, h.nWave)
	}
	if err == nil { // otherwise eng holds a typed nil
		h.eng = eng
	}
	return err
}

// forces runs one attempt at simulation step step. With a world its inboxes
// are drained first, so an aborted attempt's stragglers cannot pollute the
// retry (a failed Step marks the session's geometry invalid itself, so the
// retry re-derives ownership). The engine is told the step on every attempt:
// one rebuilt by a re-stripe, or passed over while the host path served,
// keeps the run's potential cadence.
func (h *hardware) forces(s *md.System, step int) ([]vec.V, float64, error) {
	if h.world != nil {
		h.world.Reset()
	}
	h.eng.SetStep(step)
	return h.eng.Forces(s)
}

// restripe drops one board at the given site and rebuilds the engine over the
// survivors. It reports false, leaving the engine untouched, when that would
// leave fewer boards than processes of that kind — for the serial machine,
// its last board.
func (h *hardware) restripe(site fault.Site) (bool, error) {
	var boards *int
	var procs int
	switch site {
	case fault.WINE2:
		boards, procs = &h.cfg.WineBoards, h.nWave
	case fault.MDG2:
		boards, procs = &h.cfg.MDGBoards, h.nReal
	default:
		return false, nil
	}
	if *boards-1 < procs {
		return false, nil
	}
	*boards--
	_ = h.eng.Free()
	return true, h.build()
}

// Resilient wraps a hardware force path in the recovery policy of the
// ISSUE's degradation ladder: sanity guards classify a completed step as
// suspect; suspect or transiently-failed steps are retried within a bounded
// budget; a board dropout marks the board dead and re-stripes the work
// across the survivors; when no hardware capacity remains (or a step's
// retry budget is spent) the calculation degrades to the host float64
// reference path. Every transition is recorded in the RunReport.
//
// Resilient implements md.ForceField, so it drops into the integrator in
// place of Machine. The host fallback applies the Reference's float64 sum
// over the machine's own pair set, the r_cut sphere, so forces agree with the
// machine path to the pipelines' rounding; its potential is not
// energy-shifted, so U steps by Σ u_ij(r_c) where a run switches over —
// acceptable for a degraded mode.
type Resilient struct {
	rc     RecoveryConfig
	hw     *hardware
	p      ewald.Params
	ref    *Reference
	step   int
	report RunReport
}

// NewResilient builds the recovery layer over the single-process Machine.
func NewResilient(cfg MachineConfig, rc RecoveryConfig) (*Resilient, error) {
	return newResilient(cfg, rc, nil, 1, 1)
}

// NewResilientParallel builds the recovery layer over the §4 parallel
// layout (nReal real-space + nWave wavenumber processes on world; the layout
// is validated by NewParallelRun). The injector, when present, is installed
// as both the hardware hook of every rank session and the world's
// message-layer fault hook.
func NewResilientParallel(cfg MachineConfig, rc RecoveryConfig, world *mpi.World, nReal, nWave int) (*Resilient, error) {
	return newResilient(cfg, rc, world, nReal, nWave)
}

func newResilient(cfg MachineConfig, rc RecoveryConfig, world *mpi.World, nReal, nWave int) (*Resilient, error) {
	if rc.Injector != nil {
		cfg.FaultHook = rc.Injector
		if world != nil {
			world.SetFaultHook(rc.Injector)
		}
	}
	superviseWatchdog(&cfg, rc, world)
	hw, err := newHardware(cfg, world, nReal, nWave)
	if err != nil {
		if rc.Watchdog != nil {
			rc.Watchdog.Stop()
		}
		return nil, err
	}
	return &Resilient{rc: rc, hw: hw, p: cfg.Ewald}, nil
}

// superviseWatchdog wires a configured watchdog into the machine config:
// hardware heartbeats feed it, and a declared stall releases injected hangs
// and (parallel path) cancels the rank group so every peer unwinds with a
// retryable error.
func superviseWatchdog(cfg *MachineConfig, rc RecoveryConfig, world *mpi.World) {
	wd := rc.Watchdog
	if wd == nil {
		return
	}
	cfg.Heartbeat = wd.Beat
	if in := rc.Injector; in != nil {
		wd.OnStall(func(string) { in.ReleaseHangs() })
	}
	if world != nil {
		wd.OnStall(func(string) { world.CancelRun() })
	}
	wd.Start()
}

// SetStep implements Engine: it positions the step clock (e.g. when resuming
// from a checkpoint), so step-keyed fault events and the engine's potential
// cadence line up with the simulation step. The clock counts force
// evaluations served, so it reads n+1 while step n is evaluated.
func (r *Resilient) SetStep(n int) { r.step = n }

// InvalidateGeometry implements md.GeometryInvalidator: an external position
// rewrite (checkpoint restore) drops the engine's cached position-dependent
// state (the Verlet-skin j-set; ownership and ghost lists on the parallel
// path).
func (r *Resilient) InvalidateGeometry() { r.hw.eng.InvalidateGeometry() }

// JSetStats reports the current engine's j-set rebuild / reuse counts; a
// re-stripe builds a fresh engine and starts them over.
func (r *Resilient) JSetStats() (rebuilds, reuses int) { return r.hw.eng.JSetStats() }

// Step returns the current force-evaluation index (1-based).
func (r *Resilient) Step() int { return r.step }

// Report returns a copy of the recovery audit trail.
func (r *Resilient) Report() RunReport {
	rep := r.report
	rep.Events = append([]string(nil), r.report.Events...)
	return rep
}

// AdoptReport seeds the audit trail from a previous incarnation — the
// checkpoint-restart path — so recovery history survives a restart. Steps
// keeps counting force evaluations actually served, including any replayed
// between the checkpoint and the fatal fault.
func (r *Resilient) AdoptReport(rep RunReport) {
	rep.Events = append([]string(nil), rep.Events...)
	r.report = rep
}

// Free releases the underlying hardware sessions and stops the watchdog
// monitor.
func (r *Resilient) Free() error {
	if r.rc.Watchdog != nil {
		r.rc.Watchdog.Stop()
	}
	return r.hw.eng.Free()
}

func (r *Resilient) maxRetries() int {
	if r.rc.MaxRetries == 0 {
		return defaultMaxRetries
	}
	if r.rc.MaxRetries < 0 {
		return 0
	}
	return r.rc.MaxRetries
}

// logf appends a formatted line to the recovery event log.
//
//mdm:hotallocok -- recovery event log: reached only when a step failed or was rejected, never on the clean per-step path
func (r *Resilient) logf(format string, args ...any) {
	r.report.Events = append(r.report.Events, fmt.Sprintf(format, args...))
}

// retryable reports whether an error is worth retrying on the same
// hardware: transient chip errors, link errors, message-layer timeouts,
// desyncs and cancellation echoes, and guard rejections (the flipped bit is
// gone on the next pass).
func retryable(err error) bool {
	var te *fault.TransientError
	var le *fault.LinkError
	var se *fault.StallError
	return errors.As(err, &te) || errors.As(err, &le) || errors.As(err, &se) ||
		errors.Is(err, mpi.ErrTimeout) || errors.Is(err, mpi.ErrCanceled) ||
		errors.Is(err, mpi.ErrTagMismatch) || errors.Is(err, errSuspect)
}

// classify renders an error for the event log in a form that is stable
// across goroutine interleavings: a dropped message surfaces on the parallel
// path as a timeout, a cancellation echo, or a tag desync depending on
// timing, so those collapse to one label.
//
//mdm:hotallocok -- error-classification labels are built only after a step failed; the clean step path never reaches this
func classify(err error) string {
	var te *fault.TransientError
	if errors.As(err, &te) {
		return fmt.Sprintf("%s transient error", te.Site)
	}
	var le *fault.LinkError
	if errors.As(err, &le) {
		return fmt.Sprintf("link error %d→%d", le.Src, le.Dst)
	}
	var se *fault.StallError
	if errors.As(err, &se) {
		return fmt.Sprintf("%s stall (watchdog)", se.Site)
	}
	if errors.Is(err, errSuspect) {
		return err.Error()
	}
	if errors.Is(err, mpi.ErrTimeout) || errors.Is(err, mpi.ErrCanceled) || errors.Is(err, mpi.ErrTagMismatch) {
		return "message-layer fault"
	}
	return "hardware fault"
}

// breakerScope derives the circuit-breaker scope of a retryable failure: a
// board-attributed hardware fault keys "site/boardN" (quarantinable), an
// unattributed one keys the site, a link error keys its (src, dst) pair.
//
//mdm:hotallocok -- breaker scope keys are derived only from a retryable failure, off the clean per-step path
func breakerScope(err error) (scope string, site fault.Site, board int, ok bool) {
	var te *fault.TransientError
	if errors.As(err, &te) {
		return hwScope(te.Site, te.Board), te.Site, te.Board, true
	}
	var se *fault.StallError
	if errors.As(err, &se) {
		return hwScope(se.Site, se.Board), se.Site, se.Board, true
	}
	var le *fault.LinkError
	if errors.As(err, &le) {
		return fmt.Sprintf("link %d-%d", le.Src, le.Dst), "", -1, true
	}
	return "", "", -1, false
}

// hwScope renders the breaker-scope key of a board-attributed fault.
//
//mdm:hotallocok -- called only while classifying a failed step (see breakerScope), never on the clean path
func hwScope(site fault.Site, board int) string {
	if board >= 0 {
		return fmt.Sprintf("%s/board%d", site, board)
	}
	return string(site)
}

// suspectReason applies the sanity guards to a completed step; it returns a
// non-empty reason when the step must be rejected.
//
//mdm:hotallocok -- the Sprintf branches run only when a guard trips and the step is about to be rejected; the accept path is scan-only
func (r *Resilient) suspectReason(f []vec.V, pot float64) string {
	maxAbs := 0.0
	for i := range f {
		for _, v := range [3]float64{f[i].X, f[i].Y, f[i].Z} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return "non-finite force"
			}
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
	}
	if math.IsNaN(pot) || math.IsInf(pot, 0) {
		return "non-finite potential"
	}
	if g := r.rc.Guards.MaxForce; g > 0 && maxAbs > g {
		return fmt.Sprintf("force spike %.3g > %.3g", maxAbs, g)
	}
	return ""
}

// hostForces serves a step from the float64 reference path.
func (r *Resilient) hostForces(s *md.System) ([]vec.V, float64, error) {
	if r.ref == nil {
		ref, err := NewReference(r.p)
		if err != nil {
			return nil, 0, err
		}
		r.ref = ref
	}
	return r.ref.Forces(s)
}

// Forces implements md.ForceField with the full recovery ladder.
func (r *Resilient) Forces(s *md.System) ([]vec.V, float64, error) {
	r.step++
	r.report.Steps++
	if in := r.rc.Injector; in != nil {
		in.BeginStep(r.step)
		if err := in.StepFault(); err != nil {
			r.logf("step %d: fatal host fault: %v", r.step, err)
			return nil, 0, err
		}
	}
	if r.report.Fallback {
		r.report.FallbackSteps++
		return r.hostForces(s)
	}
	// A breaker left open by earlier steps quarantines hardware dispatch up
	// front: the step is served by the host path without paying the retry
	// round-trip, until the step-clock cooldown half-opens the breaker.
	if br := r.rc.Breakers; br != nil {
		if scope, open := br.FirstOpen(r.step); open {
			r.report.FallbackSteps++
			r.logf("step %d: breaker %s open, host fallback", r.step, scope)
			return r.hostForces(s)
		}
	}
	retries := 0
	for {
		stalls := 0 // the watchdog's count before this attempt
		if wd := r.rc.Watchdog; wd != nil {
			wd.Arm()
			stalls = wd.StallCount()
		}
		f, pot, err := r.hw.forces(s, r.step-1)
		if wd := r.rc.Watchdog; wd != nil {
			wd.Disarm()
		}
		if err == nil {
			if reason := r.suspectReason(f, pot); reason != "" {
				r.report.SuspectSteps++
				err = fmt.Errorf("%w: %s", errSuspect, reason)
			} else {
				if br := r.rc.Breakers; br != nil {
					br.OK(r.step)
				}
				return f, pot, nil
			}
		}
		var be *fault.BoardError
		if errors.As(err, &be) {
			switch be.Site {
			case fault.WINE2:
				r.report.WineBoardsLost++
			case fault.MDG2:
				r.report.MDGBoardsLost++
			}
			ok, rerr := r.hw.restripe(be.Site)
			if rerr != nil {
				return nil, 0, rerr
			}
			if ok {
				r.report.Restripes++
				r.logf("step %d: %s board %d dead, re-striped across survivors", r.step, be.Site, be.Board)
				continue
			}
			r.report.Fallback = true
			r.report.FallbackSteps++
			r.logf("step %d: %s capacity exhausted, degrading to host reference path", r.step, be.Site)
			return r.hostForces(s)
		}
		if !retryable(err) {
			return nil, 0, err // config/validation error: not the hardware's fault
		}
		// A released hang surfaces as a StallError; a collective the watchdog
		// canceled surfaces as the message layer's cancellation, so it counts
		// by the watchdog's own log growing during the attempt.
		var se *fault.StallError
		if errors.As(err, &se) || (r.rc.Watchdog != nil && r.rc.Watchdog.StallCount() > stalls) {
			r.report.Stalls++
		}
		if br := r.rc.Breakers; br != nil {
			if scope, site, board, ok := breakerScope(err); ok && br.Fail(scope, r.step) {
				r.report.BreakerTrips++
				if board >= 0 && (site == fault.WINE2 || site == fault.MDG2) {
					// The breaker's verdict: this board is chronically bad.
					// Quarantine it up front — drop it from the stripe like a
					// dead board — instead of paying a retry every step.
					br.Drop(scope)
					ok, rerr := r.hw.restripe(site)
					if rerr != nil {
						return nil, 0, rerr
					}
					if ok {
						r.report.Quarantines++
						r.logf("step %d: breaker %s tripped, board quarantined (re-striped)", r.step, scope)
						continue
					}
					r.report.Fallback = true
					r.report.FallbackSteps++
					r.logf("step %d: breaker %s tripped with no capacity left, degrading to host reference path", r.step, scope)
					return r.hostForces(s)
				}
				r.report.FallbackSteps++
				r.logf("step %d: breaker %s open, host fallback for this step", r.step, scope)
				return r.hostForces(s)
			}
		}
		if retries < r.maxRetries() {
			retries++
			r.report.Retries++
			r.logf("step %d: retry %d after %s", r.step, retries, classify(err))
			continue
		}
		r.report.FallbackSteps++
		r.logf("step %d: retry budget spent (%s), host fallback for this step", r.step, classify(err))
		return r.hostForces(s)
	}
}
