package core

import (
	"errors"
	"fmt"
	"math"
	"time"

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
	Guards Guards
	// Injector, when set, drives the fault schedule: Resilient advances its
	// step clock and installs it as the hardware hook. It is also how the
	// recovery loop is chaos-tested.
	Injector *fault.Injector

	// Watchdog is the stall deadline for one hardware call (0 disables
	// supervision). Resilient builds the watchdog, beats it from every
	// hardware call through the hardware hook and arms it around every
	// hardware step; a stall releases injected hangs and cancels the rank
	// group, so a wedged call fails fast with a retryable StallError. A
	// watchdog also brings circuit breakers (supervise.BreakerSet's fixed
	// policy, on the step clock): a tripped board is quarantined up front,
	// and while a site or link breaker is open the host path serves the step.
	Watchdog time.Duration
}

// maxRetries bounds per-step hardware retries; a step whose budget is
// spent is served by the host path.
const maxRetries = 3

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

// restriper is an engine the recovery layer re-stripes in place
// (engineBase.restripe): a ParallelRun, the serial Machine included.
type restriper interface {
	Engine
	restripe(site fault.Site) (bool, error)
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
// place of the engine it wraps. The host fallback applies the Reference's float64 sum
// over the machine's own pair set, the r_cut sphere, so forces agree with the
// machine path to the pipelines' rounding; its potential is not
// energy-shifted, so U steps by Σ u_ij(r_c) where a run switches over —
// acceptable for a degraded mode.
type Resilient struct {
	rc     RecoveryConfig
	wd     *supervise.Watchdog   // nil unless rc.Watchdog > 0
	br     *supervise.BreakerSet // non-nil iff wd is
	eng    restriper             // the run's one engine
	p      ewald.Params
	ref    *Reference
	step   int
	fresh  bool // the latest step's potential was evaluated, not carried
	report RunReport
}

// NewResilient builds the recovery layer over the engine it keeps for the
// whole run: the serial Machine when world is nil, else the §4 parallel
// layout of nReal real-space + nWave wavenumber processes on world (validated
// by NewParallelRun). The injector, when present, is installed as the
// hardware hook of every rank session and as world's message-layer fault
// hook; the serial Machine's private world takes no message faults.
func NewResilient(cfg MachineConfig, rc RecoveryConfig, world *mpi.World, nReal, nWave int) (*Resilient, error) {
	r := &Resilient{rc: rc, p: cfg.Ewald}
	if rc.Injector != nil {
		cfg.FaultHook = rc.Injector
		if world != nil {
			world.SetFaultHook(rc.Injector)
		}
	}
	if rc.Watchdog > 0 {
		r.wd, r.br = supervise.NewWatchdog(rc.Watchdog), supervise.NewBreakerSet()
		cfg.FaultHook = &livenessHook{wd: r.wd, in: rc.Injector}
		if in := rc.Injector; in != nil {
			r.wd.OnStall(in.ReleaseHangs)
		}
		if world != nil {
			r.wd.OnStall(world.CancelRun)
		}
	}
	var err error
	if world == nil {
		r.eng, err = NewMachine(cfg)
	} else {
		r.eng, err = NewParallelRun(world, cfg, nReal, nWave)
	}
	if err != nil {
		return nil, err
	}
	if r.wd != nil {
		r.wd.Start()
	}
	return r, nil
}

// livenessHook is the hardware hook under a watchdog: every hardware call
// beats the watchdog before the injector, if any, can wedge it, so an
// injected hang still reads as silence.
type livenessHook struct {
	wd interface{ Beat() } // the run's *supervise.Watchdog
	in *fault.Injector     // nil without a fault scenario
}

// HardwareCall implements fault.HardwareHook.
func (h *livenessHook) HardwareCall(site fault.Site) error {
	h.wd.Beat()
	if h.in == nil {
		return nil
	}
	return h.in.HardwareCall(site)
}

// PendingFlip implements fault.HardwareHook.
func (h *livenessHook) PendingFlip(site fault.Site) (word, bit int, ok bool) {
	if h.in == nil {
		return 0, 0, false
	}
	return h.in.PendingFlip(site)
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
func (r *Resilient) InvalidateGeometry() { r.eng.InvalidateGeometry() }

// JSetStats reports the engine's j-set rebuild / reuse counts.
func (r *Resilient) JSetStats() (rebuilds, reuses int) { return r.eng.JSetStats() }

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
	if r.wd != nil {
		r.wd.Stop()
	}
	return r.eng.Free()
}

// logf appends a formatted line to the recovery event log.
//
//mdm:hotallocok -- recovery event log: reached only when a step failed or was rejected, never on the clean per-step path
func (r *Resilient) logf(format string, args ...any) {
	r.report.Events = append(r.report.Events, fmt.Sprintf(format, args...))
}

// failure is how the ladder reads a failed attempt's error.
type failure struct {
	label string     // the event log's name for it
	scope string     // its circuit-breaker scope, "" when no breaker counts it
	board int        // a board-attributed hardware fault's board, else -1
	site  fault.Site // that board's site
	stall bool       // an injected hang the watchdog released
	retry bool       // worth retrying on the same hardware
}

// triage reads a failed attempt's error. Transient chip errors, link errors,
// stalls, message-layer timeouts, desyncs and cancellation echoes, and guard
// rejections (the flipped bit is gone on the next pass) are retryable;
// anything else is a config or validation error. Labels are stable across
// goroutine interleavings: a dropped message surfaces on the parallel path as
// a timeout, a cancellation echo or a tag desync depending on timing, so
// those collapse to one label. A board-attributed hardware fault keys the
// breaker scope "site/boardN" (quarantinable), an unattributed one keys the
// site, a link error its (src, dst) pair.
//
//mdm:hotallocok -- labels and breaker scopes are built only after a step failed; the clean step path never reaches this
func triage(err error) failure {
	var te *fault.TransientError
	var le *fault.LinkError
	var se *fault.StallError
	hw := func(site fault.Site, board int, what string) failure {
		scope := string(site)
		if board >= 0 {
			scope = fmt.Sprintf("%s/board%d", site, board)
		}
		return failure{label: fmt.Sprintf("%s %s", site, what), scope: scope, board: board, site: site, retry: true}
	}
	switch {
	case errors.As(err, &te):
		return hw(te.Site, te.Board, "transient error")
	case errors.As(err, &le):
		return failure{label: fmt.Sprintf("link error %d→%d", le.Src, le.Dst),
			scope: fmt.Sprintf("link %d-%d", le.Src, le.Dst), board: -1, retry: true}
	case errors.As(err, &se):
		f := hw(se.Site, se.Board, "stall (watchdog)")
		f.stall = true
		return f
	case errors.Is(err, errSuspect):
		return failure{label: err.Error(), board: -1, retry: true}
	case errors.Is(err, mpi.ErrTimeout), errors.Is(err, mpi.ErrCanceled), errors.Is(err, mpi.ErrTagMismatch):
		return failure{label: "message-layer fault", board: -1, retry: true}
	}
	return failure{board: -1}
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

// PotentialFresh implements md.PotentialCadence: a step the host path
// served evaluated its potential, one the engine served follows the
// engine's cadence.
func (r *Resilient) PotentialFresh() bool { return r.fresh }

// Forces implements md.ForceField with the full recovery ladder.
func (r *Resilient) Forces(s *md.System) ([]vec.V, float64, error) {
	r.step++
	r.report.Steps++
	r.fresh = true
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
	if br := r.br; br != nil {
		if scope, open := br.FirstOpen(r.step); open {
			r.report.FallbackSteps++
			r.logf("step %d: breaker %s open, host fallback", r.step, scope)
			return r.hostForces(s)
		}
	}
	retries := 0
	for {
		stalls := 0 // the watchdog's count before this attempt
		if wd := r.wd; wd != nil {
			wd.Arm()
			stalls = wd.StallCount()
		}
		// An attempt runs on the state the failed one left behind (a failed
		// Step drains its world, so no straggler reaches the retry), and the
		// engine is told the step, so the steps the host path served keep
		// the run's potential cadence.
		r.eng.SetStep(r.step - 1)
		f, pot, err := r.eng.Forces(s)
		if wd := r.wd; wd != nil {
			wd.Disarm()
		}
		if err == nil {
			if reason := r.suspectReason(f, pot); reason != "" {
				r.report.SuspectSteps++
				err = fmt.Errorf("%w: %s", errSuspect, reason)
			} else {
				if br := r.br; br != nil {
					br.OK(r.step)
				}
				r.fresh = r.eng.PotentialFresh()
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
			ok, rerr := r.eng.restripe(be.Site)
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
		fl := triage(err)
		if !fl.retry {
			return nil, 0, err // config/validation error: not the hardware's fault
		}
		// A released hang surfaces as a StallError; a collective the watchdog
		// canceled surfaces as the message layer's cancellation, so it counts
		// by the watchdog's stall count growing during the attempt.
		if fl.stall || (r.wd != nil && r.wd.StallCount() > stalls) {
			r.report.Stalls++
		}
		if br := r.br; br != nil && fl.scope != "" && br.Fail(fl.scope, r.step) {
			r.report.BreakerTrips++
			if fl.board >= 0 {
				// The breaker's verdict: this board is chronically bad.
				// Quarantine it up front — drop it from the stripe like a
				// dead board — instead of paying a retry every step.
				br.Drop(fl.scope)
				ok, rerr := r.eng.restripe(fl.site)
				if rerr != nil {
					return nil, 0, rerr
				}
				if ok {
					r.report.Quarantines++
					r.logf("step %d: breaker %s tripped, board quarantined (re-striped)", r.step, fl.scope)
					continue
				}
				r.report.Fallback = true
				r.report.FallbackSteps++
				r.logf("step %d: breaker %s tripped with no capacity left, degrading to host reference path", r.step, fl.scope)
				return r.hostForces(s)
			}
			r.report.FallbackSteps++
			r.logf("step %d: breaker %s open, host fallback for this step", r.step, fl.scope)
			return r.hostForces(s)
		}
		if retries < maxRetries {
			retries++
			r.report.Retries++
			r.logf("step %d: retry %d after %s", r.step, retries, fl.label)
			continue
		}
		r.report.FallbackSteps++
		r.logf("step %d: retry budget spent (%s), host fallback for this step", r.step, fl.label)
		return r.hostForces(s)
	}
}
