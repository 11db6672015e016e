package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"sync"
	"sync/atomic"
	"time"

	"mdm"
	"mdm/internal/store"
)

// Session states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StatePaused   = "paused"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Typed failure kinds the HTTP layer maps to distinct statuses.
const (
	errKindRun               = "run"                // simulation or storage failure
	errKindNoRunState        = "no-run-state"       // nothing durable to resume
	errKindStaleRunDir       = "stale-run-dir"      // durable state from another timeline
	errKindCheckpointCorrupt = "checkpoint-corrupt" // damaged checkpoint image
	errKindMissingArtifact   = "missing-artifact"   // checkpoint without journal etc.
	errKindManifest          = "manifest"           // session manifest lost/damaged
	errKindDeadline          = "deadline"           // per-session deadline exceeded
)

// Stop reasons, in priority order: a cancel outranks a pause, a drain or
// deadline outranks neither (first writer wins otherwise).
const (
	stopNone int32 = iota
	stopPause
	stopDrain
	stopDeadline
	stopCancel
)

// JobSpec is a submitted simulation request.
type JobSpec struct {
	// Tenant is the owning tenant (required).
	Tenant string `json:"tenant"`
	// Cells is the rock-salt unit cells per side (default 2 → 64 ions).
	Cells int `json:"cells,omitempty"`
	// Steps is the number of NVT steps to run (required, bounded by the
	// server's MaxSessionSteps budget).
	Steps int `json:"steps"`
	// Seed is the velocity RNG seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Backend selects the force engine: "mdm" (default) or "reference".
	Backend string `json:"backend,omitempty"`
	// Faults is a fault-injection scenario in the internal/fault DSL,
	// applied to this session's simulated hardware (MDM backend only).
	Faults string `json:"faults,omitempty"`
	// WatchdogMs arms the per-hardware-call stall watchdog (0 = off).
	WatchdogMs int `json:"watchdog_ms,omitempty"`
	// DeadlineMs bounds the session's total wall-clock run time; past it the
	// session stops at the next committed step and fails typed "deadline".
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// manifest is the durable per-session record at <dir>/session.json,
// atomically replaced at every state transition that must survive a crash.
type manifest struct {
	ID      string  `json:"id"`
	Tenant  string  `json:"tenant"`
	Spec    JobSpec `json:"spec"`
	State   string  `json:"state"` // manifestActive etc.
	Steps   int     `json:"steps_done"`
	ErrKind string  `json:"err_kind,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// Manifest states. Active covers queued, running and drain-interrupted
// sessions alike: anything active at the moment of a crash is resumed by the
// next incarnation's sweep.
const (
	manifestActive   = "active"
	manifestPaused   = "paused"
	manifestDone     = "done"
	manifestFailed   = "failed"
	manifestCanceled = "canceled"
)

// Session is one registered simulation run.
type Session struct {
	ID     string
	Tenant string
	Spec   JobSpec

	mgr      *Manager
	dir      string
	stop     atomic.Int32 // stop reason requested for the running segment
	deadline time.Time    // zero = none; armed at submit

	mu        sync.Mutex
	state     string
	stepsDone int
	errKind   string
	errMsg    string
	records   []mdm.Record // observable samples published at chunk boundaries
}

func (s *Session) manifestPath() string { return path.Join(s.dir, "session.json") }
func (s *Session) ckptPath() string     { return path.Join(s.dir, "run.ckpt") }
func (s *Session) walPath() string      { return path.Join(s.dir, "run.wal") }

// Status is a session's externally visible state.
type Status struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	State     string `json:"state"`
	StepsDone int    `json:"steps_done"`
	StepsGoal int    `json:"steps_goal"`
	ErrKind   string `json:"err_kind,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Status snapshots the session.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{
		ID: s.ID, Tenant: s.Tenant, State: s.state,
		StepsDone: s.stepsDone, StepsGoal: s.Spec.Steps,
		ErrKind: s.errKind, Error: s.errMsg,
	}
}

// Records returns the observable samples with Step > since, in step order.
// Samples are published at checkpoint boundaries; after a server restart
// only samples from the resumed segment onward are available (the trajectory
// itself is durable, the in-memory sample buffer is not).
func (s *Session) Records(since int) []mdm.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := 0
	for i < len(s.records) && s.records[i].Step <= since {
		i++
	}
	out := make([]mdm.Record, len(s.records)-i)
	copy(out, s.records[i:])
	return out
}

// requestStop asks the running segment to stop at the next committed step.
// A higher-priority reason overwrites a lower one; cancel always wins.
func (s *Session) requestStop(reason int32) {
	for {
		cur := s.stop.Load()
		if cur >= reason {
			return
		}
		if s.stop.CompareAndSwap(cur, reason) {
			return
		}
	}
}

// interrupted is the per-step interrupt predicate installed on every
// simulation the executor runs; the integrator polls it after each completed
// step (whose commit the interrupted run joins before it returns), so it is
// on the hot path of every session.
//
//mdm:stepflow -- hot-path root: installed as the simulation's per-step interrupt check (sim.SetInterrupt(s.interrupted)); annotated explicitly because the hook wiring is an assignment the callgraph cannot see
func (s *Session) interrupted() bool {
	return s.stop.Load() != stopNone
}

// config is the part of a run's mdm.Config the spec alone decides: admission
// validates it, Session.simConfig completes it with the run directory.
func (spec JobSpec) config() (mdm.Config, error) {
	cfg := mdm.Config{
		Cells:  spec.Cells,
		Seed:   spec.Seed,
		Faults: spec.Faults,
	}
	cfg.Supervise.Watchdog = time.Duration(spec.WatchdogMs) * time.Millisecond
	switch spec.Backend {
	case "", "mdm":
		cfg.Backend = mdm.BackendMDM
	case "reference":
		cfg.Backend = mdm.BackendReference
	default:
		return cfg, fmt.Errorf("unknown backend %q", spec.Backend)
	}
	return cfg, nil
}

// simConfig builds the mdm.Config for this session's run directory.
func (s *Session) simConfig() (mdm.Config, error) {
	cfg, err := s.Spec.config()
	if err != nil {
		return cfg, fmt.Errorf("serve: %w", err)
	}
	cfg.Supervise.Journal = s.walPath()
	cfg.Workers = s.mgr.sessionWorkers()
	cfg.SetStoreFS(s.mgr.fsys)
	return cfg, nil
}

// sessionWorkers splits the shared worker budget across the executor pool so
// concurrent sessions do not each claim GOMAXPROCS.
func (m *Manager) sessionWorkers() int {
	if m.cfg.WorkerBudget <= 0 {
		return 0 // 0 = GOMAXPROCS inside mdm; single-executor default
	}
	per := m.cfg.WorkerBudget / max(1, m.cfg.Executors)
	return max(1, per)
}

// persistManifest atomically replaces the session manifest.
func (s *Session) persistManifest(state string) error {
	s.mu.Lock()
	man := manifest{
		ID: s.ID, Tenant: s.Tenant, Spec: s.Spec, State: state,
		Steps: s.stepsDone, ErrKind: s.errKind, Error: s.errMsg,
	}
	s.mu.Unlock()
	data, err := encodeJSON(&man)
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(s.mgr.fsys, s.manifestPath(), data)
}

// runSession executes one dequeued session to a stopping point: completion,
// failure, or an interrupt (pause, cancel, drain, deadline). It owns the
// session's state transitions out of queued.
func (m *Manager) runSession(s *Session) {
	s.mu.Lock()
	if s.state != StateQueued {
		// Canceled while queued: the tombstone was already persisted.
		s.mu.Unlock()
		return
	}
	if m.draining.Load() {
		// Stay queued; the drain summary reports it and the next
		// incarnation's sweep re-runs it.
		s.mu.Unlock()
		return
	}
	s.state = StateRunning
	s.mu.Unlock()

	err := m.simulate(s)
	tick := m.tick.Add(1)

	switch reason := s.stop.Load(); {
	case err == nil:
		// Breaker verdict first: once finish publishes the state, a waiter
		// may submit again and must meet the updated breaker.
		m.breakers.OKScope(s.Tenant, int(tick))
		s.finish(StateDone, manifestDone, "", "")
	case errors.Is(err, mdm.ErrInterrupted) && reason == stopCancel:
		s.finish(StateCanceled, manifestCanceled, "", "")
	case errors.Is(err, mdm.ErrInterrupted) && reason == stopPause:
		s.stop.Store(stopNone)
		s.finish(StatePaused, manifestPaused, "", "")
	case errors.Is(err, mdm.ErrInterrupted) && reason == stopDeadline:
		m.breakers.Fail(s.Tenant, int(tick))
		s.finish(StateFailed, manifestFailed, errKindDeadline, "session deadline exceeded")
	case errors.Is(err, mdm.ErrInterrupted): // drain
		s.mu.Lock()
		s.state = StateQueued
		s.mu.Unlock()
		// Manifest stays "active": the next incarnation resumes it.
	case errors.Is(err, store.ErrCrashed):
		// The storage layer is gone (injected power cut): nothing can be
		// persisted. Leave every durable artifact as-is for the restart
		// sweep; the in-memory verdict only matters to this doomed process.
		s.mu.Lock()
		s.state = StateFailed
		s.errKind, s.errMsg = errKindRun, err.Error()
		s.mu.Unlock()
	default:
		m.breakers.Fail(s.Tenant, int(tick))
		s.finish(StateFailed, manifestFailed, failKind(err), err.Error())
	}
}

// finish records a terminal (or paused) verdict in memory and durably.
func (s *Session) finish(state, manState, errKind, errMsg string) {
	s.mu.Lock()
	s.state = state
	if errKind != "" {
		s.errKind, s.errMsg = errKind, errMsg
	}
	s.mu.Unlock()
	if err := s.persistManifest(manState); err != nil {
		s.mgr.cfg.Logf("serve: session %s: manifest write: %v", s.ID, err)
	}
}

// simulate builds (or resumes) the simulation and runs it to the spec's
// goal through mdm's run loop in CheckpointEvery-step segments, with no
// restart budget: a fatal fault fails the session. Returns nil on
// completion, mdm.ErrInterrupted when a stop request landed, or the
// underlying failure.
func (m *Manager) simulate(s *Session) error {
	cfg, err := s.simConfig()
	if err != nil {
		return err
	}
	sim, err := mdm.ResumeFromJournal(cfg, s.ckptPath())
	switch {
	case err == nil:
	case errors.Is(err, store.ErrNoRunState),
		errors.Is(err, store.ErrStaleRunDir) && !s.hasCheckpoint():
		// First run, killed before anything became durable, or killed after
		// journal appends but before the first checkpoint commit (a stranded
		// journal with no checkpoint is "stale run dir" to the resume scan).
		// Either way nothing committed constrains us: start from scratch,
		// which replays bit-identically from the same seed. The run directory
		// must exist before the journal's atomic-create sequence touches it.
		if err := m.fsys.MkdirAll(s.dir); err != nil {
			return err
		}
		sim, err = mdm.NewSimulation(cfg)
		if err != nil {
			return err
		}
	default:
		return err
	}
	defer func() { _ = sim.Free() }()
	sim.SetInterrupt(s.interrupted)

	if s.Spec.DeadlineMs > 0 {
		// Deadline enforcement stays off the step path: a timer flips the
		// atomic stop flag and the integrator's per-step poll sees it.
		remain := time.Until(s.deadline)
		if remain <= 0 {
			s.requestStop(stopDeadline)
		} else {
			t := time.AfterFunc(remain, func() { s.requestStop(stopDeadline) })
			defer t.Stop()
		}
	}

	// Every checkpoint commit — after each segment, including the partial
	// segment a stop request ends — publishes the steps, the samples and the
	// commit counters; the tally after Run covers a segment that failed.
	var commits, stalls int64 // the CommitStats already tallied for /metrics
	tally := func() {
		c, st := sim.CommitStats()
		m.commits.Add(c - commits)
		m.commitStalls.Add(st - stalls)
		commits, stalls = c, st
		s.setSteps(sim.Integrator.StepCount())
	}
	tally()
	_, err = sim.Run(mdm.Protocol{
		NVT:        s.Spec.Steps,
		Checkpoint: s.ckptPath(),
		Every:      m.cfg.CheckpointEvery,
		Committed:  func() { tally(); s.publish(sim.Records()) },
	})
	tally()
	return err
}

// hasCheckpoint reports whether a durable checkpoint image exists. Only its
// definite absence may downgrade a stale-run-dir verdict to a fresh start.
func (s *Session) hasCheckpoint() bool {
	_, err := s.mgr.fsys.ReadFile(s.ckptPath())
	return !store.NotExist(err)
}

func (s *Session) setSteps(n int) {
	s.mu.Lock()
	s.stepsDone = n
	s.mu.Unlock()
}

// publish merges the simulation's accumulated samples into the session's
// buffer (the sim restarts its recorder at the resume step, so merge by
// step, newest wins).
func (s *Session) publish(recs []mdm.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(recs) == 0 {
		return
	}
	first := recs[0].Step
	keep := s.records[:0]
	for _, r := range s.records {
		if r.Step < first {
			keep = append(keep, r)
		}
	}
	s.records = append(keep, recs...)
}

// encodeJSON marshals indented JSON (stable, human-inspectable artifacts).
func encodeJSON(v any) ([]byte, error) {
	return json.MarshalIndent(v, "", "  ")
}

// decodeStrict unmarshals rejecting unknown fields, so a manifest written by
// a newer incarnation fails loudly instead of silently dropping state.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
