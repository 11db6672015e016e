// Package mdm is a software reproduction of the Molecular Dynamics Machine
// (MDM) of Narumi et al., "1.34 Tflops Molecular Dynamics Simulation for
// NaCl with a Special-Purpose Computer: MDM" (SC 2000).
//
// The MDM couples two special-purpose processors to a general-purpose host:
// WINE-2 evaluates the wavenumber-space part of the Ewald Coulomb sum on
// fixed-point DFT/IDFT pipelines, and MDGRAPE-2 evaluates the real-space
// Coulomb and van der Waals forces on single-precision pipelines with a
// table-driven arbitrary central-force unit. This package provides:
//
//   - bit-level simulators of both processors and their host libraries
//     (internal/wine2, internal/mdgrape2), coupled into an md.ForceField by
//     internal/core;
//   - a float64 "conventional computer" reference implementing the identical
//     physics (Ewald + Tosi–Fumi molten NaCl);
//   - the performance-accounting model behind the paper's Table 4 and
//     Table 5 (internal/perf), and the comparison methods of §6.3 (Barnes–Hut
//     tree code, smooth particle-mesh Ewald).
//
// The exported surface wraps those pieces into a small simulation API: build
// a NaCl system with Config, run NVT/NVE segments, and read observables.
// cmd/mdmpaper checks every claim of the paper the repository regenerates.
package mdm

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"mdm/internal/core"
	"mdm/internal/ewald"
	"mdm/internal/fault"
	"mdm/internal/md"
	"mdm/internal/mpi"
	"mdm/internal/store"
	"mdm/internal/supervise"
	"mdm/internal/units"
)

// ErrInterrupted reports a run stopped by the interrupt check installed with
// SetInterrupt. The interrupted step is complete: its state is sampled and,
// when a log is configured, durable by the time the run returns, so Run
// commits it and a later resume continues exactly where the run stopped.
var ErrInterrupted = errors.New("mdm: run interrupted")

// Backend selects which engine evaluates forces.
type Backend int

// The two engines of the reproduction.
const (
	// BackendMDM runs the simulated special-purpose machine: WINE-2
	// fixed-point pipelines + MDGRAPE-2 single-precision pipelines.
	BackendMDM Backend = iota
	// BackendReference runs the float64 conventional-computer path.
	BackendReference
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendMDM:
		return "MDM"
	case BackendReference:
		return "Reference"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// Config describes one NaCl simulation. Zero values select the defaults
// noted on each field.
type Config struct {
	Cells       int     // rock-salt unit cells per side (default 2 → 64 ions)
	Lattice     float64 // lattice constant in Å (default 5.64, NaCl)
	Temperature float64 // initial/target temperature in K (default 1200, the paper's melt)
	Dt          float64 // time step in fs (default 2, as in §5)
	Alpha       float64 // Ewald splitting parameter (default: balanced for the box)
	Seed        int64   // velocity RNG seed (default 1)
	Backend     Backend // force engine (default BackendMDM)

	// PotentialEvery sets how often the host evaluates the potential
	// energy on the MDM backend (default 1; the paper used 100): on the steps
	// that are multiples of it, whose value the steps in between report. A
	// resumed run keeps that cadence and adds one evaluation at the step it
	// resumes from — the value in force there is in no checkpoint — so its
	// records equal the uninterrupted run's from the next multiple on.
	PotentialEvery int

	// Faults is a fault-injection scenario in the internal/fault DSL, e.g.
	// "wine2:board-drop@step=100,board=2; mpi:drop@src=1,dst=0,n=3". When
	// non-empty (MDM backend only) the force path runs under the recovery
	// policy: transient faults are retried, dead boards re-striped, and the
	// run degrades to the reference path when hardware capacity is gone.
	// The schedule is deterministic: the same scenario yields the same
	// faults and the same FaultReport. Validate refuses a clause no run
	// can fire.
	Faults string

	// Workers is the host worker-pool width the MDM backend uses to stripe
	// the simulated WINE-2/MDGRAPE-2 pipelines across OS threads (0 =
	// runtime.GOMAXPROCS(0); 1 = no pool goroutine). The WINE-2 pass runs
	// beside the MDGRAPE-2 sweep at every width, and on the serial engine
	// (and Ranks 1) the lane that finishes first claims chunks of the
	// other's pass. Any width produces bit-identical trajectories; the
	// reference backend ignores it.
	Workers int

	// Pipeline is ignored: every MDM engine runs the WINE-2 pass of every
	// step beside the MDGRAPE-2 sweep (§3.1).
	//
	// Deprecated: nothing reads it; the field goes with ROADMAP item 3 (b).
	Pipeline bool

	// Skin is the Verlet skin in Å added to the real-space cell size so the
	// sorted particle layout is reused across steps until a particle moves
	// more than Skin/2 (MDM backend only; 0 rebuilds every step). A reuse
	// step evaluates, on current coordinates, the cells and periodic images
	// fixed at the last rebuild, for the forces and the potential alike. The
	// pair set is the r_cut sphere at any skin: a skin only decides which
	// out-of-cutoff pairs the hardware streams, so it changes trajectories at
	// rounding level, not the physics.
	Skin float64

	// Ranks enables the §4 spatial decomposition on the MDM backend: the
	// simulation box is split into Ranks contiguous cell blocks, each owned
	// by one real-space process of an in-process MPI world, with WaveRanks
	// wavenumber processes running the WINE-2 library alongside (the paper
	// ran 16 + 8). Zero keeps the single-process machine. Ownership is
	// persistent across steps: particles migrate only when they cross a
	// domain face, and between layout rebuilds only ghost positions
	// move over the wire. With WaveRanks <= 1 trajectories are bit-identical
	// to the single-process machine at the same Skin; larger wavenumber
	// groups reorder the structure-factor reduction and agree to float64
	// rounding instead.
	Ranks int

	// WaveRanks is the number of wavenumber processes when Ranks > 0
	// (default 1). Setting it without Ranks is an error.
	WaveRanks int

	// Supervise enables long-run supervision on the MDM backend: a watchdog
	// over the simulated hardware, with circuit breakers over boards and
	// sites riding on it, and a write-ahead step journal. The zero value
	// disables all of it and costs nothing on the force path.
	Supervise SuperviseConfig

	// fsys overrides the storage layer for the run log's I/O (nil = the real
	// filesystem). Unexported: only in-package tests inject the
	// fault filesystem; the public API never leaks internal/store types.
	fsys store.FS
}

// SetStoreFS routes the simulation's one durable artifact — its run log —
// through an alternate storage layer; nil keeps the real filesystem. The serving daemon (internal/serve) injects its shared
// filesystem here so a whole fleet of sessions lives on one crash-testable
// store, and chaos suites inject store.FaultFS. The parameter type lives in
// an internal package on purpose: outside this module only the default OS
// filesystem is reachable, so the public Config surface stays closed.
func (c *Config) SetStoreFS(fsys store.FS) { c.fsys = fsys }

// storeFS resolves the storage layer the run log writes through.
func (c Config) storeFS() store.FS {
	if c.fsys == nil {
		return store.OS()
	}
	return c.fsys
}

// journalOptions resolves the log's storage options.
func (c Config) journalOptions() supervise.Options {
	return supervise.Options{FS: c.storeFS(), SyncEvery: c.Supervise.SyncEvery}
}

// SuperviseConfig is the long-run supervision policy of a Simulation. The
// paper's production run held 2,304 ASICs busy for 36.5 hours (§6); at that
// scale silence is a failure mode of its own, so the supervision layer turns
// stalls into typed errors, repeated failures into quarantines, and makes
// every committed step durable.
type SuperviseConfig struct {
	// Watchdog is the stall deadline for a single hardware call (0 disables
	// the watchdog). Every hardware call beats it through the boards' one
	// hardware hook; once a step has been silent this long the call is
	// interrupted and fed to the recovery ladder as a retryable stall. A
	// watchdog also arms the circuit breakers, whose policy is fixed: a board
	// or site failing 3 times within 20 steps is opened — a board is
	// quarantined by re-striping, a site is served by the host path for 8
	// steps (doubling per reopen, up to 256) until a half-open probe
	// succeeds.
	Watchdog time.Duration

	// Journal is the path of the run's log, its one durable artifact (""
	// disables it). The log opens with a snapshot frame — the state at the
	// last checkpoint commit — and every completed step appends a record
	// that is fsynced before the run reports the step: the fsync of step k
	// overlaps the force evaluation of step k+1, and every step a
	// RunNVT/RunNVE call ran is durable when the call returns (as it is on
	// entry to WriteCheckpoint and in Free). WriteCheckpoint, which Run
	// calls every Protocol.Every steps, atomically replaces the log with one
	// that opens with a new snapshot. ResumeFromJournal replays the records
	// over the snapshot, recovering a killed run at the exact committed step.
	Journal string

	// SyncEvery is the log's group-commit interval: fsync after every Nth
	// step record (0 or 1 = every record; larger values trade the durability
	// of up to N-1 trailing steps for fewer fsyncs). While a run is in
	// progress one more completed step may be awaiting its fsync — the one
	// overlapping the next force evaluation. A checkpoint commit makes every
	// step before it durable.
	SyncEvery int
}

// enabled reports whether the supervision that needs the recovery layer —
// the watchdog and its breakers — is on (the journal alone works with the
// plain machine).
func (sc SuperviseConfig) enabled() bool { return sc.Watchdog > 0 }

func (c *Config) fillDefaults() {
	if c.Cells == 0 {
		c.Cells = 2
	}
	if c.Lattice == 0 {
		c.Lattice = 5.64
	}
	if c.Temperature == 0 {
		c.Temperature = 1200
	}
	if c.Dt == 0 {
		c.Dt = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PotentialEvery == 0 {
		c.PotentialEvery = 1
	}
}

// EwaldParams returns the discretization a Config resolves to.
func (c Config) EwaldParams() (ewald.Params, error) {
	c.fillDefaults()
	l := float64(c.Cells) * c.Lattice
	alpha := c.Alpha
	if alpha == 0 {
		// Balanced discretization bounded by the minimum-image constraint
		// of the reference oracle: r_cut <= 0.45 L.
		alpha = math.Max(ewald.SReal/0.45, ewald.ConventionalCost().OptimalAlpha(l, density(c)))
	}
	p := ewald.ParamsForAlpha(l, alpha)
	if p.RCut > l/2 {
		p.RCut = 0.45 * l
	}
	return p, p.Validate()
}

func density(c Config) float64 {
	l := float64(c.Cells) * c.Lattice
	n := float64(8 * c.Cells * c.Cells * c.Cells)
	return n / (l * l * l)
}

// Record is one observable sample (step, time in ps, temperature, energies).
type Record = md.Record

// FaultReport is the recovery audit trail of a run under fault injection:
// retry, re-stripe and fallback counts plus the event log. Deterministic for
// a given Config.Faults scenario.
type FaultReport = core.RunReport

// Simulation is a configured NaCl run.
type Simulation struct {
	cfg Config
	p   ewald.Params

	System     *md.System
	Integrator *md.Integrator
	Recorder   *md.Recorder

	engine    core.Engine     // the simulated hardware; nil for the reference backend
	resilient *core.Resilient // engine's recovery layer, non-nil under a fault scenario or supervision
	injector  *fault.Injector // the scenario's schedule; survives restarts
	obs       *core.Reference // host-side pressure observer: the force field on the reference backend, else built by the first Pressure call
	nveStart  int             // record index where the latest NVE segment began

	journal   *supervise.Journal // write-ahead step journal (nil when disabled)
	commit    *committer         // the journal's commit pipeline (nil when disabled)
	stage     string             // "nvt"/"nve": the running segment, tags journal records
	replaying bool               // journal replay in progress: suppress re-journaling
	interrupt func() bool        // graceful-shutdown check; survives restarts
	phases    *core.PhaseSink    // the serial engine's step-phase spine; survives restarts

	freeOnce sync.Once // Free is idempotent and safe to race with itself
	freeErr  error     // the first Free's verdict, replayed to later callers
}

// Validate reports the first reason NewSimulation or ResumeFromJournal would
// refuse the configuration — every rejected combination is listed here and
// nowhere else. The reference backend is the bare float64 path: the spatial
// decomposition, fault injection, hardware supervision and the Verlet skin
// all act on the simulated machine, so asking for them without it is an
// error rather than a setting silently dropped (a journal alone works with
// either backend). So is WaveRanks without the
// decomposition it sizes, and a fault clause the run would never fire.
func (c Config) Validate() error {
	switch {
	case c.Backend != BackendMDM && c.Backend != BackendReference:
		return fmt.Errorf("mdm: unknown backend %v", c.Backend)
	case c.Ranks < 0 || c.WaveRanks < 0:
		return fmt.Errorf("mdm: negative rank count (Ranks %d, WaveRanks %d)", c.Ranks, c.WaveRanks)
	case c.WaveRanks > 0 && c.Ranks == 0:
		return fmt.Errorf("mdm: WaveRanks requires Ranks (the spatial decomposition)")
	case c.Backend == BackendMDM:
		return c.validateFaults()
	case c.Ranks > 0:
		return fmt.Errorf("mdm: the spatial decomposition requires the MDM backend")
	case c.Faults != "":
		return fmt.Errorf("mdm: fault injection requires the MDM backend")
	case c.Supervise.enabled():
		return fmt.Errorf("mdm: the watchdog and circuit breakers require the MDM backend")
	case c.Skin != 0:
		return fmt.Errorf("mdm: the Verlet skin requires the MDM backend")
	}
	return nil
}

// validateFaults parses Faults and refuses a clause no run of c can fire,
// which would only turn the recovery layer on for nothing: a store clause
// (no run builds the fault-injecting filesystem), and an mpi clause on the
// serial machine or addressed outside its world of Ranks + max(WaveRanks, 1).
func (c Config) validateFaults() error {
	events, err := fault.Parse(c.Faults)
	if err != nil {
		return fmt.Errorf("mdm: fault scenario: %w", err)
	}
	world := c.Ranks + max(c.WaveRanks, 1)
	for _, e := range events {
		switch {
		case e.Site == fault.Store:
			return fmt.Errorf("mdm: fault clause %q: no run reads the store site", e)
		case e.Site == fault.MPI && c.Ranks == 0:
			return fmt.Errorf("mdm: fault clause %q needs Ranks: the serial machine's private world takes no message faults", e)
		case e.Site == fault.MPI && max(e.Src, e.Dst) >= world:
			return fmt.Errorf("mdm: fault clause %q addresses a rank outside the world of %d ranks", e, world)
		}
	}
	return nil
}

// newForceField builds the MDM backend's engine, under the recovery layer
// when a fault scenario or supervision asks for it. A non-nil injector (the
// restart path) takes precedence over parsing cfg.Faults again, so events
// that already fired before a restart stay consumed.
func newForceField(cfg Config, p ewald.Params, in *fault.Injector, phases *core.PhaseSink) (core.Engine, *core.Resilient, *fault.Injector, error) {
	mcfg := core.CurrentMachineConfig(p)
	mcfg.PotentialEvery = cfg.PotentialEvery
	mcfg.Workers = cfg.Workers
	mcfg.Skin = cfg.Skin
	mcfg.Phases = phases
	if in == nil && cfg.Faults != "" {
		var err error
		in, err = fault.ParseInjector(cfg.Faults)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("mdm: fault scenario: %w", err)
		}
	}
	rc := core.RecoveryConfig{Injector: in, Watchdog: cfg.Supervise.Watchdog}
	recovered := in != nil || cfg.Supervise.enabled()
	var world *mpi.World
	nReal, nWave := cfg.Ranks, max(cfg.WaveRanks, 1)
	if nReal > 0 {
		var err error
		if world, err = mpi.NewWorld(nReal + nWave); err != nil {
			return nil, nil, nil, err
		}
		// Under a fault scenario the world's tight default deadline stays:
		// drop scenarios rely on the receiver noticing a swallowed message
		// quickly.
		if in == nil {
			world.SetTimeout(core.SessionTimeout)
		}
	}
	var (
		eng core.Engine
		res *core.Resilient
		err error
	)
	switch {
	case recovered:
		res, err = core.NewResilient(mcfg, rc, world, nReal, nWave)
		eng = res
	case world != nil:
		eng, err = core.NewParallelRun(world, mcfg, nReal, nWave)
	default:
		eng, err = core.NewMachine(mcfg)
	}
	if err != nil {
		return nil, nil, nil, err // eng holds a typed nil here: do not return it
	}
	return eng, res, in, nil
}

// PhaseRecord is the step-phase spine's totals: per lane of the serial
// engine's force call, per phase, a count and a time.
type PhaseRecord = core.PhaseRecord

// phaseOrigin is where the spine's clock starts. The spine times force-call
// phases only; no reading enters the simulation state or a journal record.
var phaseOrigin = time.Now()

// phaseClock is the spine's clock: monotonic nanoseconds since phaseOrigin.
func phaseClock() int64 { return int64(time.Since(phaseOrigin)) }

func newSimulation(cfg Config, sys *md.System, step int, in *fault.Injector) (*Simulation, error) {
	p, err := cfg.EwaldParams()
	if err != nil {
		return nil, err
	}
	sim := &Simulation{cfg: cfg, p: p, Recorder: &md.Recorder{}, injector: in}
	if cfg.Backend == BackendMDM && cfg.Ranks == 0 {
		sim.phases = core.NewPhaseSink(phaseClock)
	}
	if err := sim.build(sys, step); err != nil {
		return nil, err
	}
	sim.Recorder.Sample(sim.Integrator)
	return sim, nil
}

// build installs sys at step behind a fresh force engine and integrator — the
// construction a new run, a resume and an in-place restart share. The
// simulation's injector is reused, so events that already fired stay
// consumed.
func (s *Simulation) build(sys *md.System, step int) error {
	var ff md.ForceField
	var err error
	if s.cfg.Backend == BackendReference {
		s.obs, err = core.NewReference(s.p)
		ff = s.obs
	} else {
		s.engine, s.resilient, s.injector, err = newForceField(s.cfg, s.p, s.injector, s.phases)
		ff = s.engine
	}
	if err != nil {
		return err
	}
	if s.engine != nil {
		// Align the engine's step clock with the simulation step, so
		// step-keyed fault events land where the scenario says and the
		// potential is evaluated on the steps an uninterrupted run evaluates.
		s.engine.SetStep(step)
	}
	it, err := md.NewIntegrator(sys, ff, s.cfg.Dt)
	if err != nil {
		return err
	}
	it.SetStepCount(step)
	s.System, s.Integrator = sys, it
	return nil
}

// NewSimulation builds the crystal, assigns Maxwell–Boltzmann velocities and
// initializes the selected force engine.
func NewSimulation(cfg Config) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	sys, err := md.NewRockSalt(cfg.Cells, cfg.Lattice)
	if err != nil {
		return nil, err
	}
	sys.SetMaxwellVelocities(cfg.Temperature, cfg.Seed)
	sim, err := newSimulation(cfg, sys, 0, nil)
	if err != nil {
		return nil, err
	}
	if path := cfg.Supervise.Journal; path != "" {
		// The log opens with the step-0 snapshot: from its creation on, a
		// run's records always follow a state they can be replayed over.
		snap, err := sim.snapshot()
		var j *supervise.Journal
		if err == nil {
			j, err = supervise.CreateLogFS(path, cfg.journalOptions(), snap)
		}
		if err != nil {
			_ = sim.Free()
			return nil, fmt.Errorf("mdm: journal: %w", err)
		}
		sim.attachJournal(j)
	}
	return sim, nil
}

// ResumeFromJournal rebuilds a run that was killed between checkpoint
// commits — the recovery path for a hard kill (power loss, OOM, SIGKILL).
// The recovery manager (store.Scan) inventories the run's log and repairs
// crash debris (a torn tail, a stale atomic-replace temp); the log's
// snapshot frame restores the state, the fault injector's cursor and the
// recovery report of the last commit, and its records replay the steps that
// committed after it under the original ensemble schedule and fault
// timeline, yielding the exact pre-kill state — bit for bit at Skin 0; at
// Skin > 0 the new engine sorts its layout afresh at the snapshot, which
// moves the bits at rounding level. cfg must be the original run's Config
// (including Supervise.Journal and Faults).
func ResumeFromJournal(cfg Config) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	path := cfg.Supervise.Journal
	if path == "" {
		return nil, fmt.Errorf("mdm: ResumeFromJournal requires Config.Supervise.Journal")
	}
	fsys := cfg.storeFS()
	inv, err := store.Scan(fsys, path, supervise.ScanLog)
	if err != nil {
		return nil, fmt.Errorf("mdm: recovery scan: %w", err)
	}
	if !inv.Healthy() && !inv.Unrecoverable() {
		// Crash debris is the expected shape after a kill: truncate a torn
		// tail, drop a stale temp. A damaged snapshot is left for the read
		// below to refuse, typed.
		if _, err := store.Repair(fsys, inv); err != nil {
			return nil, fmt.Errorf("mdm: recovery repair: %w", err)
		}
	}
	recs, err := supervise.ReadJournalFS(fsys, path)
	if err != nil {
		return nil, fmt.Errorf("mdm: journal: %w", err)
	}
	if len(recs) == 0 {
		// No log: the run never committed its creation, so restarting from
		// scratch loses no committed progress.
		return nil, fmt.Errorf("mdm: resume %s: %w", path, store.ErrNoRunState)
	}
	snap, tail := recs[0], recs[1:]
	// The records must continue the snapshot step by step. One that does
	// not is a timeline disjoint from the snapshot's — a leftover from
	// another incarnation of the run directory. Discarding it would silently
	// lose committed history, so the directory is refused as stale instead.
	for i, rec := range tail {
		if rec.Step != snap.Step+i+1 {
			return nil, fmt.Errorf("mdm: journal: step %d follows snapshot step %d non-contiguously: %w",
				rec.Step, snap.Step, store.ErrStaleRunDir)
		}
	}
	sys, err := md.DecodeState(snap.State)
	if err != nil {
		return nil, fmt.Errorf("mdm: journal: %w", err)
	}
	// Rebuild the fault schedule and consume the events that had fired by
	// the snapshot; events after it refire during replay exactly as they
	// did originally.
	var in *fault.Injector
	if cfg.Faults != "" {
		if in, err = fault.ParseInjector(cfg.Faults); err != nil {
			return nil, fmt.Errorf("mdm: fault scenario: %w", err)
		}
		in.Consume(snap.Cursor)
	}
	sim, err := newSimulation(cfg, sys, snap.Step, in)
	if err != nil {
		return nil, err
	}
	if sim.resilient != nil && len(snap.Payload) > 0 {
		var rep FaultReport
		if err := json.Unmarshal(snap.Payload, &rep); err != nil {
			_ = sim.Free()
			return nil, fmt.Errorf("mdm: journal payload: %w", err)
		}
		sim.resilient.AdoptReport(rep)
	}
	j, err := supervise.AppendJournalFS(path, cfg.journalOptions())
	if err != nil {
		_ = sim.Free()
		return nil, fmt.Errorf("mdm: journal: %w", err)
	}
	sim.attachJournal(j)
	// Replay the records, grouped into runs of the journaled ensemble
	// stages. Journaling stays off: these records are already durable.
	sim.replaying = true
	for i := 0; i < len(tail); {
		k := i + 1
		for k < len(tail) && tail[k].Stage == tail[i].Stage {
			k++
		}
		run := sim.RunNVE
		if tail[i].Stage == "nvt" {
			run = sim.RunNVT
		}
		if err := run(k - i); err != nil {
			sim.replaying = false
			_ = sim.Free()
			return nil, fmt.Errorf("mdm: journal replay at step %d: %w", tail[i].Step, err)
		}
		i = k
	}
	sim.replaying = false
	return sim, nil
}

// WriteCheckpoint commits the simulation's current state: the log is
// atomically replaced by one that opens with a snapshot frame of the state,
// the step, the injector cursor and the recovery report (file fsync, rename,
// directory fsync). Any step commit still in flight is joined first, so no
// step is checkpointed ahead of its record. This is the durable commit point
// of a run; Run calls it after every segment.
func (s *Simulation) WriteCheckpoint() error {
	if s.journal == nil {
		return fmt.Errorf("mdm: WriteCheckpoint requires Config.Supervise.Journal")
	}
	if err := s.commit.join(); err != nil {
		return err
	}
	snap, err := s.snapshot()
	if err == nil {
		err = s.journal.Snapshot(snap)
	}
	if err != nil {
		return fmt.Errorf("mdm: checkpoint: %w", err)
	}
	return nil
}

// snapshot is the snapshot frame of the current step: its step record plus
// the state, encoded once.
func (s *Simulation) snapshot() (supervise.Record, error) {
	rec, err := s.stepRecord()
	if err != nil {
		return rec, err
	}
	rec.State, err = md.EncodeState(s.System)
	return rec, err
}

// Protocol is the schedule Run drives: the paper's §5 run of velocity-scaled
// NVT to step NVT, then NVE to step NVT+NVE.
type Protocol struct {
	NVT, NVE int

	// Every bounds a segment to that many steps when the simulation has a
	// log (Config.Supervise.Journal); without one, or at 0, a stage is one
	// segment. A segment never crosses the NVT→NVE boundary.
	Every int

	// Restarts is how many fatal faults Run heals by restarting in place from
	// the log's snapshot. Without a log there is nothing to restart from.
	Restarts int

	// AfterNVT, when set, runs once, the first time the step count stands at
	// the NVT goal. Committed, when set, runs after every checkpoint commit.
	AfterNVT  func() error
	Committed func()
}

// Run advances the simulation through p from wherever its step count stands
// — the one driver of mdmsim and the serving daemon. With a log, every
// segment ends in a checkpoint commit, including the partial segment an
// interrupt ends, so ErrInterrupted leaves a run that resumes at the step it
// stopped on, and a fault.FatalError is healed, while p.Restarts lasts, by an
// in-place restart from the log's snapshot. A run already at its goal
// commits the state it stands at. Run returns the restarts it made.
func (s *Simulation) Run(p Protocol) (restarts int, err error) {
	logged := s.journal != nil
	commit := func() error {
		if !logged {
			return nil
		}
		if err := s.WriteCheckpoint(); err != nil {
			return err
		}
		if p.Committed != nil {
			p.Committed()
		}
		return nil
	}
	if s.Integrator.StepCount() >= p.NVT+p.NVE {
		if err := commit(); err != nil {
			return 0, err
		}
	}
	afterNVT := p.AfterNVT
	for {
		step := s.Integrator.StepCount()
		if step == p.NVT && afterNVT != nil {
			if err := afterNVT(); err != nil {
				return restarts, err
			}
			afterNVT = nil
		}
		run, goal := s.RunNVT, p.NVT
		if step >= p.NVT {
			run, goal = s.RunNVE, p.NVT+p.NVE
		}
		n := goal - step
		if n <= 0 {
			return restarts, nil
		}
		if logged && p.Every > 0 {
			n = min(n, p.Every)
		}
		runErr := run(n)
		var fe *fault.FatalError
		if errors.As(runErr, &fe) && logged && restarts < p.Restarts {
			restarts++
			if err := s.restart(restarts); err != nil {
				return restarts, fmt.Errorf("mdm: restart after %v: %w", fe, err)
			}
			continue
		}
		if runErr != nil && !errors.Is(runErr, ErrInterrupted) {
			return restarts, runErr
		}
		if err := commit(); err != nil {
			return restarts, err
		}
		if runErr != nil {
			return restarts, runErr
		}
	}
}

// restart rebuilds the run in place from the log's snapshot after its n-th
// fatal fault. Only the system, engine and integrator are rebuilt, at the
// snapshot step; the samples and log records after it are dropped, and the
// restarted timeline re-executes, and re-logs, everything after it. The
// injector (its fired events stay consumed, so the fatal does not refire),
// the interrupt check, the recovery report and the commit counters carry
// over, so the finished run reads as the uninterrupted one.
func (s *Simulation) restart(n int) error {
	if err := s.commit.join(); err != nil {
		return err
	}
	snap, err := s.journal.Rewind()
	if err != nil {
		return err
	}
	sys, err := md.DecodeState(snap.State)
	if err != nil {
		return err
	}
	step := snap.Step
	rep, hasRep := s.FaultReport()
	if eng := s.engine; eng != nil {
		s.engine = nil // Free must not release it a second time
		if err := eng.Free(); err != nil {
			return err
		}
	}
	if err := s.build(sys, step); err != nil {
		return err
	}
	if hasRep {
		rep.Events = append(rep.Events, fmt.Sprintf("restart %d from the checkpoint at step %d", n, step))
		s.resilient.AdoptReport(rep)
	}
	recs := s.Recorder.Records
	for len(recs) > 0 && recs[len(recs)-1].Step > step {
		recs = recs[:len(recs)-1]
	}
	s.Recorder.Records = recs
	return nil
}

// Params returns the Ewald discretization in use.
func (s *Simulation) Params() ewald.Params { return s.p }

// N returns the particle count.
func (s *Simulation) N() int { return s.System.N() }

// RunNVT advances n steps with the velocity-scaling thermostat at the
// configured temperature (the first segment of the paper's §5 protocol),
// sampling observables after every step.
func (s *Simulation) RunNVT(n int) error {
	s.Integrator.Mode = md.NVT
	s.Integrator.Target = s.cfg.Temperature
	s.stage = "nvt"
	return s.settle(s.Integrator.Run(n, s.observe))
}

// RunNVE advances n steps at constant energy (the second segment of §5).
// The first NVE call after a thermostatted segment marks the start of the
// conservation measurement window used by EnergyDrift.
func (s *Simulation) RunNVE(n int) error {
	if s.Integrator.Mode != md.NVE {
		s.nveStart = len(s.Recorder.Records)
		// Sample the segment's starting energy before the first NVE step.
		s.Recorder.Sample(s.Integrator)
	}
	s.Integrator.Mode = md.NVE
	s.stage = "nve"
	return s.settle(s.Integrator.Run(n, s.observe))
}

// observe commits one completed step: hand its record to the journal first,
// then sample, then honor a pending interrupt. The record becomes durable
// while the next step computes; settle joins it before the run returns, so
// an interrupted run still stops on a fully committed step.
func (s *Simulation) observe(int) error {
	if err := s.commitStep(); err != nil {
		return err
	}
	s.Recorder.Sample(s.Integrator)
	if s.interrupt != nil && s.interrupt() {
		return ErrInterrupted
	}
	return nil
}

// commitStep builds the journal record of the just-completed step k, joins
// the commit of step k-1 and hands record k to the committer. A failed commit
// of step k-1 surfaces here, naming k-1, and record k is never written
// behind it.
func (s *Simulation) commitStep() error {
	if s.journal == nil || s.replaying {
		return nil
	}
	rec, err := s.stepRecord()
	if err != nil {
		return err
	}
	return s.commit.submit(rec)
}

// stepRecord snapshots the just-completed step as its journal record. It runs
// on the step goroutine, before the next step can fire another fault event,
// so the injector cursor and recovery payload are the state as of this step.
func (s *Simulation) stepRecord() (supervise.Record, error) {
	rec := supervise.Record{Step: s.Integrator.StepCount(), Stage: s.stage}
	if s.injector != nil {
		rec.Cursor = s.injector.Fired()
	}
	if s.resilient != nil {
		buf, err := json.Marshal(s.resilient.Report())
		if err != nil {
			return rec, fmt.Errorf("mdm: journal payload: %w", err)
		}
		rec.Payload = buf
	}
	return rec, nil
}

// settle joins the in-flight commit on a run's way out — success, run error
// or ErrInterrupted alike — so every step the run ran is durable when it
// returns. A commit failure outranks nil and ErrInterrupted: the caller must
// not checkpoint over a step that never became durable.
func (s *Simulation) settle(runErr error) error {
	cerr := s.commit.join()
	switch {
	case cerr == nil || errors.Is(runErr, cerr):
		return runErr
	case runErr == nil || errors.Is(runErr, ErrInterrupted):
		return cerr
	}
	return errors.Join(runErr, cerr)
}

// attachJournal installs the write-ahead journal and starts its committer.
func (s *Simulation) attachJournal(j *supervise.Journal) {
	s.journal = j
	s.commit = &committer{recs: make(chan supervise.Record, 1), results: make(chan error, 1)}
	go s.commit.run(j)
}

// CommitStats reports the journal commits joined so far and how many of those
// joins found the commit still in flight and had to wait. stalls/commits ≈ 0
// means durability is hidden behind compute; ≈ 1 means storage is slower than
// a step. The join that ends each RunNVT/RunNVE call follows its hand-off
// directly and nearly always waits, a floor of one stall per call. Both are 0
// without a journal. Call it between runs, from the goroutine that runs them.
func (s *Simulation) CommitStats() (commits, stalls int64) {
	if s.commit == nil {
		return 0, 0
	}
	return s.commit.commits, s.commit.stalls
}

// committer is the one-deep commit pipeline of a journaled simulation: a
// persistent goroutine that runs journal.Append — marshal, write, group-commit
// fsync — for step k while the step goroutine evaluates the forces of step
// k+1 (the paper's host does its I/O while the pipelines compute, §3.1). At
// most one record is in flight, and between hand-off and join the step
// goroutine touches neither the journal nor any file, so the storage
// operations happen in exactly the order of a serial commit. Everything but
// run belongs to the step goroutine.
type committer struct {
	recs    chan supervise.Record // hand-off to run; closed by stop
	results chan error            // one verdict per hand-off; closed when run exits

	inflight bool  // a record was handed off and not yet joined
	step     int   // the step that record commits
	err      error // the first failed commit; sticky, nothing is written past it

	commits, stalls int64
}

// run is the committer goroutine.
func (c *committer) run(j *supervise.Journal) {
	defer close(c.results)
	for rec := range c.recs {
		c.results <- j.Append(rec)
	}
}

// submit joins the previous commit and hands rec to the committer.
func (c *committer) submit(rec supervise.Record) error {
	if err := c.join(); err != nil {
		return err
	}
	c.inflight, c.step = true, rec.Step
	c.recs <- rec
	return nil
}

// join waits for the in-flight commit, if any, and reports the first commit
// failure so far. A stall is a join that found the verdict not yet posted.
// A nil committer (no journal) has nothing to join.
func (c *committer) join() error {
	if c == nil {
		return nil
	}
	if !c.inflight {
		return c.err
	}
	var err error
	select {
	case err = <-c.results:
	default:
		c.stalls++
		err = <-c.results
	}
	c.inflight = false
	c.commits++
	if err != nil {
		c.err = fmt.Errorf("mdm: journal: step %d: %w", c.step, err)
	}
	return c.err
}

// stop joins the in-flight commit and waits for the goroutine to exit.
func (c *committer) stop() error {
	err := c.join()
	close(c.recs)
	<-c.results
	return err
}

// SetInterrupt installs a check polled after every completed step; when it
// returns true the running segment stops with ErrInterrupted. The check
// survives Run's in-place restarts. mdmsim uses it to turn SIGINT/SIGTERM
// into a graceful shutdown: finish the step, join its commit, checkpoint.
func (s *Simulation) SetInterrupt(check func() bool) { s.interrupt = check }

// Records returns all sampled observables.
func (s *Simulation) Records() []Record { return s.Recorder.Records }

// TemperatureStats returns the mean and standard deviation of the sampled
// temperature (the Figure 2 quantity).
func (s *Simulation) TemperatureStats() (mean, std float64) {
	return s.Recorder.TemperatureStats()
}

// EnergyDrift returns the maximum relative total-energy deviation over the
// latest NVE segment (the §5 conservation figure of merit; the thermostatted
// NVT segment changes the energy by design and is excluded). It reads only
// the records whose potential was evaluated at their step (PotentialEvery),
// and is NaN — unavailable — when the segment holds fewer than two.
func (s *Simulation) EnergyDrift() float64 {
	sub := md.Recorder{Records: s.Recorder.Records[s.nveStart:]}
	return sub.EnergyDrift()
}

// Pressure returns the instantaneous virial pressure in GPa, evaluated on
// the host in float64 (the machine backend likewise left observables to the
// host computer, §3.1). The reference backend's force field evaluates it;
// the machine backend builds its float64 observer on the first call.
func (s *Simulation) Pressure() (float64, error) {
	if s.obs == nil {
		obs, err := core.NewReference(s.p)
		if err != nil {
			return 0, err
		}
		s.obs = obs
	}
	p, err := s.obs.Pressure(s.System)
	return p * units.EVPerA3ToGPa, err
}

// FaultReport returns the recovery audit trail when the run is under a
// fault scenario; ok is false otherwise.
func (s *Simulation) FaultReport() (rep FaultReport, ok bool) {
	if s.resilient == nil {
		return FaultReport{}, false
	}
	return s.resilient.Report(), true
}

// Phases returns the step-phase spine's totals so far, on the monotonic
// clock: where the MDM backend's serial engine spent its force calls, per
// lane and phase, restarts included. ok is false on the reference backend
// and for a decomposed run (Ranks > 0), which book no phases yet.
func (s *Simulation) Phases() (rec PhaseRecord, ok bool) {
	if s.phases == nil {
		return PhaseRecord{}, false
	}
	return s.phases.Snapshot(), true
}

// Free releases the simulated boards of the MDM backend (no-op for the
// reference backend), joins any commit still in flight, stops the committer
// and closes the journal, making the last committed step its final record.
// Free is idempotent and safe for concurrent use: the serving layer's reaper
// may tear a session down while another goroutine is still holding the
// deferred Free of a completed run, and the loser of that race must observe
// the first call's verdict, not a double-close panic.
func (s *Simulation) Free() error {
	s.freeOnce.Do(func() { s.freeErr = s.free() })
	return s.freeErr
}

func (s *Simulation) free() error {
	var jerr error
	if s.journal != nil {
		jerr = errors.Join(s.commit.stop(), s.journal.Close())
		s.journal = nil
	}
	if s.engine == nil {
		return jerr
	}
	return errors.Join(s.engine.Free(), jerr)
}
