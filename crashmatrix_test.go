package mdm

import (
	"fmt"
	"testing"

	"mdm/internal/fault"
	"mdm/internal/store"
	"mdm/internal/vec"
)

// The crash matrix: kill the run at EVERY storage operation it performs —
// each journal-record write, each fsync (the post-write-pre-sync window),
// each atomic-replace rename (checkpoint commit, journal creation, segment
// rotation) and each file creation — then recover and finish. Whatever the
// kill point, the finished trajectory must be bit-identical to a run that
// was never interrupted. This is the end-to-end proof of the storage
// layer's durability contract; the per-operation semantics are unit-tested
// in internal/store and internal/supervise.

// The matrix protocol: 5 NVT + 3 NVE steps driven by Run at a checkpoint
// cadence of 3, so it commits checkpoints (and the journal rotation +
// compaction that ride on them) after steps 3, 5 and 8.
const (
	cmNVTSteps = 5
	cmNVESteps = 3
	cmLastStep = cmNVTSteps + cmNVESteps
	cmCkptPath = "run.ckpt"
	cmWALPath  = "run.wal"
)

func cmConfig(fsys store.FS) Config {
	cfg := Config{
		Cells:     2,
		Backend:   BackendReference,
		Supervise: SuperviseConfig{Journal: cmWALPath},
	}
	cfg.fsys = fsys
	return cfg
}

// cmRun drives the matrix protocol from wherever the simulation stands — the
// start, or the step a resume landed on — returning the first storage
// failure (the injected kill) unswallowed.
func cmRun(sim *Simulation) error {
	_, err := sim.Run(Protocol{NVT: cmNVTSteps, NVE: cmNVESteps, Checkpoint: cmCkptPath, Every: 3})
	return err
}

// countHook tallies storage operations per class — the probe that sizes the
// matrix. The reference run doubles as the census.
type countHook struct {
	ops map[string]int64
}

func (h *countHook) StoreOp(class string) fault.StoreFate {
	h.ops[class]++
	return fault.StoreFate{}
}

// cmReference runs the protocol uninterrupted on a fault filesystem,
// returning the final state and the per-class operation counts.
func cmReference(t *testing.T) (pos, vel []vec.V, ops map[string]int64) {
	t.Helper()
	hook := &countHook{ops: make(map[string]int64)}
	fs := store.NewFaultFS(hook)
	sim, err := NewSimulation(cmConfig(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sim.Free() }()
	if err := cmRun(sim); err != nil {
		t.Fatal(err)
	}
	if sim.Integrator.StepCount() != cmLastStep {
		t.Fatalf("reference stopped at step %d", sim.Integrator.StepCount())
	}
	pos = append([]vec.V(nil), sim.System.Pos...)
	vel = append([]vec.V(nil), sim.System.Vel...)
	return pos, vel, hook.ops
}

// cmRecover reboots the crashed filesystem, recovers — resume from the
// newest consistent checkpoint + journal-tail pair, or start over when the
// kill predates any durable checkpoint — and finishes the protocol,
// returning the final simulation.
func cmRecover(t *testing.T, fs *store.FaultFS, cfg Config) *Simulation {
	t.Helper()
	fs.Reboot(nil)
	if sim, err := ResumeFromJournal(cfg, cmCkptPath); err == nil {
		// The resume repaired the crash debris; the directory it leaves
		// behind must pass the same scan mdmfsck -verify runs.
		lay := store.Layout{Checkpoint: cmCkptPath, Journal: cmWALPath}
		inv, serr := store.Scan(fs, lay, storeValidators())
		if serr != nil || !inv.Healthy() {
			t.Fatalf("post-resume scan not healthy: %v\n%+v", serr, inv)
		}
		step := sim.Integrator.StepCount()
		if step < 3 || step > cmLastStep {
			t.Fatalf("resumed at implausible step %d", step)
		}
		if err := cmRun(sim); err != nil {
			t.Fatalf("finish after resume at step %d: %v", step, err)
		}
		return sim
	}
	// No durable checkpoint to build on: the run starts over. NewSimulation
	// retires the debris (stale segments, old active journal) itself.
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatalf("fresh start after kill: %v", err)
	}
	if err := cmRun(sim); err != nil {
		t.Fatalf("fresh run after kill: %v", err)
	}
	return sim
}

// cmAssertIdentical compares the recovered trajectory to the reference, bit
// for bit.
func cmAssertIdentical(t *testing.T, sim *Simulation, pos, vel []vec.V) {
	t.Helper()
	if got := sim.Integrator.StepCount(); got != cmLastStep {
		t.Fatalf("finished at step %d, want %d", got, cmLastStep)
	}
	for i := range pos {
		if sim.System.Pos[i] != pos[i] || sim.System.Vel[i] != vel[i] {
			t.Fatalf("ion %d diverges after kill-recover:\n  pos %v vs %v\n  vel %v vs %v",
				i, sim.System.Pos[i], pos[i], sim.System.Vel[i], vel[i])
		}
	}
}

func TestCrashMatrix(t *testing.T) {
	pos, vel, ops := cmReference(t)

	// The census must see every operation class the matrix enumerates —
	// otherwise the matrix is silently shrinking.
	for _, class := range []string{"create", "write", "sync", "rename"} {
		if ops[class] == 0 {
			t.Fatalf("reference run performed no %q operations; census %v", class, ops)
		}
	}

	var scenarios []string
	for _, class := range []string{"create", "write", "sync", "rename"} {
		for n := int64(1); n <= ops[class]; n++ {
			scenarios = append(scenarios, fmt.Sprintf("store:crash@%s=%d", class, n))
		}
	}
	// Torn variants: the kill lands mid-record, leaving 0 or 9 bytes of the
	// in-flight buffer on disk.
	for n := int64(1); n <= ops["write"]; n++ {
		scenarios = append(scenarios,
			fmt.Sprintf("store:torn-write@write=%d,bytes=0", n),
			fmt.Sprintf("store:torn-write@write=%d,bytes=9", n))
	}
	// Crash squarely before each rename: the atomic-replace commit point.
	for n := int64(1); n <= ops["rename"]; n++ {
		scenarios = append(scenarios, fmt.Sprintf("store:crash-before-rename@rename=%d", n))
	}

	t.Logf("census %v: %d kill points", ops, len(scenarios))
	for _, scenario := range scenarios {
		t.Run(scenario, func(t *testing.T) {
			in, err := fault.ParseInjector(scenario)
			if err != nil {
				t.Fatal(err)
			}
			fs := store.NewFaultFS(in)
			cfg := cmConfig(fs)
			victim, err := NewSimulation(cfg)
			if err == nil {
				err = cmRun(victim)
				_ = victim.Free() // kill: the latched fs fails the close too
			}
			if err == nil {
				t.Fatalf("scenario %s never fired", scenario)
			}
			if !fs.Crashed() {
				t.Fatalf("victim failed without crashing: %v", err)
			}
			recovered := cmRecover(t, fs, cfg)
			defer func() { _ = recovered.Free() }()
			cmAssertIdentical(t, recovered, pos, vel)
		})
	}
}

// One matrix lane through the MDM backend: the journaled fixed-point
// pipeline recovers bit-identically too (the full matrix runs on the
// reference backend for speed; the storage layer under test is identical).
func TestCrashMatrixMDMBackend(t *testing.T) {
	hook := &countHook{ops: make(map[string]int64)}
	fs := store.NewFaultFS(hook)
	cfg := cmConfig(fs)
	cfg.Backend = BackendMDM
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cmRun(sim); err != nil {
		t.Fatal(err)
	}
	pos := append([]vec.V(nil), sim.System.Pos...)
	vel := append([]vec.V(nil), sim.System.Vel...)
	if err := sim.Free(); err != nil {
		t.Fatal(err)
	}

	// Kill at the last journal append, past the step-5 checkpoint; resume
	// must replay. The final checkpoint is the last write.
	writes := hook.ops["write"]
	scenario := fmt.Sprintf("store:crash@write=%d", writes-1)
	in, err := fault.ParseInjector(scenario)
	if err != nil {
		t.Fatal(err)
	}
	fs = store.NewFaultFS(in)
	cfg = cmConfig(fs)
	cfg.Backend = BackendMDM
	victim, err := NewSimulation(cfg)
	if err == nil {
		err = cmRun(victim)
		_ = victim.Free()
	}
	if err == nil {
		t.Fatalf("scenario %s never fired", scenario)
	}
	recovered := cmRecover(t, fs, cfg)
	defer func() { _ = recovered.Free() }()
	cmAssertIdentical(t, recovered, pos, vel)
}
