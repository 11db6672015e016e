package mdm

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"mdm/internal/fault"
	"mdm/internal/md"
)

// A fatal fault healed by an in-place restart leaves the run the clean run
// would have been — final state bit for bit, every record, and the statistics
// read off them — whether it strikes in the NVT stage, in the NVE stage
// right after the boundary checkpoint, or later in NVE.
func TestRunRestartsInPlace(t *testing.T) {
	run := func(t *testing.T, faults string) (*Simulation, int, int) {
		t.Helper()
		sim, err := NewSimulation(Config{Cells: 2, PotentialEvery: 1, Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sim.Free() })
		afterNVT := 0
		restarts, err := sim.Run(Protocol{
			NVT: 10, NVE: 20, Checkpoint: filepath.Join(t.TempDir(), "run.ckpt"), Every: 5, Restarts: 1,
			AfterNVT: func() error { afterNVT++; return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim, restarts, afterNVT
	}
	clean, _, _ := run(t, "")
	for _, c := range []struct{ name, faults string }{
		{"nvt", "run:fatal@step=8"},           // step 7: back to step 5
		{"nve-boundary", "run:fatal@step=12"}, // step 11: back to step 10
		{"nve", "run:fatal@step=25"},          // step 24: back to step 20
	} {
		t.Run(c.name, func(t *testing.T) {
			sim, restarts, afterNVT := run(t, c.faults)
			if restarts != 1 || afterNVT != 1 {
				t.Errorf("%d restarts, %d after-NVT calls; want 1 and 1", restarts, afterNVT)
			}
			for i := range clean.System.Pos {
				if sim.System.Pos[i] != clean.System.Pos[i] || sim.System.Vel[i] != clean.System.Vel[i] {
					t.Fatalf("ion %d diverges from the clean run", i)
				}
			}
			got, want := sim.Records(), clean.Records()
			if len(got) != len(want) {
				t.Fatalf("%d records, clean run %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d: %+v, clean %+v", i, got[i], want[i])
				}
			}
			gm, gs := sim.TemperatureStats()
			wm, ws := clean.TemperatureStats()
			if gm != wm || gs != ws || sim.EnergyDrift() != clean.EnergyDrift() {
				t.Errorf("T %g ± %g, drift %g; clean %g ± %g, drift %g",
					gm, gs, sim.EnergyDrift(), wm, ws, clean.EnergyDrift())
			}
		})
	}
}

// A fatal host fault mid-run is healed by restarting from the last periodic
// checkpoint, and the restarted run finishes the full protocol with its
// recovery history and journal commit counters intact.
func TestRunProtocolRestartsAfterFatalFault(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	sim, err := NewSimulation(Config{
		Cells:     2,
		Faults:    "run:fatal@step=35",
		Supervise: SuperviseConfig{Journal: filepath.Join(dir, "run.wal")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sim.Free() }()
	restarts, err := sim.Run(Protocol{NVT: 20, NVE: 40, Checkpoint: ckpt, Every: 10, Restarts: 2})
	if err != nil {
		t.Fatalf("protocol did not heal: %v", err)
	}
	if restarts != 1 {
		t.Errorf("restarts = %d, want 1", restarts)
	}
	if got := sim.Integrator.StepCount(); got != 60 {
		t.Errorf("final step = %d, want 60", got)
	}
	// The last checkpoint records the completed run.
	_, step, err := md.ReadCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if step != 60 {
		t.Errorf("checkpoint step = %d, want 60", step)
	}
	rep, ok := sim.FaultReport()
	if !ok || rep.Fallback {
		t.Errorf("fault report after restart: ok=%v rep=%+v", ok, rep)
	}
	// The pre-restart history (the fatal) and the restart itself are logged.
	events := strings.Join(rep.Events, "\n")
	if !strings.Contains(events, "fatal") || !strings.Contains(events, "restart 1 from the checkpoint at step 30") {
		t.Errorf("restart lost or did not log the recovery history: %v", rep.Events)
	}
	// So do the commit counters: 33 steps journaled before the fatal (force
	// evaluation 35, counting the initial one, belongs to step 34) and 30
	// more after the restart from the step-30 checkpoint.
	if commits, stalls := sim.CommitStats(); commits != 63 || stalls > commits {
		t.Errorf("%d commits, %d stalls; want 63 commits and at most 63 stalls", commits, stalls)
	}
}

// Without a checkpoint there is no restart point: the fatal fault must
// surface instead of looping.
func TestRunProtocolFatalWithoutCheckpointFails(t *testing.T) {
	sim, err := NewSimulation(Config{Cells: 2, Faults: "run:fatal@step=5"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sim.Free() }()
	var fe *fault.FatalError
	if _, err := sim.Run(Protocol{NVT: 10, NVE: 10, Restarts: 2}); !errors.As(err, &fe) {
		t.Fatalf("Run = %v, want the fatal fault", err)
	}
}
