package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdm"
	"mdm/internal/md"
)

// A fatal host fault mid-run must be healed by restarting from the last
// periodic checkpoint, and the restarted run must finish the full protocol.
func TestRunProtocolRestartsAfterFatalFault(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	sim, err := mdm.NewSimulation(mdm.Config{
		Cells:     2,
		Faults:    "run:fatal@step=35",
		Supervise: mdm.SuperviseConfig{Journal: filepath.Join(dir, "run.wal")},
	})
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	o := &runOpts{
		nvt:         20,
		nve:         40,
		ckptPath:    ckpt,
		ckptEvery:   10,
		maxRestarts: 2,
		frame:       func(*mdm.Simulation, string) error { return nil },
		logf:        func(f string, a ...any) { logs = append(logs, f) },
	}
	final, restarts, err := runProtocol(sim, o)
	defer func() { _ = final.Free() }()
	if err != nil {
		t.Fatalf("protocol did not heal: %v", err)
	}
	if restarts != 1 {
		t.Errorf("restarts = %d, want 1", restarts)
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "restart") {
		t.Errorf("restart not logged: %v", logs)
	}
	if got := final.Integrator.StepCount(); got != 60 {
		t.Errorf("final step = %d, want 60", got)
	}
	if final == sim {
		t.Error("restart did not rebuild the simulation")
	}
	// The last checkpoint records the completed run.
	_, step, err := md.ReadCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if step != 60 {
		t.Errorf("checkpoint step = %d, want 60", step)
	}
	rep, ok := final.FaultReport()
	if !ok || rep.Fallback {
		t.Errorf("fault report after restart: ok=%v rep=%+v", ok, rep)
	}
	// The pre-restart history (including the fatal) survives the restart.
	if len(rep.Events) == 0 || !strings.Contains(strings.Join(rep.Events, "\n"), "fatal") {
		t.Errorf("restart lost the recovery history: %v", rep.Events)
	}
	// So do the summary's commit counters: 33 steps journaled before the fatal
	// (force evaluation 35, counting the initial one, belongs to step 34) and
	// 30 more after the restart from the step-30 checkpoint.
	if sum := summarize(final, "ok", restarts, 0); sum.Commits != 63 || sum.CommitStalls > sum.Commits {
		t.Errorf("summary reports %d commits, %d stalls; want 63 commits and at most 63 stalls", sum.Commits, sum.CommitStalls)
	}
}

// Without a checkpoint there is no restart point: the fatal fault must
// surface instead of looping.
func TestRunProtocolFatalWithoutCheckpointFails(t *testing.T) {
	sim, err := mdm.NewSimulation(mdm.Config{
		Cells:  2,
		Faults: "run:fatal@step=5",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sim.Free() }()
	o := &runOpts{
		nvt: 10, nve: 10, maxRestarts: 2,
		frame: func(*mdm.Simulation, string) error { return nil },
		logf:  func(string, ...any) {},
	}
	if _, _, err := runProtocol(sim, o); err == nil {
		t.Fatal("fatal fault vanished without a checkpoint to restart from")
	}
}

// mdmsim refuses, before anything runs, flag values it could only fail on
// after the whole run.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		every         int
		resume        bool
		ckpt, journal string
		ok            bool
	}{
		{10, false, "", "", true},
		{1, true, "run.ckpt", "run.wal", true},
		{0, false, "", "", false}, // the sample table divides by -every
		{-3, false, "", "", false},
		{10, true, "run.ckpt", "", false},
		{10, true, "", "run.wal", false},
	} {
		if err := checkFlags(c.every, c.resume, c.ckpt, c.journal); (err == nil) != c.ok {
			t.Errorf("checkFlags(every %d, resume %v, %q, %q) = %v, want ok=%v", c.every, c.resume, c.ckpt, c.journal, err, c.ok)
		}
	}
}

// The closing ms/step divides by the steps this invocation advanced and
// reads n/a when it advanced none (-nvt 0 -nve 0, or a resume at the end).
func TestMsPerStep(t *testing.T) {
	if got := msPerStep(3*time.Second, 60); got != "50.0" {
		t.Errorf("3 s over 60 steps = %q, want 50.0", got)
	}
	if got := msPerStep(time.Second, 0); got != "n/a" {
		t.Errorf("no steps = %q, want n/a", got)
	}
}
