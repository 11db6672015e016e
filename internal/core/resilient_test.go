package core

import (
	"errors"
	"testing"
	"time"

	"mdm/internal/fault"
	"mdm/internal/md"
	"mdm/internal/mpi"
)

func TestResilientTransientRetried(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 22)
	p := smallParams(s.L)
	// Per step the machine makes four MDGRAPE-2 pipeline calls and a WINE-2
	// DFT/IDFT pair; call-keyed events count per site.
	in, err := fault.ParseInjector("mdg:transient@call=2; wine2:transient@call=1")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewResilient(CurrentMachineConfig(p), RecoveryConfig{Injector: in})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Free() }()
	got, _, err := r.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	m := newTestMachine(t, p)
	want, _, err := m.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("particle %d: recovered forces deviate: %v != %v", i, got[i], want[i])
		}
	}
	rep := r.Report()
	if rep.Retries != 2 || rep.Fallback || rep.FallbackSteps != 0 {
		t.Errorf("report = %+v, want 2 retries and no fallback", rep)
	}
}

func TestResilientBoardDropRestripes(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 23)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)
	cfg.WineBoards = 4
	in, err := fault.ParseInjector("wine2:board-drop@call=1,board=2")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewResilient(cfg, RecoveryConfig{Injector: in})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Free() }()
	got, _, err := r.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	// Striping is pure partitioning, so the 3-board machine computes the
	// identical forces.
	m := newTestMachine(t, p)
	want, _, err := m.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("particle %d: post-restripe forces deviate", i)
		}
	}
	rep := r.Report()
	if rep.Restripes != 1 || rep.WineBoardsLost != 1 || rep.Fallback {
		t.Errorf("report = %+v, want one restripe", rep)
	}
}

func TestResilientFallbackWhenNoCapacity(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 24)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)
	cfg.MDGBoards = 1 // a single board: its dropout exhausts the machine
	in, err := fault.ParseInjector("mdg:board-drop@call=1,board=0")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewResilient(cfg, RecoveryConfig{Injector: in})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Free() }()
	got, _, err := r.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReference(p)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("particle %d: fallback forces are not the reference path", i)
		}
	}
	rep := r.Report()
	if !rep.Fallback || rep.FallbackSteps != 1 || rep.MDGBoardsLost != 1 {
		t.Errorf("report = %+v, want permanent fallback", rep)
	}
	// The degradation is sticky: the next step is host-served too.
	if _, _, err := r.Forces(s); err != nil {
		t.Fatal(err)
	}
	if rep := r.Report(); rep.FallbackSteps != 2 {
		t.Errorf("FallbackSteps = %d after second step, want 2", rep.FallbackSteps)
	}
}

func TestResilientRetryBudgetFallsBackPerStep(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 25)
	p := smallParams(s.L)
	// Both the first evaluation and its single allowed retry hit transients.
	in, err := fault.ParseInjector("mdg:transient@call=1; mdg:transient@call=5")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewResilient(CurrentMachineConfig(p), RecoveryConfig{MaxRetries: 1, Injector: in})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Free() }()
	if _, _, err := r.Forces(s); err != nil {
		t.Fatal(err)
	}
	rep := r.Report()
	if rep.Retries != 1 || rep.FallbackSteps != 1 || rep.Fallback {
		t.Errorf("report = %+v, want 1 retry then a one-step fallback", rep)
	}
	// The next step runs on hardware again (the transients are consumed).
	if _, _, err := r.Forces(s); err != nil {
		t.Fatal(err)
	}
	if rep := r.Report(); rep.FallbackSteps != 1 {
		t.Errorf("FallbackSteps = %d, degraded mode leaked across steps", rep.FallbackSteps)
	}
}

func TestResilientGuardCatchesBitFlip(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 26)
	p := smallParams(s.L)
	// Flip a high exponent bit of one force component: the spike guard must
	// reject the step and the retry (flip consumed) must match a clean run.
	in, err := fault.ParseInjector("mdg:bitflip@call=1,word=10,bit=62")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewResilient(CurrentMachineConfig(p), RecoveryConfig{
		Guards:   Guards{MaxForce: 100}, // eV/Å; honest forces are ~1
		Injector: in,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Free() }()
	got, _, err := r.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	m := newTestMachine(t, p)
	want, _, err := m.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("particle %d: guarded retry deviates from clean run", i)
		}
	}
	rep := r.Report()
	if rep.SuspectSteps != 1 || rep.Retries != 1 {
		t.Errorf("report = %+v, want 1 suspect step and 1 retry", rep)
	}
}

// chaosScenario is the acceptance schedule: one WINE-2 board dropout, one
// dropped MPI message, and one transient MDGRAPE-2 error, spread over a
// ≥200-step run. Events sit in distinct steps so the recovery report is
// bit-reproducible even on the concurrent parallel path.
const chaosScenario = "wine2:board-drop@step=40,board=3; mpi:drop@src=1,dst=0,n=3; mdg:transient@step=120"

// chaosRun integrates 210 NVE steps of 64-ion molten NaCl on the parallel
// machine (2 real + 1 wave processes) under the given scenario ("" for the
// fault-free baseline) and returns the energy drift and the recovery report.
func chaosRun(t *testing.T, scenario string) (float64, RunReport) {
	t.Helper()
	s := meltLike(t, 2, 5.64, 300, 27)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)
	world, err := mpi.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	world.SetTimeout(time.Second)
	rc := RecoveryConfig{}
	if scenario != "" {
		in, err := fault.ParseInjector(scenario)
		if err != nil {
			t.Fatal(err)
		}
		rc.Injector = in
	}
	r, err := NewResilientParallel(cfg, rc, world, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	it, err := md.NewIntegrator(s, r, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &md.Recorder{}
	rec.Sample(it)
	if err := it.Run(210, func(step int) error { rec.Sample(it); return nil }); err != nil {
		t.Fatal(err)
	}
	if rc.Injector != nil && rc.Injector.Remaining() != 0 {
		t.Errorf("%d scheduled faults never fired", rc.Injector.Remaining())
	}
	return rec.EnergyDrift(), r.Report()
}

func TestChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e integrates 2×210 parallel MD steps")
	}
	cleanDrift, cleanRep := chaosRun(t, "")
	chaosDrift, chaosRep := chaosRun(t, chaosScenario)
	t.Logf("fault-free drift %.2e, chaos drift %.2e", cleanDrift, chaosDrift)
	t.Logf("chaos recovery: %+v", chaosRep)
	// Same tolerance as the fault-free run (TestParallelDrivesIntegrator's
	// 5e-4); all three faults are absorbed by retry/re-stripe, so the
	// trajectory — and therefore the drift — is essentially the clean one.
	const tol = 5e-4
	if cleanDrift > tol {
		t.Errorf("fault-free NVE drift %g > %g", cleanDrift, tol)
	}
	if chaosDrift > tol {
		t.Errorf("chaos NVE drift %g > %g", chaosDrift, tol)
	}
	if cleanRep.Retries != 0 || cleanRep.Restripes != 0 {
		t.Errorf("fault-free run recovered from something: %+v", cleanRep)
	}
	if chaosRep.Restripes != 1 || chaosRep.WineBoardsLost != 1 {
		t.Errorf("board dropout not re-striped: %+v", chaosRep)
	}
	if chaosRep.Retries < 2 {
		t.Errorf("dropped message + transient absorbed by %d retries, want ≥2: %+v", chaosRep.Retries, chaosRep)
	}
	if chaosRep.Fallback || chaosRep.FallbackSteps != 0 {
		t.Errorf("chaos run degraded to the host path: %+v", chaosRep)
	}
	if chaosRep.Steps != 211 { // initial force call + 210 steps
		t.Errorf("Steps = %d, want 211", chaosRep.Steps)
	}
}

// A rank erroring inside a parallel step must cancel the group: the call
// returns the rank's error promptly instead of letting the peers wait out
// their full deadline mid-collective.
func TestParallelForcesGroupCancel(t *testing.T) {
	s := meltLike(t, 1, 5.8, 300, 28)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)
	in, err := fault.ParseInjector("mdg:transient@call=1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultHook = in
	world, err := mpi.NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	world.SetTimeout(30 * time.Second) // cancellation must not need this
	pr, err := NewParallelRun(world, cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Free()
	start := time.Now()
	_, err = pr.Step(s)
	var te *fault.TransientError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want the rank's TransientError", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("peers unwound in %v; group cancel should beat the 30s deadline", el)
	}
	// The aborted step's stragglers drain, and the session retries cleanly.
	world.Reset()
	if _, err := pr.Step(s); err != nil {
		t.Fatalf("session unusable after canceled step: %v", err)
	}
}
