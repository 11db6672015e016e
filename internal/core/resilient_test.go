package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"mdm/internal/ewald"
	"mdm/internal/fault"
	"mdm/internal/md"
	"mdm/internal/mpi"
	"mdm/internal/vec"
)

// injector parses a fault scenario; "" is no scenario.
func injector(t testing.TB, scenario string) *fault.Injector {
	t.Helper()
	if scenario == "" {
		return nil
	}
	in, err := fault.ParseInjector(scenario)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// testWorld is an n-rank world with the given wire deadline.
func testWorld(t testing.TB, n int, timeout time.Duration) *mpi.World {
	t.Helper()
	world, err := mpi.NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	world.SetTimeout(timeout)
	return world
}

// newResilientT builds the recovery layer over the serial machine (world
// nil) or an nReal + 1 session on world, freed when the test ends.
func newResilientT(t testing.TB, cfg MachineConfig, rc RecoveryConfig, world *mpi.World, nReal int) *Resilient {
	t.Helper()
	r, err := NewResilient(cfg, rc, world, nReal, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Free() })
	return r
}

// cleanForces is a fault-free serial machine's forces on s.
func cleanForces(t testing.TB, p ewald.Params, s *md.System) []vec.V {
	t.Helper()
	f, _, err := newTestMachine(t, p).Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// firstForces is ff's forces on s, failing the test on an error.
func firstForces(t testing.TB, ff md.ForceField, s *md.System) []vec.V {
	t.Helper()
	f, _, err := ff.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// integrate runs steps NVE steps of s under ff and returns the energy drift.
func integrate(t testing.TB, s *md.System, ff md.ForceField, steps int) float64 {
	t.Helper()
	it, err := md.NewIntegrator(s, ff, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &md.Recorder{}
	rec.Sample(it)
	if err := it.Run(steps, func(int) error { rec.Sample(it); return nil }); err != nil {
		t.Fatal(err)
	}
	return rec.EnergyDrift()
}

func TestResilientTransientRetried(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 22)
	p := smallParams(s.L)
	// Per step the machine makes four MDGRAPE-2 pipeline calls and a WINE-2
	// DFT/IDFT pair; call-keyed events count per site.
	r := newResilientT(t, CurrentMachineConfig(p),
		RecoveryConfig{Injector: injector(t, "mdg:transient@call=2; wine2:transient@call=1")}, nil, 0)
	if !slices.Equal(firstForces(t, r, s), cleanForces(t, p, s)) {
		t.Fatal("recovered forces deviate")
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
	cfg.Wine.Clusters, cfg.Wine.BoardsPerCluster = 4, 1
	r := newResilientT(t, cfg, RecoveryConfig{Injector: injector(t, "wine2:board-drop@call=1,board=2")}, nil, 0)
	// Striping is pure partitioning, so the 3-board machine computes the
	// identical forces.
	if !slices.Equal(firstForces(t, r, s), cleanForces(t, p, s)) {
		t.Fatal("post-restripe forces deviate")
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
	cfg.MDG.Clusters, cfg.MDG.BoardsPerCluster = 1, 1 // a single board: its dropout exhausts the machine
	r := newResilientT(t, cfg, RecoveryConfig{Injector: injector(t, "mdg:board-drop@call=1,board=0")}, nil, 0)
	got := firstForces(t, r, s)
	ref, err := NewReference(p)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, firstForces(t, ref, s)) {
		t.Fatal("fallback forces are not the reference path")
	}
	rep := r.Report()
	if !rep.Fallback || rep.FallbackSteps != 1 || rep.MDGBoardsLost != 1 {
		t.Errorf("report = %+v, want permanent fallback", rep)
	}
	// The degradation is sticky: the next step is host-served too.
	firstForces(t, r, s)
	if rep := r.Report(); rep.FallbackSteps != 2 {
		t.Errorf("FallbackSteps = %d after second step, want 2", rep.FallbackSteps)
	}
}

func TestResilientRetryBudgetFallsBackPerStep(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 25)
	// The first evaluation and all three retries of the budget hit
	// transients (each attempt makes four MDGRAPE-2 calls).
	r := newResilientT(t, CurrentMachineConfig(smallParams(s.L)), RecoveryConfig{
		Injector: injector(t, "mdg:transient@call=1; mdg:transient@call=5; mdg:transient@call=9; mdg:transient@call=13"),
	}, nil, 0)
	firstForces(t, r, s)
	rep := r.Report()
	if rep.Retries != maxRetries || rep.FallbackSteps != 1 || rep.Fallback {
		t.Errorf("report = %+v, want %d retries then a one-step fallback", rep, maxRetries)
	}
	// The next step runs on hardware again (the transients are consumed).
	firstForces(t, r, s)
	if rep := r.Report(); rep.FallbackSteps != 1 {
		t.Errorf("FallbackSteps = %d, degraded mode leaked across steps", rep.FallbackSteps)
	}
}

func TestResilientGuardCatchesBitFlip(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 26)
	p := smallParams(s.L)
	// Flip a high exponent bit of one force component: the spike guard must
	// reject the step and the retry (flip consumed) must match a clean run.
	r := newResilientT(t, CurrentMachineConfig(p), RecoveryConfig{
		Guards:   Guards{MaxForce: 100}, // eV/Å; honest forces are ~1
		Injector: injector(t, "mdg:bitflip@call=1,word=10,bit=62"),
	}, nil, 0)
	if !slices.Equal(firstForces(t, r, s), cleanForces(t, p, s)) {
		t.Fatal("guarded retry deviates from clean run")
	}
	rep := r.Report()
	if rep.SuspectSteps != 1 || rep.Retries != 1 {
		t.Errorf("report = %+v, want 1 suspect step and 1 retry", rep)
	}
}

// TestResilientMPICorrupt drives mpi:corrupt into a 2 + 1 session (ranks 0
// and 1 real-space, rank 2 wavenumber) and pins what each flipped word does
// to six NVE steps under the force-spike guard, against the clean run. An
// exponent flip in a force component from the wave rank is a spike: the
// guard rejects the step and the retry is clean. Bit 62 of the index word of
// a real rank's force record (message 2 from rank 1 to 0 is its step-1 force
// ship; the record is particle 2's) clears the exponent: 2 becomes 0, which
// the payload already carries, and a larger index a denormal, which the index
// decoder refuses. Either is a link error: one retry, and the final state is
// the clean one. So is bit 52 of the wave rank's index word for particle 2
// (word 9 of its step-1 ship), which turns it into 4. A flip that lands in a
// position word passes: bit 40 of the first x coordinate of a ghost
// payload (message 3 from rank 0 to 1) moves one ghost by a relative 2^-12,
// which is no suspect step and reaches the trajectory.
func TestResilientMPICorrupt(t *testing.T) {
	run := func(scenario string) (RunReport, *md.System) {
		s := meltLike(t, 2, 5.64, 300, 29)
		in := injector(t, scenario)
		r := newResilientT(t, CurrentMachineConfig(smallParams(s.L)),
			RecoveryConfig{Injector: in, Guards: Guards{MaxForce: 100}}, testWorld(t, 3, time.Second), 2)
		integrate(t, s, r, 6)
		if in != nil && in.Remaining() != 0 {
			t.Fatalf("%q never fired", scenario)
		}
		return r.Report(), s
	}
	_, clean := run("")
	for _, c := range []struct {
		name, scenario   string
		suspect, retries int
		sameAsClean      bool
	}{
		{"wave-force-exponent", "mpi:corrupt@src=2,dst=0,n=1,word=2,bit=62", 1, 1, true},
		{"force-index", "mpi:corrupt@src=1,dst=0,n=2,word=4,bit=62", 0, 1, true},
		{"ghost-position", "mpi:corrupt@src=0,dst=1,n=3,word=0,bit=40", 0, 0, false},
		{"wave-force-index", "mpi:corrupt@src=2,dst=0,n=2,word=9,bit=52", 0, 1, true},
	} {
		rep, s := run(c.scenario)
		same := slices.Equal(s.Pos, clean.Pos) && slices.Equal(s.Vel, clean.Vel)
		if rep.SuspectSteps != c.suspect || rep.Retries != c.retries || same != c.sameAsClean {
			t.Errorf("%s: %d suspect steps, %d retries, final state as clean %v; want %d, %d, %v (%v)",
				c.name, rep.SuspectSteps, rep.Retries, same, c.suspect, c.retries, c.sameAsClean, rep.Events)
		}
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
	in := injector(t, scenario)
	r := newResilientT(t, CurrentMachineConfig(smallParams(s.L)), RecoveryConfig{Injector: in},
		testWorld(t, 3, time.Second), 2)
	drift := integrate(t, s, r, 210)
	if in != nil && in.Remaining() != 0 {
		t.Errorf("%d scheduled faults never fired", in.Remaining())
	}
	return drift, r.Report()
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
