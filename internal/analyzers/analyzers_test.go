package analyzers_test

import (
	"testing"

	"mdm/internal/analyzers"
)

// Each analyzer is exercised against its fixture package, analysistest
// style: every want comment must be matched and nothing else may fire.

func TestGoJoinFixtures(t *testing.T) {
	runFixture(t, analyzers.GoJoin, "gojoin", "mdm/fixture/gojoin")
}

func TestRawIOFixtures(t *testing.T) {
	runFixture(t, analyzers.RawIO, "rawio", "mdm/fixture/rawio")
}

func TestRawIOExemptsStore(t *testing.T) {
	// internal/store IS the wrapper layer: the same fixture under its import
	// path must produce nothing.
	pkg, err := fixtureLoader(t).Check("mdm/internal/store", fixtureDir(t, "rawio"), fixtureFiles(t, "rawio"))
	if err != nil {
		t.Fatal(err)
	}
	if diags := analyzers.RunPackage(pkg, []*analyzers.Analyzer{analyzers.RawIO}); len(diags) != 0 {
		t.Errorf("rawio fired inside the store package: %v", diags)
	}
}

func TestWallClockFixtures(t *testing.T) {
	runFixture(t, analyzers.WallClock, "wallclock", "mdm/fixture/wallclock")
}

func TestHotAllocFixtures(t *testing.T) {
	runFixture(t, analyzers.HotAlloc, "hotalloc", "mdm/fixture/hotalloc")
}

func TestBatchFlowFixtures(t *testing.T) {
	// Adapter dispatch: the stepflow fact must flow from a root through an
	// interface call into an adapter and on into the evaluator it wraps, so
	// hotalloc sees allocations behind a ForceField-shaped seam.
	runFixture(t, analyzers.HotAlloc, "batchflow", "mdm/fixture/batchflow")
}

// TestStepFlowFactPropagation checks the callgraph pass across real module
// boundaries: functions nowhere near an //mdm:stepflow comment must be marked
// because a root reaches them — through plain calls, interface dispatch
// (md.ForceField), and callback arguments (Integrator.Run's observe) — and
// cold entry points must stay unmarked.
func TestStepFlowFactPropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := fixtureLoader(t).Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	facts := analyzers.BuildFacts(pkgs)
	if got := len(facts.Roots()); got < 6 {
		t.Fatalf("expected at least the 6 annotated roots, got %d: %v", got, facts.Roots())
	}
	hot := []string{
		// Direct call chain from core.Machine.Forces.
		"(*mdm/internal/cellindex.Sorted).ForEachHalfMask",
		// Cross-package chain through the wine2 root into the DFT engine.
		"(*mdm/internal/wine2.System).DFTQuantizedInto",
		// Interface dispatch: md.Integrator.Step calls ForceField.Forces, and
		// CHA fans out to the core implementations.
		"(*mdm/internal/core.Machine).Forces",
		"(*mdm/internal/core.ParallelRun).Forces",
		"(*mdm/internal/core.Resilient).Forces",
		// The engine body both step roots share: Machine.Forces calls the
		// sweep directly and the wave pass from runWave, ParallelRun.Step's
		// ranks from runRank inside World.Run (both method values bound
		// once, so both are annotated roots).
		"(*mdm/internal/core.realRank).sweep",
		"(*mdm/internal/core.waveRank).pass",
		"(*mdm/internal/core.potCadence).eval",
		"(*mdm/internal/core.ParallelRun).realStep",
		"(*mdm/internal/core.ParallelRun).waveStep",
		// Callback edge: functions passed to Integrator.Run run between steps.
		"(*mdm.Simulation).observe",
		// Interface dispatch twice over: the boards call
		// fault.HardwareHook.HardwareCall, CHA fans out to core's liveness
		// hook, and its Beat call reaches the watchdog.
		"(*mdm/internal/supervise.Watchdog).Beat",
		// What a callback calls is hot too: observe samples between steps.
		"(*mdm/internal/md.Recorder).Sample",
	}
	for _, name := range hot {
		if !facts.StepFlowName(name) {
			t.Errorf("%s not marked stepflow; roots=%v", name, facts.Roots())
		}
	}
	cold := []string{
		// The performance model is an offline predictor.
		"mdm/internal/perf.CurrentMDM",
		// The journal replay reader is an offline tool.
		"mdm/internal/supervise.ReadJournal",
	}
	for _, name := range cold {
		if facts.StepFlowName(name) {
			t.Errorf("%s wrongly marked stepflow", name)
		}
	}
}

// TestSuiteCleanOnRepo runs the whole suite over the whole module — the
// in-process equivalent of `go run ./cmd/mdmvet ./...` — and requires it to
// be green. Real findings must be fixed or carry a reviewed //mdm:* comment.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root := moduleRoot(t)
	pkgs, err := fixtureLoader(t).Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("expected to load the full module, got %d packages", len(pkgs))
	}
	facts := analyzers.BuildFacts(pkgs)
	for _, p := range pkgs {
		for _, d := range analyzers.RunPackageFacts(p, analyzers.All(), facts) {
			t.Errorf("%s", d)
		}
	}
}
