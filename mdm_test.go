package mdm

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdm/internal/core"
	"mdm/internal/md"
	"mdm/internal/units"
)

func TestBackendString(t *testing.T) {
	if BackendMDM.String() != "MDM" || BackendReference.String() != "Reference" {
		t.Error("backend names wrong")
	}
	if Backend(9).String() == "" {
		t.Error("unknown backend should print")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	p, err := c.EwaldParams()
	if err != nil {
		t.Fatal(err)
	}
	if p.L != 2*5.64 {
		t.Errorf("default box = %g", p.L)
	}
	if p.RCut > p.L/2 {
		t.Errorf("default r_cut %g violates the minimum-image constraint", p.RCut)
	}
}

func TestNewSimulationValidation(t *testing.T) {
	if _, err := NewSimulation(Config{Cells: -1}); err == nil {
		t.Error("negative cells accepted")
	}
}

// TestConfigCapabilities is the capability table of Config: which backend
// composes with the decomposition, fault injection, supervision, the Verlet
// skin and the journal; the deprecated Pipeline field selects nothing, so no
// backend refuses it. Every rejection comes from
// Config.Validate, at both entry points that take a Config from outside, with
// a message naming what is missing; nothing asked for is dropped silently.
func TestConfigCapabilities(t *testing.T) {
	const (
		needsRanks     = "spatial decomposition requires the MDM backend"
		needsFaults    = "fault injection requires the MDM backend"
		needsSupervise = "watchdog and circuit breakers require the MDM backend"
		needsMachine   = "Verlet skin requires the MDM backend"
		needsDecomp    = "WaveRanks requires Ranks"
	)
	dir := t.TempDir()
	cases := []struct {
		name   string
		cfg    Config
		reject string // "" = accepted
	}{
		{"mdm", Config{}, ""},
		{"mdm/ranks", Config{Ranks: 2}, ""},
		{"mdm/faults", Config{Faults: "mdg:transient@call=2"}, ""},
		{"mdm/ranks-mpi-faults", Config{Ranks: 2, Faults: "mpi:drop@src=1,dst=0,n=1"}, ""},
		{"mdm/watchdog", Config{Supervise: SuperviseConfig{Watchdog: 30 * time.Second}}, ""},
		{"mdm/journal-only", Config{Supervise: SuperviseConfig{Journal: filepath.Join(dir, "mdm.wal")}}, ""},
		{"mdm/negative-ranks", Config{Ranks: -1}, "negative rank count"},
		{"mdm/negative-wave-ranks", Config{Ranks: 2, WaveRanks: -1}, "negative rank count"},
		{"mdm/wave-ranks-without-ranks", Config{WaveRanks: 2}, needsDecomp},
		{"mdm/store-faults", Config{Faults: "store:crash@sync=1; store:eio@write=1"}, `"store:crash@sync=1": no run reads the store site`},
		{"mdm/mpi-faults-serial", Config{Faults: "mpi:drop@src=1,dst=0,n=1"}, "needs Ranks: the serial machine's private world takes no message faults"},
		{"mdm/mpi-faults-outside-world", Config{Ranks: 2, Faults: "mpi:senderr@src=7,dst=9,n=1"}, "outside the world of 3 ranks"},
		{"reference", Config{Backend: BackendReference}, ""},
		{"reference/journal-only", Config{Backend: BackendReference, Supervise: SuperviseConfig{Journal: filepath.Join(dir, "ref.wal")}}, ""},
		{"reference/ranks", Config{Backend: BackendReference, Ranks: 2}, needsRanks},
		{"reference/faults", Config{Backend: BackendReference, Faults: "mdg:hang@step=4"}, needsFaults},
		{"reference/watchdog", Config{Backend: BackendReference, Supervise: SuperviseConfig{Watchdog: 250 * time.Millisecond}}, needsSupervise},
		{"reference/pipeline", Config{Backend: BackendReference, Pipeline: true}, ""}, // deprecated; selects nothing
		{"reference/skin", Config{Backend: BackendReference, Skin: 0.5}, needsMachine},
		{"reference/wave-ranks-without-ranks", Config{Backend: BackendReference, WaveRanks: 1}, needsDecomp},
		{"unknown-backend", Config{Backend: Backend(42)}, "unknown backend"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim, err := NewSimulation(c.cfg)
			if c.reject == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if err := sim.Free(); err != nil {
					t.Fatal(err)
				}
				if err := c.cfg.Validate(); err != nil {
					t.Errorf("Validate rejects what NewSimulation built: %v", err)
				}
				return
			}
			if err == nil {
				_ = sim.Free()
				t.Fatalf("accepted; want an error naming %q", c.reject)
			}
			if !strings.Contains(err.Error(), c.reject) {
				t.Errorf("error %q does not name %q", err, c.reject)
			}
			if verr := c.cfg.Validate(); verr == nil || verr.Error() != err.Error() {
				t.Errorf("Validate = %v, NewSimulation = %v", verr, err)
			}
			if _, rerr := ResumeFromJournal(c.cfg); rerr == nil || rerr.Error() != err.Error() {
				t.Errorf("ResumeFromJournal = %v, NewSimulation = %v", rerr, err)
			}
		})
	}
}

func TestReferenceSimulationProtocol(t *testing.T) {
	sim, err := NewSimulation(Config{
		Cells:       2,
		Temperature: 300,
		Dt:          1,
		Backend:     BackendReference,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.N() != 64 {
		t.Errorf("N = %d", sim.N())
	}
	if err := sim.RunNVT(10); err != nil {
		t.Fatal(err)
	}
	// NVT pins the temperature.
	if got := sim.System.Temperature(); math.Abs(got-300) > 1 {
		t.Errorf("T after NVT = %g", got)
	}
	if err := sim.RunNVE(30); err != nil {
		t.Fatal(err)
	}
	if got := len(sim.Records()); got != 42 {
		t.Errorf("records = %d, want 42 (initial + 10 NVT + segment marker + 30 NVE)", got)
	}
	if drift := sim.EnergyDrift(); drift > 1e-2 {
		t.Errorf("drift = %g", drift)
	}
	mean, std := sim.TemperatureStats()
	if mean <= 0 || std < 0 {
		t.Errorf("stats = %g ± %g", mean, std)
	}
	if err := sim.Free(); err != nil {
		t.Fatal(err)
	}
}

func TestMDMSimulationRuns(t *testing.T) {
	sim, err := NewSimulation(Config{
		Cells:       2,
		Temperature: 300,
		Dt:          1,
		Backend:     BackendMDM,
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunNVE(20); err != nil {
		t.Fatal(err)
	}
	if drift := sim.EnergyDrift(); drift > 1e-3 {
		t.Errorf("MDM NVE drift = %g", drift)
	}
	if err := sim.Free(); err != nil {
		t.Fatal(err)
	}
}

// TestPressureObserverOnFirstUse: Simulation.Pressure returns the bits of an
// eagerly built float64 Reference's pressure at step 0, after NVT steps and
// after a resume, on both backends. A run that never asks for the pressure
// builds no Reference beyond its force field: none on the machine backend,
// and on the reference backend the force field itself is the observer.
func TestPressureObserverOnFirstUse(t *testing.T) {
	for _, b := range []Backend{BackendMDM, BackendReference} {
		t.Run(b.String(), func(t *testing.T) {
			cfg := Config{Cells: 2, Backend: b, Supervise: SuperviseConfig{Journal: filepath.Join(t.TempDir(), "run.wal")}}
			noSecondReference := func(stage string, sim *Simulation) {
				t.Helper()
				if b == BackendMDM && sim.obs != nil {
					t.Errorf("%s: the machine backend built a pressure observer nobody asked for", stage)
				}
				if b == BackendReference && md.ForceField(sim.obs) != sim.Integrator.FF {
					t.Errorf("%s: the reference backend's observer is not its force field", stage)
				}
			}
			samePressure := func(stage string, sim *Simulation) float64 {
				t.Helper()
				ref, err := core.NewReference(sim.p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Pressure(sim.System)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.Pressure()
				if err != nil {
					t.Fatal(err)
				}
				if want *= units.EVPerA3ToGPa; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: Pressure = %.17g GPa, an eager Reference gives %.17g", stage, got, want)
				}
				return got
			}

			sim, err := NewSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.RunNVT(3); err != nil {
				t.Fatal(err)
			}
			noSecondReference("after RunNVT", sim)
			if err := sim.Free(); err != nil {
				t.Fatal(err)
			}

			resumed, err := ResumeFromJournal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = resumed.Free() }()
			noSecondReference("after ResumeFromJournal", resumed)
			samePressure("after ResumeFromJournal", resumed)
			if b == BackendReference {
				noSecondReference("after Pressure", resumed)
			}

			fresh, err := NewSimulation(Config{Cells: cfg.Cells, Backend: b})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = fresh.Free() }()
			samePressure("at step 0", fresh)
			if err := fresh.RunNVT(3); err != nil {
				t.Fatal(err)
			}
			samePressure("after RunNVT", fresh)
		})
	}
}

// TestResumeKeepsPotentialCadence pins the potential cadence to the
// simulation step: a run restarted in place at step 15 evaluates the
// potential there once (the value in force is in no checkpoint) and then on
// the steps an uninterrupted run evaluates it, so from the first multiple of
// PotentialEvery after the restart the two report the same records.
func TestResumeKeepsPotentialCadence(t *testing.T) {
	const before, after = 15, 10
	for _, ranks := range []int{0, 2} {
		for _, every := range []int{1, 10} {
			t.Run(fmt.Sprintf("ranks=%d/every=%d", ranks, every), func(t *testing.T) {
				cfg := Config{Cells: 2, PotentialEvery: every, Ranks: ranks}
				whole, err := NewSimulation(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = whole.Free() }()
				if err := whole.RunNVE(before + after); err != nil {
					t.Fatal(err)
				}

				// A fatal fault in step 17 sends the run back to the
				// checkpoint Run committed at step 15.
				cfg.Faults = "run:fatal@step=18"
				cfg.Supervise.Journal = filepath.Join(t.TempDir(), "run.wal")
				restarted, err := NewSimulation(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = restarted.Free() }()
				p := Protocol{NVE: before + after, Every: before, Restarts: 1}
				if n, err := restarted.Run(p); err != nil || n != 1 {
					t.Fatalf("Run = %d restarts, %v; want 1, nil", n, err)
				}

				aligned := (before + every - 1) / every * every
				want := whole.Records()[aligned:]
				got := restarted.Records()[aligned:]
				if len(got) != len(want) || len(got) == 0 {
					t.Fatalf("restarted run has %d records from step %d on, uninterrupted %d", len(got), aligned, len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("step %d: restarted %+v, uninterrupted %+v", want[i].Step, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestEnergyDriftReadsFreshPotentials: PotentialEvery k changes which steps
// evaluate the potential, not the trajectory, so the NVE drift at k is the
// k = 1 drift over the steps k evaluates, bit for bit. Between evaluations a
// record's PE is the latest value, and the drift does not read it. A segment
// with fewer than two evaluations has no drift.
func TestEnergyDriftReadsFreshPotentials(t *testing.T) {
	const nvt, nve = 20, 200
	run := func(k, nve int) *Simulation {
		t.Helper()
		sim, err := NewSimulation(Config{Cells: 2, PotentialEvery: k})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sim.Free() })
		if err := sim.RunNVT(nvt); err != nil {
			t.Fatal(err)
		}
		if err := sim.RunNVE(nve); err != nil {
			t.Fatal(err)
		}
		return sim
	}
	every := run(1, nve)
	all := every.Records()[every.nveStart:]
	for _, k := range []int{1, 10, 100} {
		sim := run(k, nve)
		var at []Record
		for i, r := range sim.Records()[sim.nveStart:] {
			if r.PEFresh != (r.Step%k == 0) {
				t.Fatalf("k = %d, step %d: PEFresh %v", k, r.Step, r.PEFresh)
			}
			if r.PEFresh {
				if r != all[i] {
					t.Fatalf("k = %d, step %d: %+v, k = 1 %+v", k, r.Step, r, all[i])
				}
				at = append(at, all[i])
			}
		}
		want := (&md.Recorder{Records: at}).EnergyDrift()
		if got := sim.EnergyDrift(); got != want || math.IsNaN(got) {
			t.Errorf("k = %d: drift %.17g, k = 1 drift over the %d steps k evaluates %.17g", k, got, len(at), want)
		}
	}
	if d := run(100, 50).EnergyDrift(); !math.IsNaN(d) {
		t.Errorf("one evaluated NVE step: drift %g, want NaN (unavailable)", d)
	}
}
