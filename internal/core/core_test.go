package core

import (
	"fmt"
	"math"
	"testing"

	"mdm/internal/ewald"
	"mdm/internal/md"
	"mdm/internal/mpi"
	"mdm/internal/units"
	"mdm/internal/vec"
)

// smallParams returns an Ewald discretization for a cells×cells×cells NaCl
// crystal box that keeps the reference oracle valid (r_cut <= L/2).
func smallParams(l float64) ewald.Params {
	rcut := 0.45 * l
	alpha := ewald.SReal * l / rcut
	return ewald.Params{L: l, Alpha: alpha, RCut: rcut, LKCut: ewald.SWave * alpha / math.Pi}
}

// meltLike builds a perturbed rock-salt configuration (a poor man's melt
// snapshot) with reproducible displacements.
func meltLike(t testing.TB, cells int, a float64, tK float64, seed int64) *md.System {
	t.Helper()
	s, err := md.NewRockSalt(cells, a)
	if err != nil {
		t.Fatal(err)
	}
	s.SetMaxwellVelocities(tK, seed)
	// Displace positions pseudo-randomly by up to ~0.25 Å so forces are
	// non-trivial but no pair overlaps.
	for i := range s.Pos {
		h := float64((int64(i)*2654435761)%1000)/1000.0 - 0.5
		g := float64((i*40503)%1000)/1000.0 - 0.5
		k := float64((i*9973)%1000)/1000.0 - 0.5
		s.Pos[i] = s.Pos[i].Add(vec.New(h, g, k).Scale(0.5)).Wrap(s.L)
	}
	return s
}

func newTestMachine(t testing.TB, p ewald.Params) *Machine {
	t.Helper()
	m, err := NewMachine(CurrentMachineConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The assembled machine, stage by stage, against float64 over its own pair
// set and wave set (MeasureAccuracy), at mdm.Config's default α — for these
// boxes the r_cut = 0.45 L floor, smallParams — and at α = 14, where the
// wavenumber sum carries the Coulomb force, against AccuracyBound (the bounds
// mdmpaper's §3.4.4 / §3.5.4 rows read too). Truncation is logged, not gated;
// the §3.5.4 pairwise bound is TestPairwiseAccuracy's.
func TestMachineStageAccuracy(t *testing.T) {
	for _, c := range []struct {
		cells int
		alpha float64 // 0: the default
	}{{2, 0}, {3, 0}, {4, 0}, {4, 14}} {
		s := meltLike(t, c.cells, 5.64, 1200, int64(c.cells))
		p := smallParams(s.L)
		if c.alpha != 0 {
			p = ewald.ParamsForAlpha(s.L, c.alpha)
		}
		acc, err := MeasureAccuracy(CurrentMachineConfig(p), s)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("cells %d α %.3g", c.cells, p.Alpha)
		t.Logf("%s: real %.2e/%.2e wave %.2e/%.2e total %.2e/%.2e (rms/worst) potential %.1e; truncation %.2e rms",
			name, acc.Real.RMS, acc.Real.Worst, acc.Wave.RMS, acc.Wave.Worst, acc.Total.RMS, acc.Total.Worst, acc.Potential, acc.Truncation.RMS)
		for _, g := range []struct {
			stage      string
			got, bound float64
		}{
			{"real", acc.Real.RMS, AccuracyBound.Real.RMS},
			{"wave", acc.Wave.RMS, AccuracyBound.Wave.RMS},
			{"total", acc.Total.RMS, AccuracyBound.Total.RMS},
			{"potential", acc.Potential, AccuracyBound.Potential},
		} {
			// Zero would mean the oracle judged the machine against itself.
			if !(g.got > 0 && g.got <= g.bound) {
				t.Errorf("%s: %s error %.3g, want in (0, %g]", name, g.stage, g.got, g.bound)
			}
		}
	}
}

func TestReferenceForceIsGradient(t *testing.T) {
	s := meltLike(t, 1, 5.8, 300, 2)
	p := smallParams(s.L)
	ref, err := NewReference(p)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := ref.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-5
	for _, comp := range []int{0, 1, 2} {
		shift := [3]vec.V{vec.New(h, 0, 0), vec.New(0, h, 0), vec.New(0, 0, h)}[comp]
		orig := s.Pos[3]
		s.Pos[3] = orig.Add(shift)
		_, ep, err := ref.Forces(s)
		if err != nil {
			t.Fatal(err)
		}
		s.Pos[3] = orig.Sub(shift)
		_, em, err := ref.Forces(s)
		if err != nil {
			t.Fatal(err)
		}
		s.Pos[3] = orig
		want := -(ep - em) / (2 * h)
		got := f[3].Component(comp)
		if math.Abs(got-want) > 2e-3*(1+math.Abs(want)) {
			t.Errorf("component %d: F = %g, -dE/dx = %g", comp, got, want)
		}
	}
}

func TestPerfectCrystalForcesVanish(t *testing.T) {
	s, _ := md.NewRockSalt(2, 5.64)
	p := smallParams(s.L)
	ref, _ := NewReference(p)
	f, _, err := ref.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	// The crystal scale: k_e/d² ≈ 1.8 eV/Å.
	if m := vec.MaxNorm(f); m > 1e-3 {
		t.Errorf("reference max force on perfect crystal = %g", m)
	}
	machine := newTestMachine(t, p)
	fm, _, err := machine.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	if m := vec.MaxNorm(fm); m > 1e-2 {
		t.Errorf("machine max force on perfect crystal = %g", m)
	}
}

func TestMachineNVEEnergyConservation(t *testing.T) {
	// The §5 claim: total energy conserved to ~5e-7 relative (5e-5 percent)
	// over the NVE segment. At our scales (64 ions, 150 steps of 1 fs) the
	// simulated hardware conserves energy to well below 1e-4 relative.
	s := meltLike(t, 2, 5.64, 300, 3)
	p := smallParams(s.L)
	machine := newTestMachine(t, p)
	it, err := md.NewIntegrator(s, machine, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &md.Recorder{}
	rec.Sample(it)
	if err := it.Run(150, func(step int) error { rec.Sample(it); return nil }); err != nil {
		t.Fatal(err)
	}
	drift := rec.EnergyDrift()
	if drift > 2e-4 {
		t.Errorf("machine NVE energy drift = %g", drift)
	}
	t.Logf("machine NVE relative energy drift over 150 fs = %.2e (paper: <5e-7 over 2 ps)", drift)
}

func TestReferenceNVEEnergyConservation(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 4)
	p := smallParams(s.L)
	ref, _ := NewReference(p)
	it, err := md.NewIntegrator(s, ref, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &md.Recorder{}
	rec.Sample(it)
	if err := it.Run(150, func(step int) error { rec.Sample(it); return nil }); err != nil {
		t.Fatal(err)
	}
	// The sharp r_cut truncation of the conventional method injects small
	// energy jumps as pairs cross the cutoff, so its drift is a little worse
	// than the machine's smooth-tail evaluation.
	if drift := rec.EnergyDrift(); drift > 5e-4 {
		t.Errorf("reference NVE energy drift = %g", drift)
	} else {
		t.Logf("reference NVE relative energy drift over 150 fs = %.2e", drift)
	}
}

func TestMachineBoxMismatch(t *testing.T) {
	s, _ := md.NewRockSalt(2, 5.64)
	p := smallParams(20.0) // wrong box
	machine := newTestMachine(t, p)
	if _, _, err := machine.Forces(s); err == nil {
		t.Error("box mismatch accepted")
	}
	ref, _ := NewReference(p)
	if _, _, err := ref.Forces(s); err == nil {
		t.Error("reference box mismatch accepted")
	}
}

// TestNewMachineValidation runs every rejected configuration against both
// constructors: the serial Machine and a ParallelRun at 1 + 1 build through
// one prefix, so neither may accept what the other refuses. α = 0 and
// Lk_cut = 0 used to build a session that stepped to a finite, meaningless
// potential, and Lk_cut < 0 one that panicked in ewald.Waves.
func TestNewMachineValidation(t *testing.T) {
	p := smallParams(11.28)
	for _, c := range []struct {
		name string
		edit func(*MachineConfig)
	}{
		{"empty config", func(c *MachineConfig) { *c = MachineConfig{} }},
		// A WINE-2 accumulator past the 62-bit carrier used to build, and
		// return zero structure factors.
		{"WINE-2 accumulator past the carrier", func(c *MachineConfig) { c.Wine.AccFrac = 40 }},
		{"WINE-2 charge format past the carrier", func(c *MachineConfig) { c.Wine.QFrac = 45 }},
		{"alpha 0", func(c *MachineConfig) { c.Ewald.Alpha = 0 }},
		{"Lk_cut 0", func(c *MachineConfig) { c.Ewald.LKCut = 0 }},
		{"negative Lk_cut", func(c *MachineConfig) { c.Ewald.LKCut = -1 }},
	} {
		cfg := CurrentMachineConfig(p)
		c.edit(&cfg)
		if m, err := NewMachine(cfg); err == nil {
			_ = m.Free()
			t.Errorf("%s: NewMachine accepted it", c.name)
		}
		world, err := mpi.NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		if pr, err := NewParallelRun(world, cfg, 1, 1); err == nil {
			_ = pr.Free()
			t.Errorf("%s: NewParallelRun accepted it", c.name)
		}
	}
}

func TestPotentialEveryCaching(t *testing.T) {
	s := meltLike(t, 1, 5.8, 300, 5)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)
	cfg.PotentialEvery = 3
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, pot1, err := m.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	// Move a particle; cached potential must be returned on calls 2 and 3.
	s.Pos[0] = s.Pos[0].Add(vec.New(0.3, 0, 0)).Wrap(s.L)
	_, pot2, _ := m.Forces(s)
	if pot2 != pot1 {
		t.Errorf("potential recomputed despite PotentialEvery=3")
	}
	_, pot3, _ := m.Forces(s)
	if pot3 != pot1 {
		t.Errorf("potential recomputed on third call")
	}
	_, pot4, _ := m.Forces(s)
	if pot4 == pot1 {
		t.Errorf("potential not refreshed on fourth call")
	}
}

func TestMachineStatsAccumulate(t *testing.T) {
	s := meltLike(t, 1, 5.8, 300, 6)
	p := smallParams(s.L)
	m := newTestMachine(t, p)
	if _, _, err := m.Forces(s); err != nil {
		t.Fatal(err)
	}
	mdg := m.MDGStats()
	wine := m.wave.lib.System().Stats()
	if mdg.PairsEvaluated == 0 || mdg.Calls != 4 {
		t.Errorf("MDGRAPE stats = %+v, want 4 passes", mdg)
	}
	wantOps := int64(len(m.Waves()) * s.N())
	if wine.DFTOps != wantOps || wine.IDFTOps != wantOps {
		t.Errorf("WINE stats = %+v, want %d ops each", wine, wantOps)
	}
}

func BenchmarkMachineStep64(b *testing.B) {
	s, _ := md.NewRockSalt(2, 5.64)
	s.SetMaxwellVelocities(1200, 1)
	p := smallParams(s.L)
	m, err := NewMachine(CurrentMachineConfig(p))
	if err != nil {
		b.Fatal(err)
	}
	it, err := md.NewIntegrator(s, m, 2.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := it.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReferenceStep64(b *testing.B) {
	s, _ := md.NewRockSalt(2, 5.64)
	s.SetMaxwellVelocities(1200, 1)
	p := smallParams(s.L)
	ref, err := NewReference(p)
	if err != nil {
		b.Fatal(err)
	}
	it, err := md.NewIntegrator(s, ref, 2.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := it.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPressureNearZeroAtEquilibrium(t *testing.T) {
	// The Tosi-Fumi force field should hold the NaCl crystal near zero
	// pressure at the experimental lattice constant (a ≈ 5.64 Å) and show
	// the right sign of response under compression/expansion.
	pressureAt := func(a float64) float64 {
		s, err := md.NewRockSalt(2, a)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewReference(smallParams(s.L))
		if err != nil {
			t.Fatal(err)
		}
		p, err := ref.Pressure(s)
		if err != nil {
			t.Fatal(err)
		}
		return p * units.EVPerA3ToGPa
	}
	p0 := pressureAt(5.64)
	pc := pressureAt(5.30) // compressed
	pe := pressureAt(6.10) // expanded
	t.Logf("P(5.30 Å) = %+.2f GPa, P(5.64 Å) = %+.2f GPa, P(6.10 Å) = %+.2f GPa", pc, p0, pe)
	if math.Abs(p0) > 3 { // GPa; static lattice, small truncation residue
		t.Errorf("equilibrium pressure = %g GPa, want ≈ 0", p0)
	}
	if pc < 5 {
		t.Errorf("compressed crystal pressure = %g GPa, want strongly positive", pc)
	}
	if pe > -0.5 {
		t.Errorf("expanded crystal pressure = %g GPa, want negative (cohesion)", pe)
	}
}

func TestPressureBoxMismatch(t *testing.T) {
	s, _ := md.NewRockSalt(2, 5.64)
	ref, _ := NewReference(smallParams(99))
	if _, err := ref.Pressure(s); err == nil {
		t.Error("box mismatch accepted")
	}
}
