package md

import (
	"fmt"
	"math"
	"testing"

	"mdm/internal/tosifumi"
	"mdm/internal/units"
	"mdm/internal/vec"
)

// ljFF is a minimum-image all-pairs Lennard-Jones force field used to test
// the integrator in isolation (continuous potential, cheap at small N).
type ljFF struct {
	eps, sigma float64
}

func (l ljFF) Forces(s *System) ([]vec.V, float64, error) {
	f := make([]vec.V, s.N())
	pot := 0.0
	for i := 0; i < s.N(); i++ {
		for j := i + 1; j < s.N(); j++ {
			rij := s.Pos[i].Sub(s.Pos[j]).MinImage(s.L)
			r2 := rij.Norm2()
			sr2 := l.sigma * l.sigma / r2
			sr6 := sr2 * sr2 * sr2
			pot += 4 * l.eps * (sr6*sr6 - sr6)
			fs := 24 * l.eps * (2*sr6*sr6 - sr6) / r2
			fv := rij.Scale(fs)
			f[i] = f[i].Add(fv)
			f[j] = f[j].Sub(fv)
		}
	}
	return f, pot, nil
}

// harmonicFF tethers every particle to its initial position.
type harmonicFF struct {
	k      float64
	anchor []vec.V
}

func (h *harmonicFF) Forces(s *System) ([]vec.V, float64, error) {
	f := make([]vec.V, s.N())
	pot := 0.0
	for i := range f {
		d := s.Pos[i].Sub(h.anchor[i])
		f[i] = d.Scale(-h.k)
		pot += 0.5 * h.k * d.Norm2()
	}
	return f, pot, nil
}

type errFF struct{}

func (errFF) Forces(s *System) ([]vec.V, float64, error) {
	return nil, 0, fmt.Errorf("synthetic failure")
}

func TestNewRockSalt(t *testing.T) {
	s, err := NewRockSalt(2, 5.64)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 64 {
		t.Fatalf("N = %d, want 64", s.N())
	}
	if s.L != 11.28 {
		t.Errorf("L = %g", s.L)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Charge neutrality and species balance.
	qsum := 0.0
	na := 0
	for i := range s.Charge {
		qsum += s.Charge[i]
		if s.Type[i] == int(tosifumi.Na) {
			na++
		}
	}
	if qsum != 0 {
		t.Errorf("net charge = %g", qsum)
	}
	if na != 32 {
		t.Errorf("Na count = %d, want 32", na)
	}
	// Nearest neighbors are unlike species at distance a/2.
	d01 := vec.DistPeriodic(s.Pos[0], s.Pos[1], s.L)
	if math.Abs(d01-2.82) > 1e-12 {
		t.Errorf("nearest spacing = %g", d01)
	}
	if s.Type[0] == s.Type[1] {
		t.Error("nearest neighbors have the same species")
	}
}

func TestNewRockSaltValidation(t *testing.T) {
	if _, err := NewRockSalt(0, 5.64); err == nil {
		t.Error("0 cells accepted")
	}
	if _, err := NewRockSalt(2, 0); err == nil {
		t.Error("zero lattice constant accepted")
	}
}

func TestValidateCatchesBadState(t *testing.T) {
	s, _ := NewRockSalt(1, 5.64)
	s.Mass[3] = 0
	if err := s.Validate(); err == nil {
		t.Error("zero mass accepted")
	}
	s, _ = NewRockSalt(1, 5.64)
	s.Vel = s.Vel[:2]
	if err := s.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
	s, _ = NewRockSalt(1, 5.64)
	s.L = -1
	if err := s.Validate(); err == nil {
		t.Error("negative box accepted")
	}
}

func TestMaxwellVelocities(t *testing.T) {
	s, _ := NewRockSalt(3, 5.64) // 216 particles
	s.SetMaxwellVelocities(1200, 7)
	if got := s.Temperature(); math.Abs(got-1200) > 1e-9*1200 {
		t.Errorf("T = %g, want exactly 1200 after rescale", got)
	}
	// Zero net momentum.
	var p vec.V
	for i := range s.Vel {
		p = p.Add(s.Vel[i].Scale(s.Mass[i]))
	}
	if p.Norm() > 1e-9 {
		t.Errorf("net momentum = %v", p)
	}
	// Reproducible with the same seed; different with another.
	s2, _ := NewRockSalt(3, 5.64)
	s2.SetMaxwellVelocities(1200, 7)
	if s.Vel[5] != s2.Vel[5] {
		t.Error("same seed gave different velocities")
	}
	s3, _ := NewRockSalt(3, 5.64)
	s3.SetMaxwellVelocities(1200, 8)
	if s.Vel[5] == s3.Vel[5] {
		t.Error("different seeds gave identical velocities")
	}
}

func TestKineticTemperatureConsistency(t *testing.T) {
	s, _ := NewRockSalt(2, 5.64)
	s.SetMaxwellVelocities(300, 1)
	ke := s.KineticEnergy()
	want := units.KelvinToKinetic(300, s.N())
	if math.Abs(ke-want) > 1e-9*want {
		t.Errorf("KE = %g, equipartition: %g", ke, want)
	}
}

func TestNewIntegratorValidation(t *testing.T) {
	s, _ := NewRockSalt(1, 5.64)
	if _, err := NewIntegrator(s, nil, 1); err == nil {
		t.Error("nil force field accepted")
	}
	if _, err := NewIntegrator(s, ljFF{0.05, 3}, 0); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := NewIntegrator(s, errFF{}, 1); err == nil {
		t.Error("failing force field not propagated")
	}
	s.L = 0
	if _, err := NewIntegrator(s, ljFF{0.05, 3}, 1); err == nil {
		t.Error("invalid state accepted")
	}
}

func TestHarmonicOscillatorPeriod(t *testing.T) {
	// One particle in a harmonic well: x(t) = A cos(ωt) with
	// ω = sqrt(k·ForceToAccel/m) in fs⁻¹.
	s := &System{
		L:      100,
		Pos:    []vec.V{vec.New(51, 50, 50)}, // amplitude 1 Å
		Vel:    []vec.V{vec.Zero},
		Mass:   []float64{20},
		Charge: []float64{0},
		Type:   []int{0},
	}
	k := 0.5 // eV/Å²
	ff := &harmonicFF{k: k, anchor: []vec.V{vec.New(50, 50, 50)}}
	it, err := NewIntegrator(s, ff, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	omega := math.Sqrt(k * units.ForceToAccel / 20)
	period := 2 * math.Pi / omega
	steps := int(period / it.Dt)
	if err := it.Run(steps, nil); err != nil {
		t.Fatal(err)
	}
	// After one period the particle is back near the start.
	if d := s.Pos[0].Sub(vec.New(51, 50, 50)).Norm(); d > 0.01 {
		t.Errorf("after one period displacement = %g Å", d)
	}
	// Energy is conserved.
	e := it.TotalEnergy()
	if math.Abs(e-0.25) > 1e-4 { // E = ½kA² = 0.25 eV
		t.Errorf("oscillator energy = %g, want 0.25", e)
	}
}

func TestNVEEnergyConservationLJ(t *testing.T) {
	s, _ := NewRockSalt(2, 8.0) // dilute: 64 particles, L = 16
	// Re-type everything identically; LJ doesn't care.
	s.SetMaxwellVelocities(60, 3)
	ff := ljFF{eps: 0.01, sigma: 3.0}
	it, err := NewIntegrator(s, ff, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{}
	rec.Sample(it)
	if err := it.Run(300, func(step int) error {
		rec.Sample(it)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	drift := rec.EnergyDrift()
	if drift > 2e-4 {
		t.Errorf("NVE energy drift = %g", drift)
	}
	if drift == 0 {
		t.Error("exactly zero drift is implausible")
	}
	// Momentum stays zero under pair forces.
	var p vec.V
	for i := range s.Vel {
		p = p.Add(s.Vel[i].Scale(s.Mass[i]))
	}
	if p.Norm() > 1e-8 {
		t.Errorf("net momentum after NVE = %v", p)
	}
}

func TestNVTPinsTemperature(t *testing.T) {
	s, _ := NewRockSalt(2, 8.0)
	s.SetMaxwellVelocities(200, 4)
	it, err := NewIntegrator(s, ljFF{eps: 0.01, sigma: 3.0}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	it.Mode = NVT
	it.Target = 500
	if err := it.Run(20, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Sys().Temperature(); math.Abs(got-500) > 1e-6*500 {
		t.Errorf("T after NVT = %g, want 500", got)
	}
}

// Sys is a tiny helper so the test above reads naturally.
func (s *System) Sys() *System { return s }

func TestEnsembleString(t *testing.T) {
	if NVE.String() != "NVE" || NVT.String() != "NVT" {
		t.Error("ensemble names wrong")
	}
}

func TestRunObserveError(t *testing.T) {
	s, _ := NewRockSalt(1, 8.0)
	it, _ := NewIntegrator(s, ljFF{0.01, 3}, 1)
	sentinel := fmt.Errorf("stop")
	if err := it.Run(10, func(step int) error { return sentinel }); err != sentinel {
		t.Errorf("err = %v", err)
	}
	if it.StepCount() != 1 {
		t.Errorf("steps = %d, want 1", it.StepCount())
	}
}

func TestRecorderStats(t *testing.T) {
	r := &Recorder{}
	if m, s := r.TemperatureStats(); m != 0 || s != 0 {
		t.Error("empty recorder stats nonzero")
	}
	if d := r.EnergyDrift(); !math.IsNaN(d) {
		t.Errorf("empty recorder drift %g, want NaN (unavailable)", d)
	}
	// The stale samples (a PE repeated from an earlier evaluation) are not
	// read: neither as the reference energy nor as a deviation.
	r.Records = []Record{{T: 100, E: -9}, {T: 100, E: -10, PEFresh: true}, {T: 200, E: -10.1, PEFresh: true},
		{T: 200, E: -12}, {T: 300, E: -9.9, PEFresh: true}}
	m, sd := r.TemperatureStats()
	if m != 180 {
		t.Errorf("mean T = %g", m)
	}
	if math.Abs(sd-math.Sqrt(28000.0/5)) > 1e-9 {
		t.Errorf("std T = %g", sd)
	}
	if d := r.EnergyDrift(); math.Abs(d-0.01) > 1e-12 {
		t.Errorf("drift = %g, want 0.01", d)
	}
	r.Records = r.Records[:3:3]
	r.Records[2].PEFresh = false
	if d := r.EnergyDrift(); !math.IsNaN(d) {
		t.Errorf("drift over one fresh sample %g, want NaN (unavailable)", d)
	}
}

func TestRecorderTimeAxis(t *testing.T) {
	s, _ := NewRockSalt(1, 8.0)
	it, _ := NewIntegrator(s, ljFF{0.01, 3}, 2.0) // the paper's 2 fs step
	rec := &Recorder{}
	if err := it.Run(5, func(step int) error { rec.Sample(it); return nil }); err != nil {
		t.Fatal(err)
	}
	// 5 steps × 2 fs = 10 fs = 0.01 ps.
	last := rec.Records[len(rec.Records)-1]
	if math.Abs(last.Time-0.01) > 1e-12 {
		t.Errorf("time = %g ps, want 0.01", last.Time)
	}
}

func BenchmarkStepLJ64(b *testing.B) {
	s, _ := NewRockSalt(2, 8.0)
	s.SetMaxwellVelocities(100, 1)
	it, _ := NewIntegrator(s, ljFF{0.01, 3}, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := it.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
