package sph

import (
	"math"
	"math/rand"
	"testing"

	"mdm/internal/mdgrape2"
	"mdm/internal/vec"
)

func uniformFluid(t *testing.T, n int, l, h float64, seed int64) *Fluid {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.V, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
		mass[i] = 1
	}
	f, err := NewFluid(mdgrape2.CurrentConfig(), l, h, 1.0, pos, mass)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFluidValidation(t *testing.T) {
	cfg := mdgrape2.CurrentConfig()
	pos := []vec.V{vec.New(1, 1, 1)}
	mass := []float64{1}
	if _, err := NewFluid(cfg, 0, 1, 1, pos, mass); err == nil {
		t.Error("zero box accepted")
	}
	if _, err := NewFluid(cfg, 10, 2, 1, pos, mass); err == nil {
		t.Error("3h > L/2 accepted")
	}
	if _, err := NewFluid(cfg, 10, 1, 0, pos, mass); err == nil {
		t.Error("zero sound speed accepted")
	}
	if _, err := NewFluid(cfg, 10, 1, 1, pos, nil); err == nil {
		t.Error("mass length mismatch accepted")
	}
	if _, err := NewFluid(cfg, 10, 1, 1, pos, []float64{-1}); err == nil {
		t.Error("negative mass accepted")
	}
}

func TestUniformDensity(t *testing.T) {
	const n, l, h = 400, 12.0, 1.2
	f := uniformFluid(t, n, l, h, 1)
	rho, err := f.Densities()
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n) / (l * l * l)
	mean := 0.0
	for _, r := range rho {
		mean += r
	}
	mean /= float64(n)
	// For a Poisson (uncorrelated) particle field the SPH estimate at a
	// particle location is biased by exactly the self term m·W(0): the
	// neighbor expectation is ρ·∫W = ρ. Remove the bias and the mean must
	// track the true density within sampling noise.
	self := 1.0 / (math.Pow(math.Pi, 1.5) * 1.2 * 1.2 * 1.2)
	if math.Abs(mean-self-want) > 0.05*want {
		t.Errorf("debiased mean SPH density = %g, true %g", mean-self, want)
	}
}

func TestDensitiesMatchOracle(t *testing.T) {
	f := uniformFluid(t, 200, 10, 1.0, 2)
	got, err := f.Densities()
	if err != nil {
		t.Fatal(err)
	}
	want := f.DensitiesExact()
	for i := range got {
		if math.Abs(got[i]-want[i]) > 5e-5*want[i] {
			t.Errorf("particle %d: hardware ρ %g vs oracle %g", i, got[i], want[i])
		}
	}
}

func TestAccelerationsMatchOracle(t *testing.T) {
	f := uniformFluid(t, 200, 10, 1.0, 3)
	rho := f.DensitiesExact()
	got, err := f.Accelerations(rho)
	if err != nil {
		t.Fatal(err)
	}
	want := f.AccelerationsExact(rho)
	ascale := vec.RMS(want)
	if ascale == 0 {
		t.Fatal("degenerate test: zero accelerations")
	}
	// The dominant hardware error here is the float32 position quantization
	// seen through the steep Gaussian gradient (~1e-4 relative, coherent
	// across the ~100 same-sign pressure terms), not the evaluator itself.
	for i := range got {
		if d := got[i].Sub(want[i]).Norm(); d > 3e-4*ascale {
			t.Errorf("particle %d: hardware %v vs oracle %v", i, got[i], want[i])
		}
	}
}

func TestAccelerationValidation(t *testing.T) {
	f := uniformFluid(t, 20, 10, 1.0, 4)
	if _, err := f.Accelerations(make([]float64, 3)); err == nil {
		t.Error("density length mismatch accepted")
	}
	if _, err := f.Step(0); err == nil {
		t.Error("zero dt accepted")
	}
}

func TestBlobExpands(t *testing.T) {
	// A dense central blob in a periodic box: pressure pushes it apart, so
	// the peak density decreases monotonically-ish and momentum stays ~0.
	const l, h = 12.0, 1.0
	rng := rand.New(rand.NewSource(5))
	var pos []vec.V
	var mass []float64
	center := vec.New(l/2, l/2, l/2)
	for i := 0; i < 150; i++ {
		p := vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(1.0)
		pos = append(pos, center.Add(p).Wrap(l))
		mass = append(mass, 1)
	}
	f, err := NewFluid(mdgrape2.CurrentConfig(), l, h, 1.0, pos, mass)
	if err != nil {
		t.Fatal(err)
	}
	peak := func(rho []float64) float64 {
		m := 0.0
		for _, r := range rho {
			if r > m {
				m = r
			}
		}
		return m
	}
	rho0, err := f.Densities()
	if err != nil {
		t.Fatal(err)
	}
	p0 := peak(rho0)
	var last []float64
	for s := 0; s < 20; s++ {
		rho, err := f.Step(0.02)
		if err != nil {
			t.Fatal(err)
		}
		last = rho
	}
	p1 := peak(last)
	if p1 >= p0 {
		t.Errorf("peak density did not fall: %g -> %g", p0, p1)
	}
	if mom := f.Momentum().Norm(); mom > 1e-3*float64(f.N()) {
		t.Errorf("net momentum = %g", mom)
	}
	t.Logf("blob peak density %g -> %g over 20 steps; |momentum| = %.2e", p0, p1, f.Momentum().Norm())
}

func TestStatsAccumulate(t *testing.T) {
	f := uniformFluid(t, 50, 10, 1.0, 6)
	if _, err := f.Step(0.01); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	// One step = 2 density passes + 2×2 force passes = 6 pipeline calls.
	if st.Calls != 6 {
		t.Errorf("pipeline calls = %d, want 6", st.Calls)
	}
	if st.PairsEvaluated == 0 {
		t.Error("no pairs evaluated")
	}
}

func BenchmarkSPHStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, l, h = 300, 12.0, 1.2
	pos := make([]vec.V, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
		mass[i] = 1
	}
	f, err := NewFluid(mdgrape2.CurrentConfig(), l, h, 1.0, pos, mass)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Step(0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// AccelerationsExact is the float64 oracle for Accelerations, cut at 3h like
// the pipelines.
func (f *Fluid) AccelerationsExact(rho []float64) []vec.V {
	p := f.pressure(rho)
	out := make([]vec.V, f.N())
	h2 := f.H * f.H
	for i := range f.Pos {
		var acc vec.V
		for j := range f.Pos {
			if j == i {
				continue
			}
			rij := f.Pos[i].Sub(f.Pos[j]).MinImage(f.L)
			r2 := rij.Norm2()
			if r2 >= f.cut2() {
				continue
			}
			w := 2 * f.sigma / h2 * math.Exp(-r2/h2)
			coef := f.Mass[j] * (p[i]/(rho[i]*rho[i]) + p[j]/(rho[j]*rho[j]))
			acc = acc.Add(rij.Scale(coef * w))
		}
		out[i] = acc
	}
	return out
}

// DensitiesExact is the float64 minimum-image oracle for Densities, cut at
// 3h like the pipelines.
func (f *Fluid) DensitiesExact() []float64 {
	rho := make([]float64, f.N())
	for i := range f.Pos {
		rho[i] = f.Mass[i] * f.sigma
		for j := range f.Pos {
			r2 := f.Pos[i].Sub(f.Pos[j]).MinImage(f.L).Norm2()
			if j == i || r2 >= f.cut2() {
				continue
			}
			rho[i] += f.Mass[j] * f.sigma * math.Exp(-r2/(f.H*f.H))
		}
	}
	return rho
}
