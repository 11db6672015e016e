// Package sph implements smoothed particle hydrodynamics on the simulated
// MDGRAPE-2 — one of the "other applications" the paper lists for the MDM
// (§6.4, citing the GRAPE SPH work of Umemura [19] and Steinmetz [20]).
//
// SPH maps perfectly onto the machine's central-force architecture:
//
//   - the density estimate ρ_i = Σ_j m_j W(r_ij) is a scalar pair sum — the
//     hardware's potential mode with the kernel W as the φ table and the
//     particle masses in the per-particle charge field;
//   - the symmetric pressure acceleration
//     a⃗_i = -Σ_j m_j (P_i/ρ_i² + P_j/ρ_j²) ∇W(r_ij)
//     splits into two force passes: one with the host scale carrying
//     P_i/ρ_i², one with the charge field carrying m_j·P_j/ρ_j².
//
// The smoothing kernel is the 3-D Gaussian W(r) = exp(-r²/h²)/(π^(3/2) h³),
// whose infinite smoothness suits the segmented polynomial evaluator; the
// grid's cutoff truncates it at 3h, where it has decayed to ~1e-4.
package sph

import (
	"fmt"
	"math"

	"mdm/internal/cellindex"
	"mdm/internal/mdgrape2"
	"mdm/internal/vec"
)

// Table names in the function-evaluator RAM.
const (
	tableW     = "sph-kernel"      // φ(x) = e^-x (density mode)
	tableGradW = "sph-kernel-grad" // g(x) = e^-x (force mode, shape only)
)

// Fluid is an isothermal SPH fluid in a periodic cubic box: the equation of
// state is P = c²ρ.
type Fluid struct {
	L          float64 // box side
	H          float64 // smoothing length
	SoundSpeed float64 // isothermal sound speed c

	Pos  []vec.V
	Vel  []vec.V
	Mass []float64

	sys   *mdgrape2.System
	grid  *cellindex.Grid
	sigma float64 // kernel normalization 1/(π^(3/2) h³)
}

// NewFluid builds a fluid and loads the kernel tables into a simulated
// MDGRAPE-2 of the given configuration.
func NewFluid(cfg mdgrape2.Config, l, h, c float64, pos []vec.V, mass []float64) (*Fluid, error) {
	if l <= 0 || h <= 0 || c <= 0 {
		return nil, fmt.Errorf("sph: non-positive box %g, smoothing %g or sound speed %g", l, h, c)
	}
	if 3*h > l/2 {
		return nil, fmt.Errorf("sph: smoothing length %g too large for box %g (need 3h <= L/2)", h, l)
	}
	if len(pos) != len(mass) {
		return nil, fmt.Errorf("sph: %d positions vs %d masses", len(pos), len(mass))
	}
	for i, m := range mass {
		if m <= 0 {
			return nil, fmt.Errorf("sph: particle %d has non-positive mass %g", i, m)
		}
	}
	sys, err := mdgrape2.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	// e^-x over x in [2^-16, 2^16): covers r from h/256 to far past the
	// 3h truncation.
	if err := sys.LoadTable(tableW, func(x float64) float64 { return math.Exp(-x) }, -16, 16); err != nil {
		return nil, err
	}
	if err := sys.LoadTable(tableGradW, func(x float64) float64 { return math.Exp(-x) }, -16, 16); err != nil {
		return nil, err
	}
	grid, err := cellindex.NewGrid(l, 3*h)
	if err != nil {
		return nil, err
	}
	f := &Fluid{
		L:          l,
		H:          h,
		SoundSpeed: c,
		Pos:        append([]vec.V(nil), pos...),
		Vel:        make([]vec.V, len(pos)),
		Mass:       append([]float64(nil), mass...),
		sys:        sys,
		grid:       grid,
		sigma:      1 / (math.Pow(math.Pi, 1.5) * h * h * h),
	}
	return f, nil
}

// N returns the particle count.
func (f *Fluid) N() int { return len(f.Pos) }

// Stats exposes the pipeline work counters.
func (f *Fluid) Stats() mdgrape2.Stats { return f.sys.Stats() }

// types returns the all-zero type slice (one fluid species).
func (f *Fluid) types() []int { return make([]int, f.N()) }

// jset builds the board memory image with the masses (or a derived per-
// particle quantity) in the charge field.
func (f *Fluid) jset(weights []float64) (*mdgrape2.JSet, error) {
	return mdgrape2.NewJSetWeighted(f.grid, f.Pos, f.types(), weights)
}

// Densities computes ρ_i through the hardware potential mode, adding the
// self term m_i·W(0) on the host (the pipelines return zero for r = 0).
func (f *Fluid) Densities() ([]float64, error) {
	co, err := mdgrape2.NewCoeffs(1, 1/(f.H*f.H), f.sigma)
	if err != nil {
		return nil, err
	}
	js, err := f.jset(f.Mass)
	if err != nil {
		return nil, err
	}
	rho, err := f.sys.ComputePotentials(tableW, co, f.Pos, f.types(), nil, js)
	if err != nil {
		return nil, err
	}
	for i := range rho {
		rho[i] += f.Mass[i] * f.sigma // self contribution W(0) = σ
	}
	return rho, nil
}

// cut2 is the squared kernel cutoff (3h)², the grid's.
func (f *Fluid) cut2() float64 { return f.grid.Cutoff * f.grid.Cutoff }

// pressure applies the isothermal equation of state.
func (f *Fluid) pressure(rho []float64) []float64 {
	p := make([]float64, len(rho))
	c2 := f.SoundSpeed * f.SoundSpeed
	for i, r := range rho {
		p[i] = c2 * r
	}
	return p
}

// Accelerations computes the symmetric SPH pressure acceleration through two
// hardware force passes.
func (f *Fluid) Accelerations(rho []float64) ([]vec.V, error) {
	if len(rho) != f.N() {
		return nil, fmt.Errorf("sph: %d densities for %d particles", len(rho), f.N())
	}
	p := f.pressure(rho)
	b := 2 * f.sigma / (f.H * f.H)
	co, err := mdgrape2.NewCoeffs(1, 1/(f.H*f.H), b)
	if err != nil {
		return nil, err
	}
	types := f.types()

	// Pass A: scale_i = P_i/ρ_i², charge field = m_j.
	scaleA := make([]float64, f.N())
	for i := range scaleA {
		scaleA[i] = p[i] / (rho[i] * rho[i])
	}
	jsA, err := f.jset(f.Mass)
	if err != nil {
		return nil, err
	}
	accA, err := f.sys.ComputeForces(tableGradW, co, f.Pos, types, scaleA, jsA)
	if err != nil {
		return nil, err
	}

	// Pass B: charge field = m_j·P_j/ρ_j², no host scale.
	wB := make([]float64, f.N())
	for j := range wB {
		wB[j] = f.Mass[j] * p[j] / (rho[j] * rho[j])
	}
	jsB, err := f.jset(wB)
	if err != nil {
		return nil, err
	}
	accB, err := f.sys.ComputeForces(tableGradW, co, f.Pos, types, nil, jsB)
	if err != nil {
		return nil, err
	}
	for i := range accA {
		accA[i] = accA[i].Add(accB[i])
	}
	return accA, nil
}

// Step advances one leapfrog (kick-drift-kick) time step using hardware
// density and force passes, and returns the densities at the step's start.
func (f *Fluid) Step(dt float64) ([]float64, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("sph: non-positive time step %g", dt)
	}
	rho, err := f.Densities()
	if err != nil {
		return nil, err
	}
	acc, err := f.Accelerations(rho)
	if err != nil {
		return nil, err
	}
	for i := range f.Pos {
		f.Vel[i] = f.Vel[i].Add(acc[i].Scale(dt / 2))
		f.Pos[i] = f.Pos[i].Add(f.Vel[i].Scale(dt)).Wrap(f.L)
	}
	rho2, err := f.Densities()
	if err != nil {
		return nil, err
	}
	acc2, err := f.Accelerations(rho2)
	if err != nil {
		return nil, err
	}
	for i := range f.Pos {
		f.Vel[i] = f.Vel[i].Add(acc2[i].Scale(dt / 2))
	}
	return rho, nil
}

// Momentum returns the total momentum.
func (f *Fluid) Momentum() vec.V {
	var p vec.V
	for i := range f.Vel {
		p = p.Add(f.Vel[i].Scale(f.Mass[i]))
	}
	return p
}
