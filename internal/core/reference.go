// Package core couples the simulated MDM backends into force fields for the
// MD engine — the paper's primary contribution (§3–§4):
//
//   - Machine evaluates the NaCl force field the way the MDM does: the
//     real-space Coulomb part and the Tosi–Fumi short-range terms on the
//     simulated MDGRAPE-2 (cell-index method, no Newton's third law,
//     single-precision pipelines with table-driven kernels), the
//     wavenumber-space Coulomb part on the simulated WINE-2 (fixed-point
//     DFT/IDFT pipelines), and the bookkeeping (self-energy, potential
//     energy) on the host in float64.
//   - Reference evaluates the identical physics entirely in float64 on the
//     "conventional general-purpose computer" of Table 4: half-sphere pair
//     sums with Newton's third law and a direct wavenumber sum.
//
// Both implement md.ForceField, so the same integrator runs on either — the
// basis of every accuracy experiment in this reproduction.
package core

import (
	"fmt"

	"mdm/internal/cellindex"
	"mdm/internal/ewald"
	"mdm/internal/md"
	"mdm/internal/tosifumi"
	"mdm/internal/units"
	"mdm/internal/vec"
)

// Reference is the float64 conventional-computer force field for molten NaCl:
// Ewald Coulomb (real + wavenumber + self) plus Tosi–Fumi short-range terms,
// with an r_cut cutoff and Newton's third law in the real-space sums.
type Reference struct {
	P   ewald.Params
	Pot *tosifumi.Potential

	waves []ewald.Wave
	grid  *cellindex.Grid
}

// NewReference builds the reference force field for the given Ewald
// discretization, using the default Tosi–Fumi NaCl parameters.
func NewReference(p ewald.Params) (*Reference, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	grid, err := cellindex.NewGrid(p.L, p.RCut)
	if err != nil {
		return nil, err
	}
	return &Reference{
		P:     p,
		Pot:   tosifumi.Default(),
		waves: ewald.Waves(p),
		grid:  grid,
	}, nil
}

// Waves returns the wavevector set in use.
func (r *Reference) Waves() []ewald.Wave { return r.waves }

// Pressure returns the instantaneous virial pressure in eV/Å³
// (multiply by units.EVPerA3ToGPa for GPa):
//
//	P·V = N k_B T + (W_short + E_coulomb)/3
//
// The Coulomb virial W = Σ f⃗·r⃗ equals +E_coulomb exactly, because the
// electrostatic energy of a neutral periodic system is homogeneous of degree
// −1 under uniform scaling of all lengths (W = −dE(λ)/dλ|₁ = E) — true for
// the full Ewald sum independent of the splitting. The short-range
// Tosi–Fumi virial is accumulated pairwise.
func (r *Reference) Pressure(s *md.System) (float64, error) {
	if s.L != r.P.L {
		return 0, fmt.Errorf("core: system box %g differs from force-field box %g", s.L, r.P.L)
	}
	sum, err := r.sphereSum(s)
	if err != nil {
		return 0, err
	}
	sn, cn := ewald.StructureFactors(r.waves, s.Pos, s.Charge)
	eCoul := sum.eReal + ewald.WavenumberEnergy(r.P, r.waves, sn, cn) + ewald.SelfEnergy(r.P, s.Charge)
	v := s.L * s.L * s.L
	nkT := float64(float64(s.N()) * units.Boltzmann * s.Temperature())
	return (nkT + (sum.wShort+eCoul)/3) / v, nil
}

// Forces implements md.ForceField.
func (r *Reference) Forces(s *md.System) ([]vec.V, float64, error) {
	if s.L != r.P.L {
		return nil, 0, fmt.Errorf("core: system box %g differs from force-field box %g", s.L, r.P.L)
	}
	sum, err := r.sphereSum(s)
	if err != nil {
		return nil, 0, err
	}
	forces, pot := sum.forces, sum.pot

	// Wavenumber-space Coulomb part: direct DFT + IDFT in float64.
	sn, cn := ewald.StructureFactors(r.waves, s.Pos, s.Charge)
	wf := ewald.WavenumberForces(r.P, r.waves, sn, cn, s.Pos, s.Charge)
	for i := range forces {
		forces[i] = forces[i].Add(wf[i])
	}
	pot += ewald.WavenumberEnergy(r.P, r.waves, sn, cn)
	pot += ewald.SelfEnergy(r.P, s.Charge)
	return forces, pot, nil
}

// realSum is a float64 real-space sum: forces in original particle order,
// the potential, and the two parts of it the virial needs.
type realSum struct {
	forces []vec.V
	pot    float64 // real-space Coulomb + short-range energy
	eReal  float64 // its Coulomb part
	wShort float64 // short-range virial Σ f⃗·r⃗
}

// sphereSum is the conventional computer's real-space sum: the r_cut sphere
// on the reference's own cell grid.
func (r *Reference) sphereSum(s *md.System) (*realSum, error) {
	sorted, err := cellindex.SortPool(r.grid, s.Pos, nil)
	if err != nil {
		return nil, err
	}
	sum, body := r.pairSum(s, sorted)
	sorted.ForEachHalfPair(nil, body)
	return sum, nil
}

// pairSum returns an empty sum over the sorted layout and the one float64
// real-space pair body that fills it: Ewald real-space Coulomb plus Tosi–Fumi
// short range, each pair once under Newton's third law (eq. 5 accounting).
// The caller hands the body to the layout's half walk — the r_cut sphere, on
// the reference's own grid (sphereSum) or on a machine's frozen layout
// (MeasureAccuracy). The energy is unshifted.
func (r *Reference) pairSum(s *md.System, sorted *cellindex.Sorted) (*realSum, func(i, j int, rij vec.V)) {
	sum := &realSum{forces: make([]vec.V, s.N())}
	return sum, func(i, j int, rij vec.V) {
		oi, oj := sorted.Order[i], sorted.Order[j]
		si, sj := tosifumi.Species(s.Type[oi]), tosifumi.Species(s.Type[oj])
		fShort := r.Pot.ShortForce(si, sj, rij)
		f := r.P.RealPairForce(s.Charge[oi], s.Charge[oj], rij).Add(fShort)
		sum.forces[oi] = sum.forces[oi].Add(f)
		sum.forces[oj] = sum.forces[oj].Sub(f)
		e := r.P.RealPairEnergy(s.Charge[oi], s.Charge[oj], rij)
		sum.pot += e
		sum.pot += r.Pot.ShortEnergy(si, sj, rij.Norm())
		sum.eReal += e
		sum.wShort += fShort.Dot(rij)
	}
}
