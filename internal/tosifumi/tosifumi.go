// Package tosifumi implements the Tosi–Fumi (Born–Mayer–Huggins) interionic
// potential for alkali halides, the force field the paper uses for molten
// NaCl (§5, eq. 15):
//
//	φ(r) = q_i q_j/(4πε0 r) + A_ij b exp((σ_i+σ_j-r)/ρ) - c_ij/r⁶ - d_ij/r⁸
//
// The Coulomb term is computed by the Ewald machinery (WINE-2 + MDGRAPE-2 in
// the paper); this package provides the short-range part — Born–Mayer
// repulsion plus r⁻⁶ and r⁻⁸ dispersion — which the machine evaluates on
// MDGRAPE-2 through its arbitrary-central-force tables, one table per species
// pair with a_ij = 1 (x = r²) and b_ij = 1.
//
// Default parameters are the Fumi–Tosi 1964 NaCl set, converted to eV/Å.
package tosifumi

import (
	"fmt"
	"math"

	"mdm/internal/units"
	"mdm/internal/vec"
)

// Species indexes the two ion types.
type Species int

// The two ion species of NaCl.
const (
	Na Species = 0
	Cl Species = 1
)

// NumSpecies is the number of ion types in the force field.
const NumSpecies = 2

// String implements fmt.Stringer.
func (s Species) String() string {
	switch s {
	case Na:
		return "Na"
	case Cl:
		return "Cl"
	}
	return fmt.Sprintf("Species(%d)", int(s))
}

// Potential holds the Tosi–Fumi parameters (eq. 15 of the paper).
type Potential struct {
	B     float64                         // b (eV): common repulsion prefactor
	Rho   float64                         // ρ (Å): repulsion softness
	Sigma [NumSpecies]float64             // σ_i (Å): ionic radii parameters
	A     [NumSpecies][NumSpecies]float64 // A_ij: Pauling factors
	C     [NumSpecies][NumSpecies]float64 // c_ij (eV·Å⁶): dipole dispersion
	D     [NumSpecies][NumSpecies]float64 // d_ij (eV·Å⁸): quadrupole dispersion
}

// Default returns the Fumi–Tosi 1964 parameter set for NaCl.
// Dispersion coefficients from the original paper (in 10⁻⁷⁹ J·m⁶ and
// 10⁻⁹⁹ J·m⁸) are converted with 1e-79 J·m⁶ = 0.62415 eV·Å⁶ and
// 1e-99 J·m⁸ = 0.62415 eV·Å⁸.
func Default() *Potential {
	const jm6 = 1e-79 * units.JToEV * units.M6ToA6 // ≈ 0.62415 eV·Å⁶
	const jm8 = 1e-99 * units.JToEV * units.M8ToA8 // ≈ 0.62415 eV·Å⁸
	return &Potential{
		B:     0.338e-19 * units.JToEV, // ≈ 0.2110 eV
		Rho:   0.317,
		Sigma: [2]float64{1.170, 1.585},
		A: [2][2]float64{
			{1.25, 1.00},
			{1.00, 0.75},
		},
		C: [2][2]float64{
			{1.68 * jm6, 11.2 * jm6},
			{11.2 * jm6, 116 * jm6},
		},
		D: [2][2]float64{
			{0.8 * jm8, 13.9 * jm8},
			{13.9 * jm8, 233 * jm8},
		},
	}
}

// Charge returns the ionic charge in units of e.
func Charge(s Species) float64 {
	if s == Na {
		return +1
	}
	return -1
}

// Mass returns the ionic mass in amu.
func Mass(s Species) float64 {
	if s == Na {
		return units.MassNa
	}
	return units.MassCl
}

// ShortEnergy returns the non-Coulomb pair energy at separation r:
// A_ij b exp((σ_i+σ_j-r)/ρ) - c_ij/r⁶ - d_ij/r⁸.
func (p *Potential) ShortEnergy(si, sj Species, r float64) float64 {
	if r <= 0 {
		return math.Inf(1)
	}
	rep := p.A[si][sj] * p.B * math.Exp((p.Sigma[si]+p.Sigma[sj]-r)/p.Rho)
	r2 := r * r
	r6 := r2 * r2 * r2
	r8 := r6 * r2
	return rep - p.C[si][sj]/r6 - p.D[si][sj]/r8
}

// ShortForceScalar returns g(r²) such that the pair force on i is
// g(r²)·r⃗_ij: the MDGRAPE-2 central-force form (eq. 14) of the non-Coulomb
// part, g(r²) = (A b/ρ)exp((σs-r)/ρ)/r - 6c/r⁸ - 8d/r¹⁰.
func (p *Potential) ShortForceScalar(si, sj Species, r2 float64) float64 {
	if r2 <= 0 {
		return 0
	}
	r := math.Sqrt(r2)
	rep := p.A[si][sj] * p.B / p.Rho * math.Exp((p.Sigma[si]+p.Sigma[sj]-r)/p.Rho) / r
	r4 := r2 * r2
	r8 := r4 * r4
	return rep - 6*p.C[si][sj]/r8 - 8*p.D[si][sj]/(r8*r2)
}

// ShortForce returns the non-Coulomb pair force on particle i given
// rij = ri - rj.
func (p *Potential) ShortForce(si, sj Species, rij vec.V) vec.V {
	return rij.Scale(p.ShortForceScalar(si, sj, rij.Norm2()))
}

// GFunc returns the g(x) central-force kernel (x = r² in Å²) for the species
// pair, suitable for loading into a MDGRAPE-2 function-evaluator table with
// a_ij = 1 and b_ij = 1.
func (p *Potential) GFunc(si, sj Species) func(x float64) float64 {
	return func(x float64) float64 { return p.ShortForceScalar(si, sj, x) }
}
