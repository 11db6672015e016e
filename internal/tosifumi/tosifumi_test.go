package tosifumi

import (
	"math"
	"testing"
	"testing/quick"

	"mdm/internal/units"
	"mdm/internal/vec"
)

func TestDefaultParameters(t *testing.T) {
	p := Default()
	if math.Abs(p.B-0.2110) > 1e-3 {
		t.Errorf("b = %g eV, want ≈ 0.211", p.B)
	}
	if p.Rho != 0.317 {
		t.Errorf("ρ = %g", p.Rho)
	}
	// Symmetry of the pair tables.
	for i := 0; i < NumSpecies; i++ {
		for j := 0; j < NumSpecies; j++ {
			if p.A[i][j] != p.A[j][i] || p.C[i][j] != p.C[j][i] || p.D[i][j] != p.D[j][i] {
				t.Fatalf("asymmetric parameters at (%d,%d)", i, j)
			}
		}
	}
	// Pauling factors for ±1 charges with n = 8: 1.25, 1.00, 0.75.
	if p.A[Na][Na] != 1.25 || p.A[Na][Cl] != 1.00 || p.A[Cl][Cl] != 0.75 {
		t.Error("Pauling factors wrong")
	}
	// c_-- ≈ 72.4 eV·Å⁶.
	if math.Abs(p.C[Cl][Cl]-72.4) > 0.5 {
		t.Errorf("c_-- = %g eV·Å⁶, want ≈ 72.4", p.C[Cl][Cl])
	}
}

func TestChargeMass(t *testing.T) {
	if Charge(Na) != 1 || Charge(Cl) != -1 {
		t.Error("charges wrong")
	}
	if Charge(Na)+Charge(Cl) != 0 {
		t.Error("NaCl pair not neutral")
	}
	if Mass(Na) >= Mass(Cl) {
		t.Error("Na should be lighter than Cl")
	}
	if Na.String() != "Na" || Cl.String() != "Cl" {
		t.Error("String() wrong")
	}
	if Species(7).String() == "" {
		t.Error("unknown species should still print")
	}
}

func TestShortEnergyShape(t *testing.T) {
	p := Default()
	// Strongly repulsive at short range.
	if e := p.ShortEnergy(Na, Cl, 1.0); e < 1 {
		t.Errorf("E(1 Å) = %g, want strongly positive", e)
	}
	// Attractive (dispersion-dominated) at intermediate range.
	if e := p.ShortEnergy(Cl, Cl, 4.5); e >= 0 {
		t.Errorf("E_ClCl(4.5 Å) = %g, want negative (dispersion)", e)
	}
	// Negligible at the paper's cutoff.
	if e := math.Abs(p.ShortEnergy(Na, Cl, 26.4)); e > 1e-7 {
		t.Errorf("E(26.4 Å) = %g, should be negligible", e)
	}
	// Infinite at contact.
	if e := p.ShortEnergy(Na, Na, 0); !math.IsInf(e, 1) {
		t.Errorf("E(0) = %g", e)
	}
}

func TestForceIsEnergyDerivative(t *testing.T) {
	p := Default()
	const h = 1e-6
	for _, r := range []float64{2.0, 2.8, 3.5, 5.0, 8.0} {
		for si := Species(0); si < NumSpecies; si++ {
			for sj := Species(0); sj < NumSpecies; sj++ {
				grad := (p.ShortEnergy(si, sj, r+h) - p.ShortEnergy(si, sj, r-h)) / (2 * h)
				// F_radial = -dφ/dr; ShortForceScalar is F_radial / r.
				want := -grad / r
				got := p.ShortForceScalar(si, sj, r*r)
				if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
					t.Errorf("%v-%v at r=%g: g = %g, -φ'/r = %g", si, sj, r, got, want)
				}
			}
		}
	}
}

func TestShortForceVector(t *testing.T) {
	p := Default()
	rij := vec.New(1.5, -1.0, 0.5)
	f := p.ShortForce(Na, Cl, rij)
	// Force must be parallel (or anti-parallel) to rij.
	cross := f.Cross(rij).Norm()
	if cross > 1e-12*f.Norm()*rij.Norm() {
		t.Errorf("force not central: cross = %g", cross)
	}
	// At ~2 Å the Na-Cl pair is inside the repulsive wall: force pushes i
	// away from j, i.e. along +rij.
	if f.Dot(rij) <= 0 {
		t.Errorf("force at r=%g not repulsive", rij.Norm())
	}
	// Zero displacement gives zero force (hardware self-pair behaviour).
	if got := p.ShortForce(Na, Na, vec.Zero); got != vec.Zero {
		t.Errorf("self force = %v", got)
	}
}

func TestGFuncMatchesScalar(t *testing.T) {
	p := Default()
	g := p.GFunc(Cl, Cl)
	f := func(r float64) bool {
		r = 1.5 + math.Abs(math.Mod(r, 10))
		return g(r*r) == p.ShortForceScalar(Cl, Cl, r*r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEquilibriumSpacing(t *testing.T) {
	// The Tosi-Fumi set should reproduce the NaCl crystal: d₀ ≈ 2.8 Å
	// (a = 5.64 Å). Static-lattice minimum with only first/second shells is
	// within a few percent.
	d := Default().EquilibriumSpacing()
	if d < 2.6 || d > 3.0 {
		t.Errorf("equilibrium Na-Cl spacing = %g Å, want ≈ 2.8", d)
	}
}

func TestNaClPotentialWellDepth(t *testing.T) {
	// The full Na-Cl pair potential (Coulomb + short range) at the crystal
	// spacing should be a deep well of several eV.
	p := Default()
	const d = 2.82
	e := -units.Coulomb/d + p.ShortEnergy(Na, Cl, d)
	if e > -4 || e < -6.5 {
		t.Errorf("NaCl pair energy at %g Å = %g eV, want ≈ -5", d, e)
	}
}

// Property: the short-range force decays monotonically to zero beyond ~6 Å
// (no spurious oscillations from the implementation).
func TestLongRangeDecay(t *testing.T) {
	p := Default()
	prev := math.Abs(p.ShortForceScalar(Cl, Cl, 36))
	for r := 7.0; r < 25; r += 1.0 {
		cur := math.Abs(p.ShortForceScalar(Cl, Cl, r*r))
		if cur > prev {
			t.Fatalf("|g| grew from %g to %g at r=%g", prev, cur, r)
		}
		prev = cur
	}
}

func BenchmarkShortForceScalar(b *testing.B) {
	p := Default()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = p.ShortForceScalar(Na, Cl, 4.0+float64(i%100)*0.05)
	}
	_ = sink
}

// EquilibriumSpacing returns the nearest-neighbor Na–Cl distance (Å) that
// minimizes the static rock-salt lattice energy per ion pair computed with
// the Madelung constant and first/second-shell short-range terms. It is used
// by tests as a sanity check that the parameter set reproduces the known
// NaCl lattice constant (d ≈ 2.8 Å, a ≈ 5.6 Å).
func (p *Potential) EquilibriumSpacing() float64 {
	// E(d) = -M k_e/d + 6 φ_+-(d) + 6 φ_++(√2 d)/... (first shells; the 12
	// like-ion second-shell pairs split 6/6 between Na and Cl per pair).
	energy := func(d float64) float64 {
		const madelung = 1.747565
		e := -madelung * units.Coulomb / d
		e += 6 * p.ShortEnergy(Na, Cl, d)
		s2 := math.Sqrt2 * d
		e += 6 * p.ShortEnergy(Na, Na, s2)
		e += 6 * p.ShortEnergy(Cl, Cl, s2)
		return e
	}
	// Golden-section search on [2, 4] Å.
	lo, hi := 2.0, 4.0
	const phi = 0.6180339887498949
	for i := 0; i < 200; i++ {
		a := hi - phi*(hi-lo)
		b := lo + phi*(hi-lo)
		if energy(a) < energy(b) {
			hi = b
		} else {
			lo = a
		}
	}
	return (lo + hi) / 2
}
