// Package ewald implements the Ewald summation for the Coulomb interaction
// under cubic periodic boundary conditions, in the exact conventions of the
// paper (§2):
//
//   - the splitting parameter α is dimensionless; the real-space screening
//     length is L/α where L is the box side (eq. 2);
//   - wavenumber vectors are k_n = n/L with n ∈ Z³ and |n|L ≡ Lk below the
//     cutoff Lk_cut (eq. 3, 13);
//   - the wavenumber sum runs over a half space of N_wv vectors with the
//     conjugate-symmetry factor folded in (eq. 11).
//
// The package provides the float64 reference implementation that the WINE-2
// and MDGRAPE-2 hardware simulators are validated against, plus the
// analytical machinery the paper's Table 4 rests on: the operation-count
// formulas (N_int, N_int_g, N_wv) and the accuracy-preserving α optimizer
// that balances real-space against wavenumber-space work.
package ewald

import (
	"fmt"
	"math"

	"mdm/internal/units"
	"mdm/internal/vec"
)

// Params fixes one Ewald discretization.
type Params struct {
	L     float64 // box side (Å)
	Alpha float64 // dimensionless splitting parameter (paper's α)
	RCut  float64 // real-space cutoff (Å)
	LKCut float64 // dimensionless wavenumber cutoff (paper's Lk_cut)
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.L <= 0 {
		return fmt.Errorf("ewald: box side %g must be positive", p.L)
	}
	if p.Alpha <= 0 {
		return fmt.Errorf("ewald: alpha %g must be positive", p.Alpha)
	}
	if p.RCut <= 0 || p.RCut > p.L {
		return fmt.Errorf("ewald: r_cut %g must be in (0, L=%g]", p.RCut, p.L)
	}
	if p.LKCut <= 0 {
		return fmt.Errorf("ewald: Lk_cut %g must be positive", p.LKCut)
	}
	return nil
}

// The paper's accuracy-control products (derived from Table 4):
// α·r_cut/L ≈ 2.63 fixes the real-space truncation error (erfc(2.63) ≈ 2e-4
// on the potential) and π·Lk_cut/α ≈ 2.37 fixes the matching
// wavenumber-space truncation. All three Table 4 columns satisfy these.
const (
	SReal = 2.633
	SWave = 2.367
)

// ParamsForAlpha returns the discretization at splitting parameter alpha that
// keeps the paper's truncation-error products: r_cut = SReal·L/α and
// Lk_cut = SWave·α/π.
func ParamsForAlpha(l, alpha float64) Params {
	return Params{
		L:     l,
		Alpha: alpha,
		RCut:  SReal * l / alpha,
		LKCut: SWave * alpha / math.Pi,
	}
}

// NInt is the paper's eq. 5: the pairs per particle a conventional computer
// evaluates with Newton's third law, (1/2)(4π/3) r_cut³ ρ.
func (p Params) NInt(density float64) float64 {
	return 0.5 * (4.0 * math.Pi / 3.0) * p.RCut * p.RCut * p.RCut * density
}

// NIntG is the paper's eq. 6: the pairs per particle MDGRAPE-2 evaluates with
// the 27-cell method and no Newton's third law, 27 r_cut³ ρ.
func (p Params) NIntG(density float64) float64 {
	return 27 * p.RCut * p.RCut * p.RCut * density
}

// NWv is the paper's eq. 13: half the number of wavevectors below the
// cutoff, (1/2)(4π/3)(Lk_cut)³.
func (p Params) NWv() float64 {
	return 0.5 * (4.0 * math.Pi / 3.0) * p.LKCut * p.LKCut * p.LKCut
}

// Wave is one wavenumber-space term: the vector k_n = n/L, its integer
// triple, and the Gaussian weight a_n of eq. 12.
type Wave struct {
	N [3]int  // integer components of nL = kL
	K vec.V   // k = n/L (Å⁻¹)
	A float64 // a_n = exp(-π² L² k² / α²) / k²  (Å²)
}

// Waves enumerates the half space of wavevectors with 0 < |n| < Lk_cut.
// Exactly one of each ±n pair is returned (the one whose first non-zero
// component of (z, y, x) is positive), matching the N_wv accounting of
// eq. 13. The deterministic order is by increasing |n|², then lexicographic
// in (z, y, x).
func Waves(p Params) []Wave {
	nmax := max(int(math.Ceil(p.LKCut)), 0)
	cut2 := p.LKCut * p.LKCut
	halfBall := func(visit func(nx, ny, nz int)) {
		for nz := 0; nz <= nmax; nz++ {
			for ny := -nmax; ny <= nmax; ny++ {
				for nx := -nmax; nx <= nmax; nx++ {
					if nz == 0 && (ny < 0 || (ny == 0 && nx <= 0)) {
						continue // keep the half space, drop n = 0
					}
					if float64(nx*nx+ny*ny+nz*nz) < cut2 {
						visit(nx, ny, nz)
					}
				}
			}
		}
	}
	// Count per |n|² first: the set lives as long as its engine, so it is
	// sized exactly rather than grown, and each wave is placed straight into
	// its slot. The enumeration ascends in (z, y, x), so placing the waves of
	// one |n|² in enumeration order gives the order by (|n|², z, y, x).
	// |n|² < Lk_cut² ≤ nmax², so start has a slot past every |n|².
	start := make([]int, nmax*nmax+1)
	halfBall(func(nx, ny, nz int) { start[nx*nx+ny*ny+nz*nz]++ })
	n := 0
	for n2, c := range start {
		start[n2], n = n, n+c
	}
	out := make([]Wave, n)
	halfBall(func(nx, ny, nz int) {
		k := vec.New(float64(nx), float64(ny), float64(nz)).Scale(1 / p.L)
		k2 := k.Norm2()
		a := math.Exp(-math.Pi*math.Pi*p.L*p.L*k2/(p.Alpha*p.Alpha)) / k2
		n2 := nx*nx + ny*ny + nz*nz
		out[start[n2]] = Wave{N: [3]int{nx, ny, nz}, K: k, A: a}
		start[n2]++
	})
	return out
}

// RealPairForce returns the real-space Coulomb pair force on particle i from
// particle j (eq. 2 integrand): the full vector including the q_i q_j / 4πε0
// prefactor, given the displacement rij = ri - rj. It does not apply any
// cutoff; callers decide which pairs to sum.
func (p Params) RealPairForce(qi, qj float64, rij vec.V) vec.V {
	r2 := rij.Norm2()
	if r2 == 0 {
		return vec.Zero
	}
	r := math.Sqrt(r2)
	ar := p.Alpha * r / p.L
	s := units.Coulomb * qi * qj *
		(math.Erfc(ar)/r + 2*p.Alpha/(math.SqrtPi*p.L)*math.Exp(-ar*ar)) / r2
	return rij.Scale(s)
}

// RealPairEnergy returns the real-space Coulomb pair energy
// q_i q_j erfc(α r/L) / (4πε0 r).
func (p Params) RealPairEnergy(qi, qj float64, rij vec.V) float64 {
	return p.RealPairEnergyR(qi, qj, rij.Norm())
}

// RealPairEnergyR is RealPairEnergy at a separation r the caller already
// holds (a pair walk that shares one square root between several kernels).
func (p Params) RealPairEnergyR(qi, qj, r float64) float64 {
	if r == 0 {
		return 0
	}
	return units.Coulomb * qi * qj * math.Erfc(p.Alpha*r/p.L) / r
}

// SelfEnergy returns the Ewald self-interaction correction
// -(α / (√π L)) Σ q_i² / 4πε0, which must be added once to the total Coulomb
// energy.
func SelfEnergy(p Params, q []float64) float64 {
	s := 0.0
	for _, qi := range q {
		s += float64(qi * qi)
	}
	return float64(-units.Coulomb * p.Alpha / (math.SqrtPi * p.L) * s)
}

// StructureFactors computes the DFT of eqs. 9 and 10 in float64:
// S_n = Σ_j q_j sin(2π k_n·r_j) and C_n = Σ_j q_j cos(2π k_n·r_j)
// for every wave. len(pos) must equal len(q).
func StructureFactors(waves []Wave, pos []vec.V, q []float64) (s, c []float64) {
	s = make([]float64, len(waves))
	c = make([]float64, len(waves))
	for w, wv := range waves {
		var sw, cw float64
		for j, r := range pos {
			th := 2 * math.Pi * wv.K.Dot(r)
			sj, cj := math.Sincos(th)
			sw += q[j] * sj
			cw += q[j] * cj
		}
		s[w] = sw
		c[w] = cw
	}
	return s, c
}

// WavenumberForces computes the IDFT of eq. 11 in float64: the
// wavenumber-space Coulomb force on every particle, using precomputed
// structure factors. The returned slice is freshly allocated.
func WavenumberForces(p Params, waves []Wave, s, c []float64, pos []vec.V, q []float64) []vec.V {
	f := make([]vec.V, len(pos))
	pref := 4 * units.Coulomb / (p.L * p.L * p.L) // q_i/(π ε0 L³) with k_e folded in
	for i, r := range pos {
		var acc vec.V
		for w, wv := range waves {
			th := 2 * math.Pi * wv.K.Dot(r)
			si, ci := math.Sincos(th)
			acc = acc.Add(wv.K.Scale(wv.A * (c[w]*si - s[w]*ci)))
		}
		f[i] = acc.Scale(pref * q[i])
	}
	return f
}

// WavenumberEnergy returns the wavenumber-space Coulomb energy
// (1/(4πε0)) (1/πL³) Σ_half a_n (S_n² + C_n²).
func WavenumberEnergy(p Params, waves []Wave, s, c []float64) float64 {
	e := 0.0
	for w := range waves {
		e += float64(waves[w].A * (float64(s[w]*s[w]) + float64(c[w]*c[w])))
	}
	return float64(units.Coulomb / (math.Pi * p.L * p.L * p.L) * e)
}

// Result bundles the output of a full reference Ewald evaluation.
type Result struct {
	Forces    []vec.V // total Coulomb force per particle
	RealE     float64 // real-space energy (within RCut, minimum image + shells)
	WaveE     float64 // wavenumber-space energy
	SelfE     float64 // self-interaction correction
	TotalE    float64 // RealE + WaveE + SelfE
	NWaves    int     // number of half-space wavevectors used
	RealPairs int     // pairs evaluated in the real-space sum
	NetCharge float64 // Σ q (should be ~0; a neutralizing background is assumed)
}

// Compute evaluates the full Ewald Coulomb interaction (forces and energy)
// with float64 reference arithmetic. The real-space part sums every
// minimum-image pair within RCut (O(N²) scan — this is the validation oracle,
// not the production path). For non-neutral systems the uniform-background
// correction is NOT applied; Result.NetCharge exposes the imbalance.
func Compute(p Params, pos []vec.V, q []float64) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if len(pos) != len(q) {
		return Result{}, fmt.Errorf("ewald: %d positions vs %d charges", len(pos), len(q))
	}
	res := Result{Forces: make([]vec.V, len(pos))}
	for _, qi := range q {
		res.NetCharge += qi
	}

	// Real-space part, minimum image. Valid when RCut <= L/2; enforced here
	// because the oracle uses the single nearest image only.
	if p.RCut > p.L/2 {
		return Result{}, fmt.Errorf("ewald: reference real-space sum requires r_cut <= L/2 (got %g > %g)", p.RCut, p.L/2)
	}
	r2cut := p.RCut * p.RCut
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			rij := pos[i].Sub(pos[j]).MinImage(p.L)
			if rij.Norm2() >= r2cut {
				continue
			}
			f := p.RealPairForce(q[i], q[j], rij)
			res.Forces[i] = res.Forces[i].Add(f)
			res.Forces[j] = res.Forces[j].Sub(f)
			res.RealE += p.RealPairEnergy(q[i], q[j], rij)
			res.RealPairs++
		}
	}

	waves := Waves(p)
	res.NWaves = len(waves)
	s, c := StructureFactors(waves, pos, q)
	wf := WavenumberForces(p, waves, s, c, pos, q)
	for i := range res.Forces {
		res.Forces[i] = res.Forces[i].Add(wf[i])
	}
	res.WaveE = WavenumberEnergy(p, waves, s, c)
	res.SelfE = SelfEnergy(p, q)
	res.TotalE = res.RealE + res.WaveE + res.SelfE
	return res, nil
}
