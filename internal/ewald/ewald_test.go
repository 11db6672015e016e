package ewald

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mdm/internal/units"
	"mdm/internal/vec"
)

// rockSalt builds an nc×nc×nc block of NaCl conventional cells with
// lattice constant a. Charges alternate ±1. Returns positions, charges and
// the box side.
func rockSalt(nc int, a float64) (pos []vec.V, q []float64, l float64) {
	l = float64(nc) * a
	d := a / 2
	for cz := 0; cz < 2*nc; cz++ {
		for cy := 0; cy < 2*nc; cy++ {
			for cx := 0; cx < 2*nc; cx++ {
				pos = append(pos, vec.New(float64(cx)*d, float64(cy)*d, float64(cz)*d))
				if (cx+cy+cz)%2 == 0 {
					q = append(q, 1)
				} else {
					q = append(q, -1)
				}
			}
		}
	}
	return pos, q, l
}

func TestParamsValidate(t *testing.T) {
	good := Params{L: 10, Alpha: 5, RCut: 4, LKCut: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{L: 0, Alpha: 5, RCut: 4, LKCut: 4},
		{L: 10, Alpha: 0, RCut: 4, LKCut: 4},
		{L: 10, Alpha: 5, RCut: 0, LKCut: 4},
		{L: 10, Alpha: 5, RCut: 11, LKCut: 4},
		{L: 10, Alpha: 5, RCut: 4, LKCut: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestParamsForAlphaProducts(t *testing.T) {
	p := ParamsForAlpha(850, 85)
	if math.Abs(p.Alpha*p.RCut/p.L-SReal) > 1e-12 {
		t.Errorf("SReal product = %g", p.Alpha*p.RCut/p.L)
	}
	if math.Abs(math.Pi*p.LKCut/p.Alpha-SWave) > 1e-12 {
		t.Errorf("SWave product = %g", math.Pi*p.LKCut/p.Alpha)
	}
	// Table 4 current column: r_cut = 26.4 Å, Lk_cut = 63.9.
	if math.Abs(p.RCut-26.4) > 0.1 {
		t.Errorf("r_cut = %g, paper: 26.4", p.RCut)
	}
	if math.Abs(p.LKCut-63.9) > 0.3 {
		t.Errorf("Lk_cut = %g, paper: 63.9", p.LKCut)
	}
}

func TestWavesHalfSpace(t *testing.T) {
	p := Params{L: 10, Alpha: 6, RCut: 4, LKCut: 4.5}
	ws := Waves(p)
	seen := map[[3]int]bool{}
	for _, w := range ws {
		if seen[w.N] {
			t.Fatalf("duplicate wave %v", w.N)
		}
		seen[w.N] = true
		neg := [3]int{-w.N[0], -w.N[1], -w.N[2]}
		if seen[neg] {
			t.Fatalf("both %v and %v present", w.N, neg)
		}
		n2 := float64(w.N[0]*w.N[0] + w.N[1]*w.N[1] + w.N[2]*w.N[2])
		if n2 == 0 || n2 >= p.LKCut*p.LKCut {
			t.Fatalf("wave %v outside (0, Lk_cut)", w.N)
		}
		// k = n/L
		if math.Abs(w.K.X-float64(w.N[0])/p.L) > 1e-15 {
			t.Fatalf("K mismatch for %v", w.N)
		}
		// a_n = exp(-π²n²/α²)/k²
		wantA := math.Exp(-math.Pi*math.Pi*n2/(p.Alpha*p.Alpha)) / (n2 / (p.L * p.L))
		if math.Abs(w.A-wantA) > 1e-12*wantA {
			t.Fatalf("A mismatch for %v: %g vs %g", w.N, w.A, wantA)
		}
	}
	// Count ≈ N_wv (eq. 13). Lattice-count fluctuations are O(surface).
	want := p.NWv()
	if math.Abs(float64(len(ws))-want) > 0.2*want {
		t.Errorf("len(waves) = %d, N_wv formula = %g", len(ws), want)
	}
}

func TestWavesSortedDeterministic(t *testing.T) {
	p := Params{L: 10, Alpha: 6, RCut: 4, LKCut: 5}
	a := Waves(p)
	b := Waves(p)
	if len(a) != len(b) {
		t.Fatal("non-deterministic wave count")
	}
	for i := range a {
		if a[i].N != b[i].N {
			t.Fatalf("wave order differs at %d", i)
		}
	}
	key := func(w Wave) []int {
		return []int{w.N[0]*w.N[0] + w.N[1]*w.N[1] + w.N[2]*w.N[2], w.N[2], w.N[1], w.N[0]}
	}
	for i := 1; i < len(a); i++ {
		if slices.Compare(key(a[i-1]), key(a[i])) >= 0 {
			t.Fatalf("waves %v, %v at %d not in ascending (|n|², z, y, x) order", a[i-1].N, a[i].N, i)
		}
	}
}

// TestWavesSizedExactly: the wave set lives as long as its engine, so its
// backing array holds exactly its waves — over every Lk_cut in [0.5, 12) at
// step 0.01, where an estimated capacity falls short of the lattice count.
func TestWavesSizedExactly(t *testing.T) {
	short := 0
	for i := 50; i < 1200; i++ {
		ws := Waves(Params{L: 10, Alpha: 6, RCut: 4, LKCut: float64(i) / 100})
		if cap(ws) != len(ws) {
			if short++; short <= 3 {
				t.Errorf("Lk_cut %.2f: %d waves in a backing array of %d", float64(i)/100, len(ws), cap(ws))
			}
		}
	}
	if short > 3 {
		t.Errorf("%d of 1,150 cutoffs in all", short)
	}
}

func TestMadelungConstant(t *testing.T) {
	// Total Coulomb energy of rock salt is -M · k_e / d per ion pair with
	// M = 1.747565 (Madelung constant) and d the nearest-neighbor distance.
	const a = 5.64 // Å, NaCl lattice constant
	pos, q, l := rockSalt(2, a)
	p := Params{L: l, Alpha: 7.0, RCut: l / 2, LKCut: 7.0 * SWave / math.Pi}
	res, err := Compute(p, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	pairs := float64(len(pos) / 2)
	perPair := res.TotalE / pairs
	madelung := -perPair * (a / 2) / units.Coulomb
	if math.Abs(madelung-1.747565) > 2e-3 {
		t.Errorf("Madelung constant = %.6f, want 1.747565", madelung)
	}
	// Forces on a perfect lattice vanish by symmetry.
	if f := vec.MaxNorm(res.Forces); f > 1e-4 {
		t.Errorf("max force on perfect crystal = %g, want ~0", f)
	}
	if res.NetCharge != 0 {
		t.Errorf("net charge = %g", res.NetCharge)
	}
}

func TestAlphaIndependence(t *testing.T) {
	// The Ewald total (real + wave + self) must not depend on α up to
	// truncation error. This is the strongest internal consistency check.
	rng := rand.New(rand.NewSource(11))
	const l = 12.0
	const n = 32
	pos := make([]vec.V, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
		if i%2 == 0 {
			q[i] = 1
		} else {
			q[i] = -1
		}
	}
	pa := Params{L: l, Alpha: 6, RCut: l / 2, LKCut: 6 * SWave / math.Pi}
	pb := Params{L: l, Alpha: 9, RCut: l / 2 * 0.9, LKCut: 9 * SWave / math.Pi}
	ra, err := Compute(pa, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Compute(pb, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	scale := math.Abs(ra.TotalE)
	if d := math.Abs(ra.TotalE - rb.TotalE); d > 2e-3*scale {
		t.Errorf("energy α-dependence: %g vs %g (Δ=%g)", ra.TotalE, rb.TotalE, d)
	}
	fscale := vec.RMS(ra.Forces)
	for i := range ra.Forces {
		if d := ra.Forces[i].Sub(rb.Forces[i]).Norm(); d > 5e-3*fscale {
			t.Errorf("force α-dependence on %d: Δ=%g (scale %g)", i, d, fscale)
		}
	}
}

func TestForceIsEnergyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const l = 10.0
	const n = 16
	pos := make([]vec.V, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
		if i%2 == 0 {
			q[i] = 1
		} else {
			q[i] = -1
		}
	}
	p := Params{L: l, Alpha: 6, RCut: l / 2, LKCut: 6 * SWave / math.Pi}
	res, err := Compute(p, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	// Central difference on particle 0, x component.
	const h = 1e-5
	energyAt := func(dx float64) float64 {
		p2 := append([]vec.V(nil), pos...)
		p2[0] = p2[0].Add(vec.New(dx, 0, 0))
		r, err := Compute(p, p2, q)
		if err != nil {
			t.Fatal(err)
		}
		return r.TotalE
	}
	grad := (energyAt(h) - energyAt(-h)) / (2 * h)
	want := -grad
	got := res.Forces[0].X
	if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
		t.Errorf("F_x = %g, -dE/dx = %g", got, want)
	}
}

func TestNewtonThirdLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const l = 9.0
	pos := make([]vec.V, 20)
	q := make([]float64, 20)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
		q[i] = float64(1 - 2*(i%2))
	}
	p := Params{L: l, Alpha: 6, RCut: l / 2, LKCut: 5}
	res, err := Compute(p, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	total := vec.Sum(res.Forces)
	if total.Norm() > 1e-9*float64(len(pos))*vec.RMS(res.Forces) {
		t.Errorf("net force = %v, want ~0", total)
	}
}

func TestStructureFactorsLinearity(t *testing.T) {
	p := Params{L: 8, Alpha: 5, RCut: 4, LKCut: 4}
	waves := Waves(p)
	pos := []vec.V{vec.New(1, 2, 3), vec.New(4, 5, 6)}
	q := []float64{1, -1}
	s1, c1 := StructureFactors(waves, pos, q)
	q2 := []float64{2, -2}
	s2, c2 := StructureFactors(waves, pos, q2)
	for w := range waves {
		if math.Abs(s2[w]-2*s1[w]) > 1e-12 || math.Abs(c2[w]-2*c1[w]) > 1e-12 {
			t.Fatalf("structure factors not linear in charge at wave %d", w)
		}
	}
	s0, c0 := StructureFactors(waves, pos, []float64{0, 0})
	for w := range waves {
		if s0[w] != 0 || c0[w] != 0 {
			t.Fatalf("zero charges gave non-zero structure factor at %d", w)
		}
	}
}

func TestSelfEnergyNegative(t *testing.T) {
	p := Params{L: 10, Alpha: 6, RCut: 5, LKCut: 4}
	e := SelfEnergy(p, []float64{1, -1, 1, -1})
	if e >= 0 {
		t.Errorf("self energy = %g, want negative", e)
	}
	want := -units.Coulomb * 6 / (math.SqrtPi * 10) * 4
	if math.Abs(e-want) > 1e-12*math.Abs(want) {
		t.Errorf("self energy = %g, want %g", e, want)
	}
}

func TestComputeErrors(t *testing.T) {
	p := Params{L: 10, Alpha: 6, RCut: 5, LKCut: 4}
	if _, err := Compute(p, make([]vec.V, 3), make([]float64, 2)); err == nil {
		t.Error("length mismatch accepted")
	}
	p.RCut = 6 // > L/2
	if _, err := Compute(p, make([]vec.V, 2), make([]float64, 2)); err == nil {
		t.Error("r_cut > L/2 accepted by the minimum-image oracle")
	}
}

func TestDirectForcesAgreeOnDimer(t *testing.T) {
	// Two opposite charges far from the box edges: the nearest-image term
	// dominates; Ewald and the direct image sum must agree on the force.
	l := 40.0
	pos := []vec.V{vec.New(19, 20, 20), vec.New(21.5, 20, 20)}
	q := []float64{1, -1}
	p := Params{L: l, Alpha: 8, RCut: l / 2 * 0.9, LKCut: 8 * SWave / math.Pi}
	res, err := Compute(p, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	direct := DirectForces(l, pos, q, 6)
	// Attraction along +x on particle 0.
	if res.Forces[0].X <= 0 {
		t.Errorf("force not attractive: %v", res.Forces[0])
	}
	d := res.Forces[0].Sub(direct[0]).Norm()
	if d > 2e-2*direct[0].Norm() {
		t.Errorf("Ewald vs direct force differ: %v vs %v", res.Forces[0], direct[0])
	}
}

func TestNIntFormulas(t *testing.T) {
	// Table 4, current column: ρ = 1.88e7/850³, r_cut = 26.4 → N_int_g = 1.52e4.
	density := 1.88e7 / (850.0 * 850.0 * 850.0)
	p := Params{L: 850, Alpha: 85, RCut: 26.4, LKCut: 63.9}
	if got := p.NIntG(density); math.Abs(got-1.52e4) > 0.02e4 {
		t.Errorf("N_int_g = %g, paper: 1.52e4", got)
	}
	if got := p.NWv(); math.Abs(got-5.46e5) > 0.02e5 {
		t.Errorf("N_wv = %g, paper: 5.46e5", got)
	}
	// Conventional column: r_cut = 74.4 → N_int = 2.65e4, Lk_cut=22.7 → N_wv = 2.44e4.
	pc := Params{L: 850, Alpha: 30.1, RCut: 74.4, LKCut: 22.7}
	if got := pc.NInt(density); math.Abs(got-2.65e4) > 0.03e4 {
		t.Errorf("N_int = %g, paper: 2.65e4", got)
	}
	if got := pc.NWv(); math.Abs(got-2.44e4) > 0.03e4 {
		t.Errorf("N_wv = %g, paper: 2.44e4", got)
	}
}

func TestOptimalAlphaConventional(t *testing.T) {
	density := 1.88e7 / (850.0 * 850.0 * 850.0)
	alpha := ConventionalCost().OptimalAlpha(850, density)
	if math.Abs(alpha-30.1) > 0.5 {
		t.Errorf("conventional optimal α = %g, paper: 30.1", alpha)
	}
}

func TestOptimalAlphaMDM(t *testing.T) {
	density := 1.88e7 / (850.0 * 850.0 * 850.0)
	// Current MDM: 27-cell geometry, 1 Tflops MDGRAPE-2 vs 45 Tflops WINE-2.
	cur := CostModel{RealGeom: GeomCell27, SpeedReal: 1e12, SpeedWave: 45e12}
	a := cur.OptimalAlpha(850, density)
	if a < 75 || a > 95 {
		t.Errorf("current MDM optimal α = %g, paper: 85", a)
	}
	// Future MDM: 25 vs 54 Tflops.
	fut := CostModel{RealGeom: GeomCell27, SpeedReal: 25e12, SpeedWave: 54e12}
	af := fut.OptimalAlpha(850, density)
	if af < 45 || af > 58 {
		t.Errorf("future MDM optimal α = %g, paper: 50.3", af)
	}
	// At the optimum the weighted costs balance.
	p := cur.BalancedParams(850, density)
	re, wn := cur.StepFlops(p, 1.88e7, density)
	if r := (re / cur.SpeedReal) / (wn / cur.SpeedWave); math.Abs(r-1) > 1e-6 {
		t.Errorf("weighted costs not balanced at optimum: ratio %g", r)
	}
}

func TestStepFlopsTable4(t *testing.T) {
	const n = 18821096 // paper's particle count (9,410,548 pairs)
	density := float64(n) / (850.0 * 850.0 * 850.0)
	// Current MDM column.
	p := Params{L: 850, Alpha: 85, RCut: 26.4, LKCut: 63.9}
	m := CostModel{RealGeom: GeomCell27, SpeedReal: 1, SpeedWave: 1}
	re, wn := m.StepFlops(p, n, density)
	if math.Abs(re-1.69e13) > 0.05e13 {
		t.Errorf("real flops = %g, paper: 1.69e13", re)
	}
	if math.Abs(wn-6.58e14) > 0.05e14 {
		t.Errorf("wave flops = %g, paper: 6.58e14", wn)
	}
}

func BenchmarkStructureFactors(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const l = 20.0
	pos := make([]vec.V, 500)
	q := make([]float64, 500)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
		q[i] = float64(1 - 2*(i%2))
	}
	p := Params{L: l, Alpha: 8, RCut: 9, LKCut: 8}
	waves := Waves(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StructureFactors(waves, pos, q)
	}
}

func BenchmarkComputeReference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const l = 15.0
	pos := make([]vec.V, 200)
	q := make([]float64, 200)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
		q[i] = float64(1 - 2*(i%2))
	}
	p := Params{L: l, Alpha: 7, RCut: 7, LKCut: 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(p, pos, q); err != nil {
			b.Fatal(err)
		}
	}
}

// DirectForces computes Coulomb forces by brute-force summation over real
// periodic images out to the given number of image shells, with no Ewald
// splitting. It converges slowly (conditionally) and is only useful as an
// independent oracle for small, neutral systems.
func DirectForces(l float64, pos []vec.V, q []float64, shells int) []vec.V {
	f := make([]vec.V, len(pos))
	for i := range pos {
		for j := range pos {
			for sx := -shells; sx <= shells; sx++ {
				for sy := -shells; sy <= shells; sy++ {
					for sz := -shells; sz <= shells; sz++ {
						if i == j && sx == 0 && sy == 0 && sz == 0 {
							continue
						}
						shift := vec.New(float64(sx)*l, float64(sy)*l, float64(sz)*l)
						rij := pos[i].Sub(pos[j].Add(shift))
						r2 := rij.Norm2()
						r := math.Sqrt(r2)
						f[i] = f[i].Add(rij.Scale(units.Coulomb * q[i] * q[j] / (r2 * r)))
					}
				}
			}
		}
	}
	return f
}
