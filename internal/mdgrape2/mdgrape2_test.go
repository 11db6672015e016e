package mdgrape2

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mdm/internal/cellindex"
	"mdm/internal/ewald"
	"mdm/internal/tosifumi"
	"mdm/internal/units"
	"mdm/internal/vec"
)

// ewaldG is the real-space Coulomb kernel of §3.5.4.
func ewaldG(x float64) float64 {
	return 2*math.Exp(-x)/(math.SqrtPi*x) + math.Erfc(math.Sqrt(x))/(x*math.Sqrt(x))
}

func TestConfigInventory(t *testing.T) {
	cur := CurrentConfig()
	if got := cur.Chips(); got != 64 {
		t.Errorf("current chips = %d, paper: 64", got)
	}
	if got := cur.Pipelines(); got != 256 {
		t.Errorf("current pipelines = %d, want 256", got)
	}
	// "Peak performance of an MDGRAPE-2 chip corresponds to about 16 Gflops
	// at a clock frequency of 100 MHz" → 64 chips ≈ 1 Tflops.
	peak := cur.PeakFlops()
	if peak < 0.9e12 || peak > 1.2e12 {
		t.Errorf("current peak = %g, paper: ~1 Tflops", peak)
	}
	fut := FutureConfig()
	if got := fut.Chips(); got != 1536 {
		t.Errorf("future chips = %d, paper: 1,536", got)
	}
	if p := fut.PeakFlops(); p < 22e12 || p > 27e12 {
		t.Errorf("future peak = %g, paper: ~25 Tflops", p)
	}
	if cur.ParticleCapacity() != (8<<20)/16 {
		t.Errorf("particle capacity = %d", cur.ParticleCapacity())
	}
}

func TestConfigValidate(t *testing.T) {
	bad := CurrentConfig()
	bad.Clusters = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero clusters accepted")
	}
	bad = CurrentConfig()
	bad.ClockHz = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero clock accepted")
	}
	if _, err := NewSystem(bad); err == nil {
		t.Error("NewSystem accepted invalid config")
	}
}

func TestPairwiseAccuracy(t *testing.T) {
	// §3.5.4: "The relative accuracy of a pairwise force is about 1e-7."
	sys, err := NewSystem(CurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadTable("ewald", ewaldG, -16, 8); err != nil {
		t.Fatal(err)
	}
	tbl, _ := sys.Table("ewald")
	rng := rand.New(rand.NewSource(42))
	worst := 0.0
	for trial := 0; trial < 2000; trial++ {
		dx := float32(rng.Float64()*4 - 2)
		dy := float32(rng.Float64()*4 - 2)
		dz := float32(rng.Float64()*4 - 2)
		a := float32(0.05 + rng.Float64()*0.3)
		b := float32(1 - 2*float64(rng.Intn(2)))
		fx, fy, fz := pairForce(tbl, a, b, dx, dy, dz)
		// Exact kernel on the same float32 inputs.
		r2 := float64(dx)*float64(dx) + float64(dy)*float64(dy) + float64(dz)*float64(dz)
		if r2 < 1e-4 {
			continue
		}
		x := float64(a) * r2
		bg := float64(b) * ewaldG(x)
		wantX := bg * float64(dx)
		scale := math.Abs(bg) * math.Sqrt(r2)
		if scale == 0 {
			continue
		}
		if e := math.Abs(float64(fx)-wantX) / scale; e > worst {
			worst = e
		}
		_ = fy
		_ = fz
	}
	if worst > 1e-6 {
		t.Errorf("worst pairwise relative error = %g, paper: ~1e-7", worst)
	}
	if worst == 0 {
		t.Error("zero error is implausible for single-precision hardware")
	}
	t.Logf("worst pairwise relative error = %.2e (paper: ~1e-7)", worst)
}

// naclSystem builds a random neutral two-species system.
func naclSystem(n int, l float64, seed int64) (pos []vec.V, types []int, q []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos = make([]vec.V, n)
	types = make([]int, n)
	q = make([]float64, n)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
		types[i] = i % 2
		q[i] = float64(1 - 2*(i%2))
	}
	return pos, types, q
}

// coulombCoeffs builds the Coulomb real-space coefficient RAM:
// a_ij = α²/L², b_ij = q_i·q_j (the q_i factor folded into b so the tables
// stay symmetric; the host scale carries k_e·α³/L³).
func coulombCoeffs(p ewald.Params) *Coeffs {
	a := p.Alpha * p.Alpha / (p.L * p.L)
	co, _ := NewCoeffs(2, a, 0)
	co.Set(0, 0, a, 1)
	co.Set(0, 1, a, -1)
	co.Set(1, 1, a, 1)
	return co
}

func TestRealSpaceCoulombVsFloat64SamePairs(t *testing.T) {
	const l = 14.0
	const n = 160
	pos, types, q := naclSystem(n, l, 9)
	p := ewald.Params{L: l, Alpha: 7, RCut: 4.5, LKCut: 5}

	sys, err := NewSystem(CurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadTable("ewald", ewaldG, -20, 8); err != nil {
		t.Fatal(err)
	}
	grid, err := cellindex.NewGrid(l, p.RCut)
	if err != nil {
		t.Fatal(err)
	}
	js, err := NewJSet(grid, pos, types)
	if err != nil {
		t.Fatal(err)
	}
	scale := make([]float64, n)
	pref := units.Coulomb * math.Pow(p.Alpha/p.L, 3)
	for i := range scale {
		scale[i] = pref
	}
	got, err := sys.ComputeForces("ewald", coulombCoeffs(p), pos, types, scale, js)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: identical pair walk in float64 with the exact kernel, cut at
	// the grid's r_cut like the pipelines.
	want := make([]vec.V, n)
	sorted := js.Sorted
	for i := range pos {
		ci := grid.CellOf(pos[i])
		var acc vec.V
		for _, nb := range grid.Neighbors(ci) {
			jstart, jend := sorted.CellRange(nb.Cell)
			for j := jstart; j < jend; j++ {
				rij := pos[i].Sub(sorted.At(j).Add(nb.Shift))
				r2 := rij.Norm2()
				if r2 == 0 || r2 >= p.RCut*p.RCut {
					continue
				}
				x := p.Alpha * p.Alpha / (p.L * p.L) * r2
				qj := q[sorted.Order[j]]
				acc = acc.Add(rij.Scale(q[i] * qj * ewaldG(x)))
			}
		}
		want[i] = acc.Scale(pref)
	}
	fscale := vec.RMS(want)
	for i := range got {
		if d := got[i].Sub(want[i]).Norm(); d > 2e-5*fscale {
			t.Errorf("particle %d: hardware %v vs float64 %v (Δ %g, scale %g)", i, got[i], want[i], d, fscale)
		}
	}
}

func TestRealSpaceCoulombVsEwaldReference(t *testing.T) {
	// Against an independent minimum-image real-space oracle with the r_cut
	// test the sweep applies too.
	const l = 14.0
	const n = 160
	pos, types, q := naclSystem(n, l, 5)
	p := ewald.Params{L: l, Alpha: 2.633 * l / 4.5, RCut: 4.5, LKCut: 2}

	sys, _ := NewSystem(CurrentConfig())
	if err := sys.LoadTable("ewald", ewaldG, -20, 8); err != nil {
		t.Fatal(err)
	}
	grid, _ := cellindex.NewGrid(l, p.RCut)
	js, _ := NewJSet(grid, pos, types)
	scale := make([]float64, n)
	pref := units.Coulomb * math.Pow(p.Alpha/p.L, 3)
	for i := range scale {
		scale[i] = pref
	}
	got, err := sys.ComputeForces("ewald", coulombCoeffs(p), pos, types, scale, js)
	if err != nil {
		t.Fatal(err)
	}

	// Reference real-space force: pairs within RCut, Newton's third law.
	want := make([]vec.V, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			rij := pos[i].Sub(pos[j]).MinImage(l)
			if rij.Norm() >= p.RCut {
				continue
			}
			f := p.RealPairForce(q[i], q[j], rij)
			want[i] = want[i].Add(f)
			want[j] = want[j].Sub(f)
		}
	}
	fscale := vec.RMS(want)
	for i := range got {
		if d := got[i].Sub(want[i]).Norm(); d > 2e-3*fscale {
			t.Errorf("particle %d: hardware %v vs reference %v (Δ %g)", i, got[i], want[i], d)
		}
	}
}

// ljG is the paper's eq.-4 van der Waals kernel as MDGRAPE-2 evaluates it
// (§3.5.4): g(x) = 2x⁻⁷ − x⁻⁴, loaded with a_ij = σ⁻² and b_ij = ε.
func ljG(x float64) float64 {
	if x <= 0 {
		return 0
	}
	x2 := x * x
	x4 := x2 * x2
	return 2/(x4*x2*x) - 1/x4
}

// ljForce is eq. 4's pair term on particle i for rij = r_i − r_j:
// ε { 2 [σ/r]¹⁴ − [σ/r]⁸ } r⃗_ij.
func ljForce(eps, sigma float64, rij vec.V) vec.V {
	return rij.Scale(eps * ljG(rij.Norm2()/(sigma*sigma)))
}

// ljEnergy is the pair potential eq. 4 derives from,
// φ(r) = (ε σ²/6) [(σ/r)¹² − (σ/r)⁶] (ε in energy/length²).
func ljEnergy(eps, sigma, r float64) float64 {
	if r <= 0 {
		return math.Inf(1)
	}
	sr6 := math.Pow(sigma/r, 6)
	return eps * sigma * sigma / 6 * (sr6*sr6 - sr6)
}

func TestLJGKernel(t *testing.T) {
	if ljG(0) != 0 || ljG(-1) != 0 {
		t.Error("g at non-positive x should be 0")
	}
	if got := ljG(1); got != 1 {
		t.Errorf("g(1) = %g, want 2-1 = 1", got)
	}
	// Zero crossing at x = 2^(1/3).
	if x0 := math.Pow(2, 1.0/3.0); math.Abs(ljG(x0)) > 1e-12 {
		t.Errorf("g(2^(1/3)) = %g, want 0", ljG(x0))
	}
}

func TestLJForceMatchesPaperForm(t *testing.T) {
	const eps, sigma = 0.4, 2.5
	for _, r := range []float64{2.0, 2.5, 2.8, 3.5, 5.0} {
		f := ljForce(eps, sigma, vec.New(r, 0, 0))
		sr := sigma / r
		want := eps * (2*math.Pow(sr, 14) - math.Pow(sr, 8)) * r // x component
		if math.Abs(f.X-want) > 1e-12*(1+math.Abs(want)) {
			t.Errorf("r=%g: F_x = %g, eq.4 gives %g", r, f.X, want)
		}
		if f.Y != 0 || f.Z != 0 {
			t.Errorf("r=%g: transverse force %v", r, f)
		}
	}
}

func TestLJForceIsEnergyGradient(t *testing.T) {
	const eps, sigma = 0.25, 3.2
	const h = 1e-6
	for _, r := range []float64{2.8, 3.2, 3.6, 4.5, 6.0} {
		grad := (ljEnergy(eps, sigma, r+h) - ljEnergy(eps, sigma, r-h)) / (2 * h)
		want := -grad
		got := ljForce(eps, sigma, vec.New(r, 0, 0)).X
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("r=%g: F = %g, -φ' = %g", r, got, want)
		}
	}
}

func TestLJMinimumDistance(t *testing.T) {
	const eps, sigma = 1.0, 3.0
	r0 := math.Pow(2, 1.0/6.0) * sigma
	// Force vanishes there.
	if f := ljForce(eps, sigma, vec.New(r0, 0, 0)); math.Abs(f.X) > 1e-12 {
		t.Errorf("force at minimum = %g", f.X)
	}
	// Energy is the well minimum: lower than neighbors.
	e0 := ljEnergy(eps, sigma, r0)
	if ljEnergy(eps, sigma, r0*0.95) <= e0 || ljEnergy(eps, sigma, r0*1.05) <= e0 {
		t.Error("energy not minimal at r0")
	}
}

// Property: force is repulsive inside r0 and attractive outside.
func TestLJForceSignProperty(t *testing.T) {
	const eps, sigma = 0.7, 2.9
	r0 := math.Pow(2, 1.0/6.0) * sigma
	f := func(u float64) bool {
		u = math.Abs(math.Mod(u, 3)) + 0.1 // r in [0.29, 9] σ-ish
		r := u * sigma
		s := ljForce(eps, sigma, vec.New(r, 0, 0)).X
		if r < r0 {
			return s > 0
		}
		return s <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLJEnergyAtContact(t *testing.T) {
	if !math.IsInf(ljEnergy(1, 1, 0), 1) {
		t.Error("energy at r=0 should be +Inf")
	}
	if ljForce(1, 1, vec.Zero) != vec.Zero {
		t.Error("force at zero displacement should be zero")
	}
}

func TestVDWMatchesLJ(t *testing.T) {
	const l = 16.0
	const n = 120
	rng := rand.New(rand.NewSource(17))
	pos := make([]vec.V, n)
	types := make([]int, n)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
		types[i] = i % 2
	}
	const eps, sigma = 0.05, 2.8
	sigmas := [2][2]float64{{sigma, sigma * 1.1}, {sigma * 1.1, sigma * 1.2}}

	sys, _ := NewSystem(CurrentConfig())
	if err := sys.LoadTable("lj", ljG, -6, 10); err != nil {
		t.Fatal(err)
	}
	co, _ := NewCoeffs(2, 0, 0)
	for i := 0; i < 2; i++ {
		for j := i; j < 2; j++ {
			sg := sigmas[i][j]
			co.Set(i, j, 1/(sg*sg), eps)
		}
	}
	grid, _ := cellindex.NewGrid(l, 4.0)
	js, _ := NewJSet(grid, pos, types)
	got, err := sys.ComputeForces("lj", co, pos, types, nil, js)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: same pair walk inside the grid's cutoff, eq. 4 in float64.
	want := make([]vec.V, n)
	sorted := js.Sorted
	for i := range pos {
		ci := grid.CellOf(pos[i])
		var acc vec.V
		for _, nb := range grid.Neighbors(ci) {
			jstart, jend := sorted.CellRange(nb.Cell)
			for j := jstart; j < jend; j++ {
				rij := pos[i].Sub(sorted.At(j).Add(nb.Shift))
				if rij.Norm2() >= grid.Cutoff*grid.Cutoff {
					continue
				}
				acc = acc.Add(ljForce(eps, sigmas[types[i]][js.Types[j]], rij))
			}
		}
		want[i] = acc
	}
	fscale := vec.RMS(want)
	for i := range got {
		if d := got[i].Sub(want[i]).Norm(); d > 1e-4*fscale {
			t.Errorf("particle %d: vdW %v vs lj %v", i, got[i], want[i])
		}
	}
}

func TestTosiFumiShortRange(t *testing.T) {
	// The NaCl short-range force through per-pair tables: since a_ij = 1 and
	// the Na-Cl pair kernels differ, load one table per pair and compute
	// per-species contributions in three calls with b selecting the pair.
	pot := tosifumi.Default()
	const l = 12.0
	pos := []vec.V{vec.New(3, 3, 3), vec.New(5.8, 3, 3), vec.New(3, 6.2, 3)}
	types := []int{0, 1, 0}

	sys, _ := NewSystem(CurrentConfig())
	// One table per unordered species pair; b_ij = 1 on the pair, 0 elsewhere.
	names := map[string][2]int{"nana": {0, 0}, "nacl": {0, 1}, "clcl": {1, 1}}
	for name, pair := range names {
		g := pot.GFunc(tosifumi.Species(pair[0]), tosifumi.Species(pair[1]))
		if err := sys.LoadTable(name, g, -4, 10); err != nil {
			t.Fatal(err)
		}
	}
	grid, _ := cellindex.NewGrid(l, 4.0)
	js, _ := NewJSet(grid, pos, types)

	total := make([]vec.V, len(pos))
	for name, pair := range names {
		co, _ := NewCoeffs(2, 1, 0)
		co.Set(pair[0], pair[1], 1, 1)
		if pair[0] != pair[1] {
			co.Set(pair[0], pair[0], 1, 0)
			co.Set(pair[1], pair[1], 1, 0)
		} else {
			other := 1 - pair[0]
			co.Set(pair[0], other, 1, 0)
			co.Set(other, other, 1, 0)
		}
		f, err := sys.ComputeForces(name, co, pos, types, nil, js)
		if err != nil {
			t.Fatal(err)
		}
		for i := range total {
			total[i] = total[i].Add(f[i])
		}
	}

	// Oracle: direct evaluation inside the grid's 4 Å cutoff (particles 1
	// and 2, 4.25 Å apart, do not interact).
	want := make([]vec.V, len(pos))
	for i := range pos {
		for j := range pos {
			if i == j {
				continue
			}
			rij := pos[i].Sub(pos[j]).MinImage(l)
			if rij.Norm() >= 4.0 {
				continue
			}
			want[i] = want[i].Add(pot.ShortForce(tosifumi.Species(types[i]), tosifumi.Species(types[j]), rij))
		}
	}
	for i := range total {
		if d := total[i].Sub(want[i]).Norm(); d > 1e-4*(1+want[i].Norm()) {
			t.Errorf("particle %d: %v vs %v", i, total[i], want[i])
		}
	}
}

func TestSelfPairContributesNothing(t *testing.T) {
	sys, _ := NewSystem(CurrentConfig())
	if err := sys.LoadTable("ewald", ewaldG, -16, 8); err != nil {
		t.Fatal(err)
	}
	pos := []vec.V{vec.New(5, 5, 5)}
	types := []int{0}
	grid, _ := cellindex.NewGrid(20, 5)
	js, _ := NewJSet(grid, pos, types)
	co, _ := NewCoeffs(1, 0.25, 1)
	f, err := sys.ComputeForces("ewald", co, pos, types, nil, js)
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != vec.Zero {
		t.Errorf("single particle force = %v, want zero", f[0])
	}
}

func TestParticleMemoryCapacity(t *testing.T) {
	cfg := CurrentConfig()
	cfg.ParticleMemBytes = 10 * cfg.BytesPerParticle // capacity: 10 particles
	sys, _ := NewSystem(cfg)
	if err := sys.LoadTable("g", func(x float64) float64 { return 1 / x }, -4, 4); err != nil {
		t.Fatal(err)
	}
	pos, types, _ := naclSystem(11, 10, 1)
	grid, _ := cellindex.NewGrid(10, 3)
	js, _ := NewJSet(grid, pos, types)
	co, _ := NewCoeffs(2, 1, 1)
	if _, err := sys.ComputeForces("g", co, pos, types, nil, js); err == nil {
		t.Error("capacity overflow accepted")
	}
}

func TestComputeForcesValidation(t *testing.T) {
	sys, _ := NewSystem(CurrentConfig())
	pos, types, _ := naclSystem(8, 10, 1)
	grid, _ := cellindex.NewGrid(10, 3)
	js, _ := NewJSet(grid, pos, types)
	co, _ := NewCoeffs(2, 1, 1)
	if _, err := sys.ComputeForces("missing", co, pos, types, nil, js); err == nil {
		t.Error("missing table accepted")
	}
	if err := sys.LoadTable("g", func(x float64) float64 { return 1 / x }, -4, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ComputeForces("g", co, pos, types[:4], nil, js); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := sys.ComputeForces("g", co, pos, types, make([]float64, 3), js); err == nil {
		t.Error("scale length mismatch accepted")
	}
	badTypes := append([]int(nil), types...)
	badTypes[0] = 5
	if _, err := sys.ComputeForces("g", co, pos, badTypes, nil, js); err == nil {
		t.Error("out-of-range type accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	sys, _ := NewSystem(CurrentConfig())
	if err := sys.LoadTable("g", func(x float64) float64 { return math.Exp(-x) }, -8, 8); err != nil {
		t.Fatal(err)
	}
	const l = 12.0
	pos, types, _ := naclSystem(200, l, 3)
	grid, _ := cellindex.NewGrid(l, 3)
	js, _ := NewJSet(grid, pos, types)
	co, _ := NewCoeffs(2, 1, 1)
	if _, err := sys.ComputeForces("g", co, pos, types, nil, js); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Calls != 1 || st.IParticles != 200 {
		t.Errorf("stats = %+v", st)
	}
	// Pair count must equal the cell-index ordered pair count (N·N_int_g).
	if want := int64(js.Sorted.OrderedPairCount()); st.PairsEvaluated != want {
		t.Errorf("pairs = %d, ordered pair count = %d", st.PairsEvaluated, want)
	}
	// Compute time at 256 pipelines × 100 MHz.
	dt := sys.ComputeTime(st.PairsEvaluated)
	want := float64(st.PairsEvaluated) / (256 * 100e6)
	if math.Abs(dt-want) > 1e-18 {
		t.Errorf("ComputeTime = %g, want %g", dt, want)
	}
	sys.ResetStats()
	if sys.Stats() != (Stats{}) {
		t.Error("ResetStats did not clear")
	}
}

func TestNewJSetValidation(t *testing.T) {
	grid, _ := cellindex.NewGrid(10, 3)
	if _, err := NewJSet(grid, make([]vec.V, 3), make([]int, 2)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestNewCoeffsValidation(t *testing.T) {
	if _, err := NewCoeffs(0, 1, 1); err == nil {
		t.Error("0 types accepted")
	}
	if _, err := NewCoeffs(MaxTypes+1, 1, 1); err == nil {
		t.Error("33 types accepted")
	}
	co, err := NewCoeffs(MaxTypes, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if co.A[31][31] != 2 || co.B[0][31] != 3 {
		t.Error("uniform fill wrong")
	}
	co.Set(1, 2, 5, 6)
	if co.A[2][1] != 5 || co.B[2][1] != 6 {
		t.Error("Set not symmetric")
	}
}

func TestMR1Lifecycle(t *testing.T) {
	m, err := NewMR1(CurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(); err == nil {
		t.Error("Init before AllocateBoards accepted")
	}
	if err := m.AllocateBoards(99); err == nil {
		t.Error("allocating more boards than the machine has accepted")
	}
	if err := m.AllocateBoards(4); err != nil {
		t.Fatal(err)
	}
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	if m.System().Config().Boards() != 4 {
		t.Errorf("acquired boards = %d, want 4", m.System().Config().Boards())
	}
	if err := m.Init(); err == nil {
		t.Error("double Init accepted")
	}
	if err := m.SetTable("g", func(x float64) float64 { return 1 / x }, -4, 4); err != nil {
		t.Fatal(err)
	}
	pos, types, _ := naclSystem(20, 10, 2)
	grid, _ := cellindex.NewGrid(10, 3)
	js, _ := NewJSet(grid, pos, types)
	co, _ := NewCoeffs(2, 1, 1)
	if _, err := m.CalcVDWBlock2("g", co, pos, types, nil, js); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(); err == nil {
		t.Error("double Free accepted")
	}
	if _, err := m.CalcVDWBlock2("g", co, pos, types, nil, js); err == nil {
		t.Error("calc after Free accepted")
	}
	// Odd board count exercises the partial-cluster path.
	if err := m.AllocateBoards(3); err != nil {
		t.Fatal(err)
	}
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	if m.System().Config().Boards() != 3 {
		t.Errorf("acquired boards = %d, want 3", m.System().Config().Boards())
	}
}

// TestLoadTableSurfacesDomainErrors: the power-of-two span widening can push
// the table top past the float32 range; the evaluator refuses such a domain
// and LoadTable reports it under the table's name.
func TestLoadTableSurfacesDomainErrors(t *testing.T) {
	sys, _ := NewSystem(CurrentConfig())
	inv := func(x float64) float64 { return 1 / x }
	for _, d := range [][2]int{
		{100, 125},   // span 25 widens to 32: top 2^132
		{-130, -120}, // bottom below the float32 normal range
	} {
		err := sys.LoadTable("wide", inv, d[0], d[1])
		if err == nil || !strings.Contains(err.Error(), `table "wide"`) || !strings.Contains(err.Error(), "float32 normal range") {
			t.Errorf("LoadTable(2^%d, 2^%d) = %v, want the float32-range rejection for table \"wide\"", d[0], d[1], err)
		}
		if _, err := sys.Table("wide"); err == nil {
			t.Error("rejected table was stored")
		}
	}
	if err := sys.LoadTable("edge", inv, 95, 127); err != nil {
		t.Errorf("table reaching exactly 2^127 rejected: %v", err)
	}
}

func TestMR1BeforeInitErrors(t *testing.T) {
	m, _ := NewMR1(CurrentConfig())
	if err := m.SetTable("g", func(x float64) float64 { return x }, 0, 4); err == nil {
		t.Error("SetTable before Init accepted")
	}
	if err := m.Free(); err == nil {
		t.Error("Free before Init accepted")
	}
	if _, err := NewMR1(Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func BenchmarkComputeForces(b *testing.B) {
	sys, _ := NewSystem(CurrentConfig())
	if err := sys.LoadTable("ewald", ewaldG, -20, 8); err != nil {
		b.Fatal(err)
	}
	const l = 20.0
	pos, types, _ := naclSystem(1000, l, 1)
	p := ewald.Params{L: l, Alpha: 10, RCut: 4.0, LKCut: 5}
	grid, _ := cellindex.NewGrid(l, p.RCut)
	js, _ := NewJSet(grid, pos, types)
	co := coulombCoeffs(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ComputeForces("ewald", co, pos, types, nil, js); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPerParticleChargeFieldCoulomb(t *testing.T) {
	// The hardware reads q_j from particle memory (§3.5.2). Computing the
	// real-space Coulomb force with b_ij = 1 and the charge field carrying
	// q_j must agree with the type-encoded-b path used elsewhere.
	const l = 12.0
	const n = 120
	pos, types, q := naclSystem(n, l, 41)
	p := ewald.Params{L: l, Alpha: 6, RCut: 4, LKCut: 4}
	sys, _ := NewSystem(CurrentConfig())
	if err := sys.LoadTable("ewald", ewaldG, -20, 8); err != nil {
		t.Fatal(err)
	}
	grid, _ := cellindex.NewGrid(l, p.RCut)

	// Path A: type-encoded b = q_i q_j (existing convention).
	jsA, _ := NewJSet(grid, pos, types)
	pref := units.Coulomb * math.Pow(p.Alpha/p.L, 3)
	scaleA := make([]float64, n)
	for i := range scaleA {
		scaleA[i] = pref
	}
	fa, err := sys.ComputeForces("ewald", coulombCoeffs(p), pos, types, scaleA, jsA)
	if err != nil {
		t.Fatal(err)
	}

	// Path B: b = 1, charge field carries q_j, scale carries k_e q_i α³/L³.
	jsB, err := NewJSetWeighted(grid, pos, types, q)
	if err != nil {
		t.Fatal(err)
	}
	aC := p.Alpha * p.Alpha / (p.L * p.L)
	coB, _ := NewCoeffs(2, aC, 1)
	scaleB := make([]float64, n)
	for i := range scaleB {
		scaleB[i] = pref * q[i]
	}
	fb, err := sys.ComputeForces("ewald", coB, pos, types, scaleB, jsB)
	if err != nil {
		t.Fatal(err)
	}
	fscale := vec.RMS(fa)
	for i := range fa {
		if d := fa[i].Sub(fb[i]).Norm(); d > 1e-6*fscale {
			t.Errorf("particle %d: type-b %v vs charge-field %v", i, fa[i], fb[i])
		}
	}
}

func TestNewJSetWeightedValidation(t *testing.T) {
	grid, _ := cellindex.NewGrid(10, 3)
	pos, types, _ := naclSystem(6, 10, 42)
	if _, err := NewJSetWeighted(grid, pos, types, make([]float64, 3)); err == nil {
		t.Error("weight length mismatch accepted")
	}
	js, err := NewJSetWeighted(grid, pos, types, nil)
	if err != nil || js.Weights != nil {
		t.Errorf("nil weights should stay nil: %v %v", js.Weights, err)
	}
}

// PeakFlops returns the nominal peak speed: pipelines × clock × FlopsPerPair.
func (c Config) PeakFlops() float64 {
	return float64(c.Pipelines()) * c.ClockHz * c.FlopsPerPair
}
