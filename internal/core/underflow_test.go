package core

import (
	"math"
	"testing"

	"mdm/internal/ewald"
	"mdm/internal/funceval"
	"mdm/internal/md"
	"mdm/internal/mdgrape2"
	"mdm/internal/soa"
	"mdm/internal/vec"
)

// sweepFixture is one geometry the real-space sweep is pinned on: a machine,
// a thermally displaced crystal and its j-set.
type sweepFixture struct {
	name   string
	m      *Machine
	s      *md.System
	js     *mdgrape2.JSet
	passes []mdgrape2.ForcePass
}

type sweepGeometry struct {
	name  string
	cells int
	alpha float64 // 0: the suite's default splitting
}

// sweepGeometries are the three geometries of the benchmark workloads: the
// 512-ion box at the default splitting (2³ grid, 64 ions per cell, pairs out
// to r_cut = 10.2 Å), the same box at α = 9 (3³ grid) and the served 64-ion
// box.
var sweepGeometries = []sweepGeometry{
	{"N=512 default", 4, 0},
	{"N=512 alpha=9", 4, 9},
	{"N=64 default", 2, 0},
}

func newSweepFixture(t testing.TB, geo sweepGeometry) sweepFixture {
	t.Helper()
	s := meltLike(t, geo.cells, 5.64, 1200, 3)
	p := smallParams(s.L)
	if geo.alpha != 0 {
		p = ewald.ParamsForAlpha(s.L, geo.alpha)
	}
	cfg := CurrentMachineConfig(p)
	cfg.Workers = 1
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.real[0].update(s.Pos, s.Type, true, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.real[0].sweep(s.Pos, s.Type, s.N(), false); err != nil {
		t.Fatal(err)
	}
	return sweepFixture{geo.name, m, s, m.real[0].js, m.real[0].passes[:]}
}

// forEachSweepPair walks one table pass over the sweep's own pair set
// (JSet.ForEachPair: per i, the 27 neighbour cells in table order, the j of
// each cell inside the cutoff in storage order) and hands visit the float32
// words the pair datapath starts from: the table argument x = a_ij·r², the
// coefficient b_ij and the displacement. It is mdgrape2's oracleForces pair
// expression on core's tables and coefficient RAM.
func forEachSweepPair(f sweepFixture, pass mdgrape2.ForcePass, visit func(i int, x, b, dx, dy, dz float32)) {
	sorted := f.js.Sorted
	jx, jy, jz := sorted.P32.X, sorted.P32.Y, sorted.P32.Z
	for i, pos := range f.s.Pos {
		pix, piy, piz := float32(pos.X), float32(pos.Y), float32(pos.Z)
		ti := f.s.Type[i]
		f.js.ForEachPair(i, func(j int, shift vec.V) {
			dx := pix - (jx[j] + float32(shift.X))
			dy := piy - (jy[j] + float32(shift.Y))
			dz := piz - (jz[j] + float32(shift.Z))
			tj := f.js.Types[j]
			x := float32(pass.Co.A[ti][tj]) * (dx*dx + dy*dy + dz*dz)
			visit(i, x, float32(pass.Co.B[ti][tj]), dx, dy, dz)
		})
	}
}

// TestSweepDatapathStaysNormal: no float32 the pair datapath forms — the
// table argument, the evaluated kernel, b·g and the three force words — is
// subnormal on any benchmark geometry. Underflow is the function evaluator's
// cutoff (funceval.NewTable), never the host FPU's gradual underflow, whose
// microcode assists made the Born–Mayer pass three times the cost of the
// others.
func TestSweepDatapathStaysNormal(t *testing.T) {
	// The domain tops LoadTable's power-of-two widening really produces.
	tops := map[string]float64{tableCoulomb: 0x1p12, tableBM: 0x1p24, tableDisp6: 0x1p28, tableDisp8: 0x1p28}
	for _, geo := range sweepGeometries {
		f := newSweepFixture(t, geo)
		var pairs, zeroG int
		for _, pass := range f.passes {
			tbl, err := f.m.real[0].mr1.System().Table(pass.Table)
			if err != nil {
				t.Fatal(err)
			}
			if _, hi := tbl.Domain(); hi != tops[pass.Table] {
				t.Errorf("%s: table %s reaches %g, want %g", f.name, pass.Table, hi, tops[pass.Table])
			}
			subnormal := map[string]int{}
			count := func(word string, v float32) {
				if a := math.Abs(float64(v)); a != 0 && a < 0x1p-126 {
					subnormal[word]++
				}
			}
			forEachSweepPair(f, pass, func(_ int, x, b, dx, dy, dz float32) {
				g := tbl.Eval(x)
				bg := b * g
				count("x", x)
				count("g", g)
				count("b·g", bg)
				count("b·g·dx", bg*dx)
				count("b·g·dy", bg*dy)
				count("b·g·dz", bg*dz)
				pairs++
				if g == 0 && x != 0 {
					zeroG++
				}
			})
			for word, n := range subnormal {
				t.Errorf("%s: %s pass forms %d subnormal %s words", f.name, pass.Table, n, word)
			}
		}
		t.Logf("%s: %d pair·table evaluations, %d beyond the evaluator's low-magnitude cutoff", f.name, pairs, zeroG)
	}
}

// oracleTable is the function-evaluator RAM as the fit filled it before the
// underflow rule: every coefficient float32(c) whatever its magnitude,
// subnormal words included. Fit and addressing are written out independently
// of funceval (float64 frexp addressing, the same Chebyshev interpolation),
// so the bit-equality below also pins this copy to the production fit on
// every segment the rule leaves alone.
type oracleTable struct {
	lo, hi    float64
	emin      int
	segPerOct int
	rows      [][funceval.Order + 1]float32
}

func newOracleTable(g func(float64) float64, lo, hi float64) *oracleTable {
	_, emin := math.Frexp(lo)
	_, emax := math.Frexp(hi)
	emin, emax = emin-1, emax-1
	o := &oracleTable{lo: lo, hi: hi, emin: emin, segPerOct: funceval.DefaultSegments / (emax - emin),
		rows: make([][funceval.Order + 1]float32, funceval.DefaultSegments)}
	const n = funceval.Order + 1
	for s := range o.rows {
		base := math.Ldexp(1, emin+s/o.segPerOct)
		w := base / float64(o.segPerOct)
		slo := base + float64(s%o.segPerOct)*w
		// Interpolate g at the Chebyshev nodes of the segment: Gaussian
		// elimination with partial pivoting on the Vandermonde system.
		var a [n][n + 1]float64
		for i := 0; i < n; i++ {
			u := 0.5 - 0.5*math.Cos(math.Pi*(float64(i)+0.5)/float64(n))
			pw := 1.0
			for j := 0; j < n; j++ {
				a[i][j] = pw
				pw *= u
			}
			a[i][n] = g(slo + u*w)
		}
		for col := 0; col < n; col++ {
			piv := col
			for r := col + 1; r < n; r++ {
				if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
					piv = r
				}
			}
			a[col], a[piv] = a[piv], a[col]
			for r := col + 1; r < n; r++ {
				f := a[r][col] / a[col][col]
				for c := col; c <= n; c++ {
					a[r][c] -= f * a[col][c]
				}
			}
		}
		var c [n]float64
		for i := n - 1; i >= 0; i-- {
			v := a[i][n]
			for j := i + 1; j < n; j++ {
				v -= a[i][j] * c[j]
			}
			c[i] = v / a[i][i]
		}
		for i, v := range c {
			o.rows[s][i] = float32(v)
		}
	}
	return o
}

func (o *oracleTable) eval(x float32) float32 {
	xf := float64(x)
	if !(xf > 0) || xf >= o.hi {
		return 0
	}
	if xf < o.lo {
		xf = o.lo
	}
	frac, exp := math.Frexp(xf)
	pos := (frac*2 - 1) * float64(o.segPerOct)
	sub := int(pos)
	c := &o.rows[(exp-1-o.emin)*o.segPerOct+sub]
	u := float32(pos - float64(sub))
	r := c[4]*u + c[3]
	r = r*u + c[2]
	r = r*u + c[1]
	r = r*u + c[0]
	return r
}

// TestUnderflowRuleKeepsForces: on every benchmark geometry the sweep with
// the production tables returns, pass by pass and fused, the bits a pair walk
// over gradual-underflow tables (oracleTable) returns, and what the rule drops
// — the pair terms that differ between the two — sums per particle to less
// than 10⁻²⁰ of the particle's force.
func TestUnderflowRuleKeepsForces(t *testing.T) {
	for _, geo := range sweepGeometries {
		f := newSweepFixture(t, geo)
		n := f.s.N()
		sys := f.m.real[0].mr1.System()
		fused, err := sys.ComputeForcesFusedInto(f.passes, f.s.Pos, f.s.Type, f.js, soa.Coords{})
		if err != nil {
			t.Fatal(err)
		}
		total := soa.Coords{}.Resize(n)
		dropped := make([]float64, n)
		var differing int
		for p, pass := range f.passes {
			got, err := sys.ComputeForcesFusedInto(f.passes[p:p+1], f.s.Pos, f.s.Type, f.js, soa.Coords{})
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := sys.Table(pass.Table)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := tbl.Domain()
			oracle := newOracleTable(forceTables[p].g, lo, hi)
			want := soa.Coords{}.Resize(n)
			lost := make([]float64, n)
			forEachSweepPair(f, pass, func(i int, x, b, dx, dy, dz float32) {
				bo, bp := b*oracle.eval(x), b*tbl.Eval(x)
				want.X[i] += float64(bo * dx)
				want.Y[i] += float64(bo * dy)
				want.Z[i] += float64(bo * dz)
				if bo != bp {
					differing++
					lost[i] += math.Abs(float64(bo*dx)-float64(bp*dx)) +
						math.Abs(float64(bo*dy)-float64(bp*dy)) +
						math.Abs(float64(bo*dz)-float64(bp*dz))
				}
			})
			for i := 0; i < n; i++ {
				if pass.ScaleI != nil {
					want.X[i] *= pass.ScaleI[i]
					want.Y[i] *= pass.ScaleI[i]
					want.Z[i] *= pass.ScaleI[i]
					lost[i] *= pass.ScaleI[i]
				}
				dropped[i] += lost[i]
				if !sameFloat(got.X[i], want.X[i]) || !sameFloat(got.Y[i], want.Y[i]) || !sameFloat(got.Z[i], want.Z[i]) {
					t.Fatalf("%s: %s pass, particle %d: sweep (%g, %g, %g), gradual-underflow tables (%g, %g, %g)",
						f.name, pass.Table, i, got.X[i], got.Y[i], got.Z[i], want.X[i], want.Y[i], want.Z[i])
				}
				total.X[i] += want.X[i]
				total.Y[i] += want.Y[i]
				total.Z[i] += want.Z[i]
			}
		}
		worst := 0.0
		for i := 0; i < n; i++ {
			if !sameFloat(fused.X[i], total.X[i]) || !sameFloat(fused.Y[i], total.Y[i]) || !sameFloat(fused.Z[i], total.Z[i]) {
				t.Fatalf("%s: particle %d: fused sweep (%g, %g, %g), gradual-underflow tables (%g, %g, %g)",
					f.name, i, fused.X[i], fused.Y[i], fused.Z[i], total.X[i], total.Y[i], total.Z[i])
			}
			force := math.Sqrt(fused.X[i]*fused.X[i] + fused.Y[i]*fused.Y[i] + fused.Z[i]*fused.Z[i])
			if rel := dropped[i] / force; rel > worst {
				worst = rel
			}
		}
		if !(worst < 1e-20) {
			t.Errorf("%s: dropped terms reach %g of a particle's force, want below 1e-20", f.name, worst)
		}
		t.Logf("%s: %d pair terms differ, dropped at most %.2g of a particle's force", f.name, differing, worst)
	}
}

// BenchmarkFusedSweep times the real-space sweep with the four Tosi–Fumi
// kernels and core's coefficient RAM on the default 512-ion geometry (2³
// grid, 64 ions per cell): fused, as a step runs it, and one table at a time,
// so a pass that costs more than its share shows; and fused on 1,728 ions
// (2³ grid, 216 per cell: slab masks of four words). Each reports ns per
// pair·table; mdgrape2's BenchmarkFusedSweep is the kernel-independent case.
func BenchmarkFusedSweep(b *testing.B) {
	f := newSweepFixture(b, sweepGeometries[0])
	dense := newSweepFixture(b, sweepGeometry{"N=1728 default", 6, 0})
	run := func(name string, f sweepFixture, passes []mdgrape2.ForcePass) {
		sys := f.m.real[0].mr1.System()
		b.Run("tosifumi/grid2/"+name, func(b *testing.B) {
			var dst soa.Coords
			var err error
			sys.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = sys.ComputeForcesFusedInto(passes, f.s.Pos, f.s.Type, f.js, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sys.Stats().PairsEvaluated), "ns/pair·table")
		})
	}
	run("fused", f, f.passes)
	for p, pass := range f.passes {
		run(pass.Table, f, f.passes[p:p+1])
	}
	run("N=1728/fused", dense, dense.passes)
}

// sameFloat is bit equality with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}
