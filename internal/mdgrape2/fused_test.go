package mdgrape2

import (
	"math"
	"math/rand"
	"testing"

	"mdm/internal/cellindex"
	"mdm/internal/fault"
	"mdm/internal/funceval"
	"mdm/internal/parallelize"
	"mdm/internal/soa"
	"mdm/internal/vec"
)

// fusedFixture loads three distinct kernels into a system and builds matching
// coefficient RAMs with per-type-pair structure.
func fusedFixture(t *testing.T) (*System, []ForcePass, []vec.V, []int, *JSet) {
	t.Helper()
	sys, err := NewSystem(CurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	kernels := map[string]func(float64) float64{
		"k-exp":  func(x float64) float64 { return math.Exp(-x) },
		"k-r6":   func(x float64) float64 { x2 := x * x; return 1 / (x2 * x2) },
		"k-sqrt": func(x float64) float64 { s := math.Sqrt(x); return math.Exp(-s) / s },
	}
	for name, g := range kernels {
		if err := sys.LoadTable(name, g, -8, 8); err != nil {
			t.Fatal(err)
		}
	}
	l := 9.0
	pos, types, _ := naclSystem(200, l, 7)
	grid, err := cellindex.NewGrid(l, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	js, err := NewJSet(grid, pos, types)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(b00, b01, b11 float64) *Coeffs {
		co, _ := NewCoeffs(2, 1, 0)
		co.Set(0, 0, 1.0, b00)
		co.Set(0, 1, 0.9, b01)
		co.Set(1, 1, 1.1, b11)
		return co
	}
	scale := make([]float64, len(pos))
	for i := range scale {
		scale[i] = 0.5
	}
	passes := []ForcePass{
		{Table: "k-exp", Co: mk(1, -1, 1), ScaleI: scale},
		{Table: "k-sqrt", Co: mk(2, 3, 4), ScaleI: nil},
		{Table: "k-r6", Co: mk(-6, -5, -4), ScaleI: nil},
	}
	return sys, passes, pos, types, js
}

// pairForce evaluates one pair in hardware precision: float32 datapath,
// float64 accumulation done by the caller. With oracleForces below it is the
// pair loop ComputeForces owned before it became the one-pass case of the
// blocked sweep, kept as the independent oracle the sweep is pinned to.
func pairForce(t *funceval.Table, aij, bij float32, dx, dy, dz float32) (fx, fy, fz float32) {
	r2 := dx*dx + dy*dy + dz*dz
	x := aij * r2
	g := t.Eval(x)
	bg := bij * g
	return bg * dx, bg * dy, bg * dz
}

// oracleForces is one table pass computed pair by pair, serially, over the
// j-set's frozen layout: i-particle i is the stored particle whose Order entry
// is i, in the cell whose range holds that slot (both re-derived here, not
// read from Slot / Cell); per i, that cell's 27 neighbor cells as the grid
// enumerates them, every j of each cell in storage order whose float32 r² is
// below the grid's cutoff squared (rounded to a single), one pairForce call
// and three float64 adds per pair.
func oracleForces(t *testing.T, sys *System, pass ForcePass, xi []vec.V, ti []int, js *JSet) []vec.V {
	t.Helper()
	tbl, err := sys.Table(pass.Table)
	if err != nil {
		t.Fatal(err)
	}
	a32, b32 := pass.Co.quant32()
	grid := js.Sorted.Grid
	cut2 := float32(grid.Cutoff * grid.Cutoff)
	forces := make([]vec.V, len(xi))
	jx, jy, jz := js.Sorted.P32.X, js.Sorted.P32.Y, js.Sorted.P32.Z
	for k, i := range js.Sorted.Order {
		if i >= len(xi) {
			continue
		}
		ci := 0
		for js.Sorted.Start[ci+1] <= k {
			ci++
		}
		pix, piy, piz := jx[k], jy[k], jz[k]
		var ax, ay, az float64
		ta := a32[ti[i]]
		tb := b32[ti[i]]
		for _, nb := range grid.Neighbors(ci) {
			jstart, jend := js.Sorted.CellRange(nb.Cell)
			sx := float32(nb.Shift.X)
			sy := float32(nb.Shift.Y)
			sz := float32(nb.Shift.Z)
			for j := jstart; j < jend; j++ {
				dx := pix - (jx[j] + sx)
				dy := piy - (jy[j] + sy)
				dz := piz - (jz[j] + sz)
				if dx*dx+dy*dy+dz*dz >= cut2 {
					continue
				}
				tj := js.Types[j]
				b := tb[tj]
				if js.Weights != nil {
					b *= float32(js.Weights[j]) // particle-memory charge field
				}
				fx, fy, fz := pairForce(tbl, ta[tj], b, dx, dy, dz)
				ax += float64(fx)
				ay += float64(fy)
				az += float64(fz)
			}
		}
		f := vec.New(ax, ay, az)
		if pass.ScaleI != nil {
			f = f.Scale(pass.ScaleI[i])
		}
		forces[i] = f
	}
	return forces
}

// oracleReference combines oracleForces over the passes in pass order.
func oracleReference(t *testing.T, sys *System, passes []ForcePass, xi []vec.V, ti []int, js *JSet) []vec.V {
	t.Helper()
	var total []vec.V
	for p, pass := range passes {
		f := oracleForces(t, sys, pass, xi, ti, js)
		if p == 0 {
			total = f
		} else {
			for i := range total {
				total[i] = total[i].Add(f[i])
			}
		}
	}
	return total
}

// unfusedReference runs the passes back-to-back through ComputeForces and
// combines them in pass order — the pre-fusion Machine.Forces reduction,
// with the hardware bookkeeping (stats, injector events) of separate calls.
func unfusedReference(t *testing.T, sys *System, passes []ForcePass, xi []vec.V, ti []int, js *JSet) []vec.V {
	t.Helper()
	var total []vec.V
	for p, pass := range passes {
		f, err := sys.ComputeForces(pass.Table, pass.Co, xi, ti, pass.ScaleI, js)
		if err != nil {
			t.Fatal(err)
		}
		if p == 0 {
			total = f
		} else {
			for i := range total {
				total[i] = total[i].Add(f[i])
			}
		}
	}
	return total
}

// TestFusedMatchesUnfusedBitExact pins the fused sweep, and ComputeForces run
// pass by pass, to the pair-by-pair oracle bit-for-bit at several pool widths.
// fusedAoS runs the fused sweep into fresh planes and interleaves the result.
func fusedAoS(s *System, passes []ForcePass, xi []vec.V, ti []int, js *JSet) ([]vec.V, error) {
	fc, err := s.ComputeForcesFusedInto(passes, xi, ti, js, soa.Coords{})
	if err != nil {
		return nil, err
	}
	return fc.AppendAoS(nil), nil
}

func TestFusedMatchesUnfusedBitExact(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		sys, passes, pos, types, js := fusedFixture(t)
		sys.SetPool(parallelize.New(workers))
		want := oracleReference(t, sys, passes, pos, types, js)
		got, err := fusedAoS(sys, passes, pos, types, js)
		if err != nil {
			t.Fatal(err)
		}
		unfused := unfusedReference(t, sys, passes, pos, types, js)
		for i := range want {
			if !sameVecBits(got[i], want[i]) {
				t.Fatalf("workers=%d: force %d differs: fused %v vs oracle %v",
					workers, i, got[i], want[i])
			}
			if !sameVecBits(unfused[i], want[i]) {
				t.Fatalf("workers=%d: force %d differs: pass-by-pass %v vs oracle %v",
					workers, i, unfused[i], want[i])
			}
		}
	}
}

// occupancyFixture builds a j-set whose cells hold prescribed particle
// counts, cycling through occ, so the sweep meets empty cells, single
// particles, and runs just below, at, just above and well above one block.
func occupancyFixture(t *testing.T, occ []int, weighted bool) ([]vec.V, []int, *JSet) {
	t.Helper()
	const l, rcut = 12.0, 3.0
	grid, err := cellindex.NewGrid(l, rcut)
	if err != nil {
		t.Fatal(err)
	}
	rng, edge := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(6))
	var pos []vec.V
	var types []int
	side := grid.N
	w := l / float64(side)
	for c := 0; c < side*side*side; c++ {
		cx, cy, cz := c%side, c/side%side, c/(side*side)
		for k := 0; k < occ[c%len(occ)]; k++ {
			p := [3]float64{
				(float64(cx) + 0.05 + 0.9*rng.Float64()) * w,
				(float64(cy) + 0.05 + 0.9*rng.Float64()) * w,
				(float64(cz) + 0.05 + 0.9*rng.Float64()) * w}
			if k%3 == 1 { // on a boundary of the index's eight slabs, ± up to 4 ulps
				a := edge.Intn(3)
				x := (float64([3]int{cx, cy, cz}[a]) + float64(1+edge.Intn(7))/8) * w
				for range edge.Intn(5) {
					x = math.Nextafter(x, math.Inf(2*edge.Intn(2)-1))
				}
				p[a] = x
			}
			pos = append(pos, vec.New(p[0], p[1], p[2]))
			types = append(types, rng.Intn(2))
		}
	}
	var weights []float64
	if weighted {
		weights = make([]float64, len(pos))
		for i := range weights {
			weights[i] = 0.5 + rng.Float64()
		}
	}
	js, err := NewJSetWeighted(grid, pos, types, weights)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture is only useful if the sort really produced those runs.
	seen := map[int]bool{}
	for c := 0; c < side*side*side; c++ {
		lo, hi := js.Sorted.CellRange(c)
		seen[hi-lo] = true
	}
	for _, n := range occ {
		if !seen[n] {
			t.Fatalf("no cell with occupancy %d in the fixture", n)
		}
	}
	return pos, types, js
}

// TestBlockedSweepMatchesOracle pins the block-streamed sweep to the
// pair-by-pair oracle across cell occupancies on both sides of the block
// width — so that an i-particle's kept pairs fill no block, one, or several,
// flushing inside a run and at run ends — with and without the charge field,
// for 1–4 passes and two pool widths. Two layouts are indexed (53 and 76
// particles per cell), with masks of one to four words and a third of the
// particles on slab boundaries; one is not (25 per cell), so its masks are
// full and its runs of up to three words stream whole.
func TestBlockedSweepMatchesOracle(t *testing.T) {
	occ := []int{0, 1, sweepBlock - 1, sweepBlock, sweepBlock + 1, 2*sweepBlock + 3}
	sparse := []int{0, 1, sweepBlock - 1, 0, 1, 2*sweepBlock + 3, 0, 1}
	sys, all, _, _, _ := fusedFixture(t)
	if err := sys.LoadTable("k-r8", func(x float64) float64 { x2 := x * x; return 1 / (x2 * x2 * x) }, -8, 8); err != nil {
		t.Fatal(err)
	}
	for _, weighted := range []bool{false, true} {
		blockedSweepMatchesOracle(t, sys, all, occ, weighted, true, 1)
		blockedSweepMatchesOracle(t, sys, all, sparse, weighted, false, 1)
		blockedSweepMatchesOracle(t, sys, all, append(occ, 216), weighted, true, 4)
	}
}

// blockedSweepMatchesOracle is TestBlockedSweepMatchesOracle on one layout,
// indexed or not, from fewest passes up to 4.
func blockedSweepMatchesOracle(t *testing.T, sys *System, all []ForcePass, occ []int, weighted, indexed bool, fewest int) {
	t.Helper()
	pos, types, js := occupancyFixture(t, occ, weighted)
	if (js.Sorted.Slabs() > 1) != indexed {
		t.Fatalf("%d particles in %d cells: %d slabs per axis, want indexed %v", len(pos), js.Sorted.Grid.NumCells(), js.Sorted.Slabs(), indexed)
	}
	least, most := len(pos), 0
	for i := range pos {
		kept := 0
		js.ForEachPair(i, func(int, vec.V) { kept++ })
		least, most = min(least, kept), max(most, kept)
	}
	if !(least < sweepBlock || occ[len(occ)-1] == 216) || most <= 2*sweepBlock {
		t.Fatalf("kept pairs per particle span [%d, %d]; the fixture needs more than two blocks and, but beside 216-particle cells, fewer than one", least, most)
	}
	scale := make([]float64, len(pos))
	for i := range scale {
		scale[i] = 0.25 + float64(i%7)
	}
	passes := append(append([]ForcePass(nil), all...), ForcePass{Table: "k-r8", Co: all[2].Co, ScaleI: scale})
	passes[0].ScaleI = scale
	for np := fewest; np <= 4; np++ {
		want := oracleReference(t, sys, passes[:np], pos, types, js)
		for _, workers := range []int{1, 3} {
			sys.SetPool(parallelize.New(workers))
			got, err := fusedAoS(sys, passes[:np], pos, types, js)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !sameVecBits(got[i], want[i]) {
					t.Fatalf("weighted=%v passes=%d workers=%d: force %d differs: sweep %v vs oracle %v",
						weighted, np, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkFusedSweep reports the four-table sweep per pair·table on 512
// ions. Its one case is kernel-independent — four copies of the Coulomb kernel
// on a 3³ grid, whose arguments all sit well inside the table; the Tosi–Fumi
// kernels on the default 2³ geometry, pass by pass, are core's
// BenchmarkFusedSweep (tosifumi/grid2), where the kernels live.
func BenchmarkFusedSweep(b *testing.B) {
	b.Run("coulomb×4/grid3", benchCoulombSweep)
}

func benchCoulombSweep(b *testing.B) {
	sys, err := NewSystem(CurrentConfig())
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"t0", "t1", "t2", "t3"}
	for _, name := range names {
		if err := sys.LoadTable(name, ewaldG, -20, 8); err != nil {
			b.Fatal(err)
		}
	}
	const l = 22.56
	pos, types, _ := naclSystem(512, l, 1)
	grid, err := cellindex.NewGrid(l, l/3)
	if err != nil {
		b.Fatal(err)
	}
	js, err := NewJSet(grid, pos, types)
	if err != nil {
		b.Fatal(err)
	}
	co, _ := NewCoeffs(2, 0.2, 1)
	passes := make([]ForcePass, len(names))
	for p, name := range names {
		passes[p] = ForcePass{Table: name, Co: co}
	}
	var dst soa.Coords
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = sys.ComputeForcesFusedInto(passes, pos, types, js, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sys.Stats().PairsEvaluated), "ns/pair·table")
}

// TestFusedStatsMatchUnfused checks the fused sweep books the same hardware
// work as the pass-by-pass path (the timing model depends on it).
func TestFusedStatsMatchUnfused(t *testing.T) {
	sys, passes, pos, types, js := fusedFixture(t)
	_ = unfusedReference(t, sys, passes, pos, types, js)
	unfused := sys.Stats()
	sys.ResetStats()
	if _, err := fusedAoS(sys, passes, pos, types, js); err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats(); got != unfused {
		t.Fatalf("fused stats %+v != unfused %+v", got, unfused)
	}
}

// TestFusedFaultSequence checks the fused sweep consumes injector events in
// the same order as back-to-back passes: a transient scheduled on the k-th
// hardware call fails the k-th pass, and an armed bit flip lands in that
// pass's contribution exactly as the unfused path applies it.
func TestFusedFaultSequence(t *testing.T) {
	// Transient on the 2nd MDG2 call of the step.
	sys, passes, pos, types, js := fusedFixture(t)
	in, err := fault.ParseInjector("mdg:transient@call=2")
	if err != nil {
		t.Fatal(err)
	}
	sys.SetFaultHook(in)
	if _, err := fusedAoS(sys, passes, pos, types, js); err == nil {
		t.Fatal("transient on pass 2 not surfaced")
	}
	// Same schedule against the unfused sequence errors on the same pass.
	sys2, passes2, pos2, types2, js2 := fusedFixture(t)
	in2, err := fault.ParseInjector("mdg:transient@call=2")
	if err != nil {
		t.Fatal(err)
	}
	sys2.SetFaultHook(in2)
	if _, err := sys2.ComputeForces(passes2[0].Table, passes2[0].Co, pos2, types2, passes2[0].ScaleI, js2); err != nil {
		t.Fatalf("pass 1 should succeed: %v", err)
	}
	if _, err := sys2.ComputeForces(passes2[1].Table, passes2[1].Co, pos2, types2, passes2[1].ScaleI, js2); err == nil {
		t.Fatal("unfused pass 2 should fail")
	}

	// Bit flip armed for the 3rd call lands identically in both paths.
	sysA, passesA, posA, typesA, jsA := fusedFixture(t)
	inA, err := fault.ParseInjector("mdg:bitflip@call=3,word=41,bit=51")
	if err != nil {
		t.Fatal(err)
	}
	sysA.SetFaultHook(inA)
	gotA, err := fusedAoS(sysA, passesA, posA, typesA, jsA)
	if err != nil {
		t.Fatal(err)
	}
	sysB, passesB, posB, typesB, jsB := fusedFixture(t)
	inB, err := fault.ParseInjector("mdg:bitflip@call=3,word=41,bit=51")
	if err != nil {
		t.Fatal(err)
	}
	sysB.SetFaultHook(inB)
	wantB := unfusedReference(t, sysB, passesB, posB, typesB, jsB)
	flipped := false
	for i := range wantB {
		if gotA[i] != wantB[i] {
			t.Fatalf("flip landed differently at %d: %v vs %v", i, gotA[i], wantB[i])
		}
	}
	// Confirm the flip actually fired (results differ from a clean run).
	sysC, passesC, posC, typesC, jsC := fusedFixture(t)
	clean, err := fusedAoS(sysC, passesC, posC, typesC, jsC)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if clean[i] != gotA[i] {
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("bit flip did not fire")
	}
}

// TestJSetBuilderMatchesNewJSet pins the builder's reused layout, sorted on a
// four-wide pool, to a fresh serial NewJSet, including after Refresh with
// unchanged cells.
func TestJSetBuilderMatchesNewJSet(t *testing.T) {
	l := 9.0
	pos, types, _ := naclSystem(300, l, 11)
	grid, err := cellindex.NewGrid(l, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallelize.New(4)
	b := NewJSetBuilder(grid, pool)
	for trial := 0; trial < 3; trial++ {
		js, err := b.Build(pos, types, pool)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewJSet(grid, pos, types)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < want.Sorted.Len(); k++ {
			if js.Sorted.At(k) != want.Sorted.At(k) || js.Types[k] != want.Types[k] {
				t.Fatalf("trial %d: sorted slot %d differs", trial, k)
			}
		}
		// Perturb within a cell and refresh (no particle sits within 3e-7 of a
		// box face, so every stored image is the in-box one).
		for i := range pos {
			pos[i] = pos[i].Add(vec.New(1e-7, -1e-7, 1e-7))
		}
		if _, err := b.Refresh(pos); err != nil {
			t.Fatal(err)
		}
		for k, orig := range js.Sorted.Order {
			if js.Sorted.At(k) != pos[orig] {
				t.Fatalf("trial %d: refreshed slot %d stale", trial, k)
			}
		}
	}
}

// TestRefreshedSweepIsFrozenTimesFrozen names the trap of the Verlet-skin
// reuse step. After a Refresh the layout still files every particle under the
// cell, slot and periodic image of the last Build, so a pair is right only if
// both of its sides read that layout: an i-side re-derived from the current
// wrapped position starts a boundary crosser's walk from the cell across the
// box with shifts worked out for the old one, and un-wrapping the j-side alone
// leaves the crosser's visit to itself at float32(L+ε) + float32(−L) vs
// float32(ε) — r ≈ 1e-6 Å, below every table's domain — instead of r = 0.
// The sweep must equal the pair-by-pair oracle over the frozen layout bit for
// bit, and differ from what the current cells and wrapped coordinates give.
func TestRefreshedSweepIsFrozenTimesFrozen(t *testing.T) {
	sys, passes, pos, types, _ := fusedFixture(t)
	const l, rcut, skin = 9.0, 2.5, 0.5
	grid, err := cellindex.NewGrid(l, rcut+skin)
	if err != nil {
		t.Fatal(err)
	}
	if grid.N < 3 {
		t.Fatalf("grid has %d cells per side; the trap needs ≥ 3", grid.N)
	}
	// Park one particle just inside each x face so the move below carries
	// them across; everything moves by less than skin/2.
	pos = append([]vec.V(nil), pos...)
	const hi, lo = 0, 1 // crosses x = L upward, crosses x = 0 downward
	pos[hi] = vec.New(l-0.05, 4.4, 4.6)
	pos[lo] = vec.New(0.05, 1.3, 7.7)
	b := NewJSetBuilder(grid, nil)
	if _, err := b.Build(pos, types, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	moved := make([]vec.V, len(pos))
	for i := range pos {
		d := vec.New(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5).Scale(0.2)
		moved[i] = pos[i].Add(d).Wrap(l)
	}
	moved[hi] = pos[hi].Add(vec.New(0.11, 0.02, -0.03)).Wrap(l)
	moved[lo] = pos[lo].Add(vec.New(-0.12, 0.01, 0.04)).Wrap(l)
	js, err := b.Refresh(moved)
	if err != nil {
		t.Fatal(err)
	}
	if x := js.Sorted.Pos.X[js.Sorted.Slot[hi]]; !(x > l) {
		t.Fatalf("upward crosser stored at x = %v, want just above L", x)
	}
	if x := js.Sorted.Pos.X[js.Sorted.Slot[lo]]; !(x < 0) {
		t.Fatalf("downward crosser stored at x = %v, want just below 0", x)
	}

	want := oracleReference(t, sys, passes, moved, types, js)
	got, err := fusedAoS(sys, passes, moved, types, js)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !sameVecBits(got[i], want[i]) {
			t.Fatalf("force %d: sweep %v vs frozen-layout oracle %v", i, got[i], want[i])
		}
	}

	// A crosser's visit to itself contributes exactly nothing: with every
	// other particle's kernel weight at zero, what is left of its force is
	// that one zero-shift visit (a 3-cell grid reaches no other image of it).
	for _, c := range []int{hi, lo} {
		js.Weights = make([]float64, len(pos))
		js.Weights[js.Sorted.Slot[c]] = 1
		self, err := fusedAoS(sys, passes, moved, types, js)
		if err != nil {
			t.Fatal(err)
		}
		if self[c] != vec.Zero {
			t.Errorf("crosser %d: self pair contributes %v, want exactly 0", c, self[c])
		}
	}
	js.Weights = nil

	// A fresh sort of the same positions files the crossers under the other
	// cell and stores them on the in-box image, in other float32 words: the
	// frozen answer is not that answer bit for bit. Both walk the r_cut sphere,
	// so the two agree to the datapath's rounding.
	fresh, err := NewJSet(grid, moved, types)
	if err != nil {
		t.Fatal(err)
	}
	resorted, err := fusedAoS(sys, passes, moved, types, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if sameVecBits(resorted[hi], got[hi]) && sameVecBits(resorted[lo], got[lo]) {
		t.Error("frozen and re-sorted layouts agree bit for bit on both crossers; the fixture exercises nothing")
	}
	if d := vec.RelRMSDiff(resorted, got); d > 1e-5 {
		t.Errorf("frozen and re-sorted layouts differ by %.3g RMS; one pair set read twice should agree to rounding", d)
	}
}
