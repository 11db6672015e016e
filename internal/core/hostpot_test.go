package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mdm/internal/cellindex"
	"mdm/internal/ewald"
	"mdm/internal/funceval"
	"mdm/internal/md"
	"mdm/internal/mpi"
	"mdm/internal/tosifumi"
	"mdm/internal/units"
	"mdm/internal/vec"
)

// mustGrid is the cell grid an engine with no skin builds for p.
func mustGrid(t testing.TB, p ewald.Params) *cellindex.Grid {
	t.Helper()
	grid, err := cellindex.NewGrid(p.L, p.RCut)
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

// fixtureParams is the splitting of the oracle fixtures on a box of side l:
// the suite's default (alpha 0), the far-image fixture (60), or ParamsForAlpha.
func fixtureParams(l, alpha float64) ewald.Params {
	switch alpha {
	case 0:
		return smallParams(l)
	case 60:
		return ewald.Params{L: l, Alpha: 60, RCut: l, LKCut: 1}
	}
	return ewald.ParamsForAlpha(l, alpha)
}

// mustPotTable fits the evaluator the way an engine does.
func mustPotTable(t testing.TB, p ewald.Params) *potTable {
	t.Helper()
	tbl, err := newPotTable(p)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestPotTableKernelError measures both kernels against their scalar forms
// over the whole domain, every segment sampled densely and at both ends. Each
// kernel is a factor in [0, 1] — erfc(αr/L), e^(−r/ρ) — times constants and a
// power of r, and a sum of pair energies needs that factor to an absolute
// bound; its relative error is bounded where the factor is large enough to
// carry energy, and grows in the tail, where the kernel falls by decades
// across one segment (α = 60 puts all of E's domain there). The bounds are
// the measured maxima (6.3e-16 and 6.0e-15 for E, 4.9e-17 and 2.3e-15 for B)
// with a margin.
func TestPotTableKernelError(t *testing.T) {
	const perSegment = 512
	for _, c := range []struct {
		cells int
		alpha float64
	}{{4, 0}, {4, 9}, {4, 14}, {1, 60}} {
		p := fixtureParams(5.64*float64(c.cells), c.alpha)
		tbl := mustPotTable(t, p)
		var absE, absB, relE, relB float64
		s, e, b := make([]float64, perSegment+1), make([]float64, perSegment+1), make([]float64, perSegment+1)
		for seg := range tbl.rows {
			lo := math.Float64frombits(tbl.lo + uint64(seg)<<potLocalBits)
			hi := math.Float64frombits(tbl.lo + uint64(seg+1)<<potLocalBits)
			for k := range s {
				s[k] = lo + (hi-lo)*(float64(k)+0.37)/perSegment
			}
			s[0], s[perSegment] = lo, math.Nextafter(hi, 0)
			tbl.evalInto(e, b, s)
			for k, sk := range s {
				wantE, wantB := tbl.kernels(sk)
				screen := wantE * math.Sqrt(sk) / units.Coulomb // erfc(αr/L)
				dE, dB := math.Abs(e[k]-wantE)*math.Sqrt(sk)/units.Coulomb, math.Abs(b[k]-wantB)
				absE, absB = math.Max(absE, dE), math.Max(absB, dB)
				if screen >= 1e-3 {
					relE = math.Max(relE, dE/screen)
				}
				if wantB >= 1e-3 {
					relB = math.Max(relB, dB/wantB)
				}
			}
		}
		t.Logf("alpha=%.3g, %d segments: E factor %.2g absolute, %.2g relative; B factor %.2g absolute, %.2g relative",
			p.Alpha, len(tbl.rows), absE, relE, absB, relB)
		if absE > 1e-15 || relE > 1e-14 {
			t.Errorf("alpha=%g: E's screening factor off by %.3g absolute (bound 1e-15), %.3g relative above 1e-3 (bound 1e-14)", p.Alpha, absE, relE)
		}
		if absB > 1e-16 || relB > 5e-15 {
			t.Errorf("alpha=%g: B off by %.3g absolute (bound 1e-16), %.3g relative above 1e-3 (bound 5e-15)", p.Alpha, absB, relB)
		}
	}
}

// TestPotTableSharedFactorisation: each segment's E and B rows, solved from
// one factorisation of the segment's nodes, equal the two systems solved
// separately, word for word.
func TestPotTableSharedFactorisation(t *testing.T) {
	for _, alpha := range []float64{0, 9, 14} {
		tbl := mustPotTable(t, fixtureParams(4*5.64, alpha))
		var cheb, nodes [potDegree + 1]float64
		var vals [2][potDegree + 1]float64
		funceval.ChebyshevNodes(cheb[:])
		for seg, row := range tbl.rows {
			lo := math.Float64frombits(tbl.lo + uint64(seg)<<potLocalBits)
			hi := math.Float64frombits(tbl.lo + uint64(seg+1)<<potLocalBits)
			mid, half := (lo+hi)/2, (hi-lo)/2
			for i, u := range cheb {
				x := lo + float64(u*(hi-lo))
				nodes[i] = (x - float64(mid)) / half
				vals[0][i], vals[1][i] = tbl.kernels(x)
			}
			var want potRow
			for k := range vals {
				if err := funceval.SolveVandermonde(want[k*(potDegree+1):(k+1)*(potDegree+1)], nodes[:], vals[k][:]); err != nil {
					t.Fatal(err)
				}
			}
			for i := range want {
				if math.Float64bits(row[i]) != math.Float64bits(want[i]) {
					t.Fatalf("alpha=%g, segment %d: word %d is %.17g, a separate solve gives %.17g", alpha, seg, i, row[i], want[i])
				}
			}
		}
	}
}

// TestPotTableAddressingEdges walks the edges of the addressing: every power
// of two in the domain and the largest float64 below it land in adjacent
// segments at opposite ends of the local coordinate and still read the
// kernels, the domain is exactly [2^0, 2^⌈log₂ r_c²⌉), and a pair outside it
// is the shifted scalar pair forms bit for bit.
func TestPotTableAddressingEdges(t *testing.T) {
	p := smallParams(4 * 5.64)
	tbl := mustPotTable(t, p)
	emax := len(tbl.rows) >> potSegBits
	if top := p.RCut * p.RCut; !(math.Ldexp(1, emax) >= top && math.Ldexp(1, emax-1) < top) {
		t.Fatalf("domain ends at 2^%d, the walk reaches r_c² = %g", emax, top)
	}
	// The shift is the scalar forms at the cutoff.
	if ec := p.RealPairEnergyR(1, 1, p.RCut); tbl.ec != ec {
		t.Errorf("E(r_c²) = %g, scalar form %g", tbl.ec, ec)
	}
	if uc := tbl.tf.ShortEnergy(tosifumi.Cl, tosifumi.Na, p.RCut); tbl.uc[uint8(tosifumi.Cl)*tosifumi.NumSpecies+uint8(tosifumi.Na)] != uc {
		t.Errorf("Cl–Na u(r_c) = %g, scalar form %g", tbl.uc[uint8(tosifumi.Cl)*tosifumi.NumSpecies+uint8(tosifumi.Na)], uc)
	}
	// 2^e opens octave e at u = −1; the float64 before it closes octave e−1
	// just below u = +1. The first and the last of them are out.
	var inside []float64
	for e := 0; e <= emax; e++ {
		inside = append(inside, math.Nextafter(math.Ldexp(1, e), 0), math.Ldexp(1, e))
	}
	outside := []float64{inside[0], inside[len(inside)-1], 0.81, 1e-300, math.Ldexp(1, emax+1), 1e300, math.Inf(1), -4, math.NaN()}
	inside = inside[1 : len(inside)-1]

	e, b := make([]float64, len(inside)), make([]float64, len(inside))
	tbl.evalInto(e, b, inside)
	for k, s := range inside {
		wantE, wantB := tbl.kernels(s)
		if !(math.Abs(e[k]-wantE) <= 1e-15*units.Coulomb/math.Sqrt(s)) || !(math.Abs(b[k]-wantB) <= 1e-16) {
			t.Errorf("s = %x: table E %g, B %g; scalar forms %g, %g", s, e[k], b[k], wantE, wantB)
		}
	}
	e, b = e[:len(outside)], b[:len(outside)]
	tbl.evalInto(e, b, outside)
	for k, s := range outside {
		if !math.IsNaN(e[k]) {
			t.Errorf("s = %g is outside [1, 2^%d) and the table answers %g", s, emax, e[k])
		}
		g := potGather{q: []float64{-0.63, 1}, kind: []uint8{uint8(tosifumi.Cl), uint8(tosifumi.Na)}}
		blk := potBlock{n: 1}
		pr := uint8(tosifumi.Cl)*tosifumi.NumSpecies + uint8(tosifumi.Na)
		blk.r2[0], blk.i[0], blk.j[0] = s, 0, 1
		r := math.Sqrt(s)
		want := p.RealPairEnergyR(-0.63, 1, r) - -0.63*tbl.ec
		want += tbl.tf.ShortEnergy(tosifumi.Cl, tosifumi.Na, r) - tbl.uc[pr]
		if got := tbl.drain(&g, &blk, 0); !sameFloat(got, want) {
			t.Errorf("s = %g: pair energy %g, scalar forms %g", s, got, want)
		}
	}
}

// oraclePotential is the scalar walk the evaluator replaced, kept as its
// oracle: one closure call per half pair of the r_cut sphere, the general pair
// forms of ewald and tosifumi (math.Erfc, math.Exp, every division), each
// shifted by its own value at r_c, summed pair by pair. abs is Σ|u_pair|, the
// magnitude the sum's own rounding scales with.
func oraclePotential(p ewald.Params, tf *tosifumi.Potential, sorted *cellindex.Sorted, nbt *cellindex.NeighborTable, s *md.System) (pot, abs float64) {
	sorted.ForEachHalfPair(nbt, func(i, j int, rij vec.V) {
		r2 := rij.Norm2()
		if r2 == 0 {
			return
		}
		r := math.Sqrt(r2)
		oi, oj := sorted.Order[i], sorted.Order[j]
		qi, qj := s.Charge[oi], s.Charge[oj]
		si, sj := tosifumi.Species(s.Type[oi]), tosifumi.Species(s.Type[oj])
		coul := p.RealPairEnergyR(qi, qj, r) - p.RealPairEnergyR(qi, qj, p.RCut)
		short := tf.ShortEnergy(si, sj, r) - tf.ShortEnergy(si, sj, p.RCut)
		pot += coul
		pot += short
		abs += math.Abs(coul + short)
	})
	return pot, abs
}

// rRange returns the smallest and largest separation the potential's half
// walk meets, and its pair count.
func rRange(sorted *cellindex.Sorted, nbt *cellindex.NeighborTable) (lo, hi float64, pairs int) {
	lo = math.Inf(1)
	sorted.ForEachHalfPair(nbt, func(_, _ int, rij vec.V) {
		if r := rij.Norm(); r != 0 {
			lo, hi = math.Min(lo, r), math.Max(hi, r)
			pairs++
		}
	})
	return lo, hi, pairs
}

// checkAgainstOracle compares the evaluator, fitted the way an engine fits
// it, with the scalar oracle on one layout.
func checkAgainstOracle(t *testing.T, name string, p ewald.Params, grid *cellindex.Grid, s *md.System) float64 {
	t.Helper()
	return checkTableAgainstOracle(t, name, mustPotTable(t, p), grid, s)
}

// checkTableAgainstOracle holds tbl to 1e-13 of the oracle's potential — or,
// where that total is a cancellation residue, to 1e-15 of Σ|u_pair|, the
// rounding level of the sum itself — and to exactly 0 where the walk meets no
// pair. It returns the absolute difference.
func checkTableAgainstOracle(t *testing.T, name string, tbl *potTable, grid *cellindex.Grid, s *md.System) float64 {
	t.Helper()
	sorted := cellindex.Sort(grid, s.Pos)
	nbt := cellindex.BuildNeighborTable(grid, nil)
	got := hostPotential(new(potGather), tbl, sorted, nbt, s)
	want, abs := oraclePotential(tbl.p, tbl.tf, sorted, nbt, s)
	if want == 0 {
		if got != 0 {
			t.Errorf("%s: no pair in the walk, potential %g, want exactly 0", name, got)
		}
		return 0
	}
	diff := math.Abs(got - want)
	if !(diff <= math.Max(1e-13*math.Abs(want), 1e-15*abs)) {
		t.Errorf("%s (grid %d³): evaluator %.17g vs scalar oracle %.17g (rel %.2g, %.2g of Σ|u|)",
			name, grid.N, got, want, diff/math.Abs(want), diff/abs)
	}
	return diff
}

// fractionalCharges replaces the ±1 charges by non-integer ones, so a walk
// that read charges per species instead of per particle would show.
func fractionalCharges(s *md.System) {
	for i := range s.Charge {
		s.Charge[i] *= 0.6 + 0.05*float64(i%9)
	}
}

func TestHostPotentialMatchesScalarOracle(t *testing.T) {
	for _, cells := range []int{1, 2, 3, 4} {
		for _, alpha := range []float64{0, 9, 14} { // 0: the suite's default splitting
			for _, fractional := range []bool{false, true} {
				s := meltLike(t, cells, 5.64, 1200, int64(cells))
				if fractional {
					fractionalCharges(s)
				}
				p := fixtureParams(s.L, alpha)
				grid := mustGrid(t, p)
				diff := checkAgainstOracle(t, fmt.Sprintf("cells=%d alpha=%g fractional=%v", cells, p.Alpha, fractional), p, grid, s)
				// The 512-ion default fixture, in eV (measured: 1.1e-13).
				if cells == 4 && alpha == 0 && !fractional && diff > 5e-13 {
					t.Errorf("512 ions, default splitting: %.3g eV from the oracle, want at most 5e-13", diff)
				}
			}
		}
	}

	// A close approach: a pair below the table's 1 Å² floor, on the scalar
	// forms, beside pairs across the table up to the cutoff.
	s := meltLike(t, 2, 5.64, 1200, 7)
	fractionalCharges(s)
	s.Pos[3] = s.Pos[0].Add(vec.New(0.9, 0.3, -0.2)).Wrap(s.L)
	p := smallParams(s.L)
	grid := mustGrid(t, p)
	sorted, nbt := cellindex.Sort(grid, s.Pos), cellindex.BuildNeighborTable(grid, nil)
	if lo, hi, _ := rRange(sorted, nbt); !(lo < 1 && hi > 0.95*p.RCut) {
		t.Fatalf("close-approach fixture spans r in [%g, %g], want below 1 Å and up to the cutoff %g", lo, hi, p.RCut)
	}
	checkAgainstOracle(t, "close approach", p, grid, s)

	// The same box through the table with its top two octaves cut off: the
	// far pairs leave the domain for the scalar forms, and the result does
	// not depend on where the domain ends.
	short := *mustPotTable(t, p)
	short.span -= 2 << 52
	if _, hi, _ := rRange(sorted, nbt); !(hi*hi >= math.Ldexp(1, int(short.span>>52))) {
		t.Fatalf("short-domain fixture reaches r = %g, inside the table's %d octaves", hi, short.span>>52)
	}
	checkTableAgainstOracle(t, "pairs beyond the domain", &short, grid, s)

	// Far pairs: a one-cell grid cut at the box side, at a splitting so sharp
	// that the pairs past 0.47·L sit beyond x = 28, where erfc — and with it
	// every node E is fitted through and the shift — underflows to 0.
	s = meltLike(t, 1, 5.64, 1200, 8)
	p = fixtureParams(s.L, 60)
	grid = mustGrid(t, p)
	lo, hi, _ := rRange(cellindex.Sort(grid, s.Pos), cellindex.BuildNeighborTable(grid, nil))
	if lo, hi = p.Alpha*lo/p.L, p.Alpha*hi/p.L; !(lo < 28 && hi >= 28) {
		t.Fatalf("far-image fixture spans x in [%g, %g], want both sides of 28", lo, hi)
	}
	checkAgainstOracle(t, "far images", p, grid, s)
}

// TestHostPotentialEmptyWalk pins the two layouts whose walk gathers nothing
// to exactly 0: a cutoff so short (grid so fine) that no two of the 8 ions
// share a 27-cell neighborhood, and a single particle (whose 26 self images
// exist only on a grid of fewer than 3 cells a side — here 5).
func TestHostPotentialEmptyWalk(t *testing.T) {
	s := meltLike(t, 1, 5.64, 1200, 1)
	p := ewald.ParamsForAlpha(s.L, 14)
	grid := mustGrid(t, p)
	if grid.N != 5 {
		t.Fatalf("fixture grid %d³, want 5³", grid.N)
	}
	nbt := cellindex.BuildNeighborTable(grid, nil)
	sorted := cellindex.Sort(grid, s.Pos)
	if _, _, pairs := rRange(sorted, nbt); pairs != 0 {
		t.Fatalf("fixture walk reaches %d pairs, want none", pairs)
	}
	// A used gather and a warm stack must not leak a stale block into it.
	g, tbl := new(potGather), mustPotTable(t, p)
	if got := hostPotential(g, tbl, sorted, nbt, s); got != 0 {
		t.Errorf("walk without pairs: potential %g, want exactly 0", got)
	}

	one := &md.System{L: s.L, Pos: s.Pos[:1], Vel: s.Vel[:1], Mass: s.Mass[:1], Charge: s.Charge[:1], Type: s.Type[:1]}
	if got := hostPotential(g, tbl, cellindex.Sort(grid, one.Pos), nbt, one); got != 0 {
		t.Errorf("N=1: potential %g, want exactly 0", got)
	}
}

// potOccupancySystem builds a system whose cells hold prescribed particle
// counts, cycling through occ — the layout of mdgrape2's blocked-sweep test —
// so the gathered blocks end inside a run, at a run end and at an i change.
func potOccupancySystem(t *testing.T, occ []int) (*md.System, *cellindex.Grid) {
	t.Helper()
	const l, rcut = 12.0, 3.0
	grid, err := cellindex.NewGrid(l, rcut)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	s := &md.System{L: l}
	side := grid.N
	w := l / float64(side)
	for c := 0; c < side*side*side; c++ {
		cx, cy, cz := c%side, c/side%side, c/(side*side)
		for k := 0; k < occ[c%len(occ)]; k++ {
			s.Pos = append(s.Pos, vec.New(
				(float64(cx)+0.05+0.9*rng.Float64())*w,
				(float64(cy)+0.05+0.9*rng.Float64())*w,
				(float64(cz)+0.05+0.9*rng.Float64())*w))
			kind := rng.Intn(tosifumi.NumSpecies)
			s.Type = append(s.Type, kind)
			s.Charge = append(s.Charge, tosifumi.Charge(tosifumi.Species(kind))*(0.5+rng.Float64()))
		}
	}
	return s, grid
}

// TestHostPotentialBlockBoundaries walks cells of 0, 1, 63, 64, 65 and 131
// particles: a block that loses, repeats or never flushes a pair moves the
// sum by far more than the reassociation bound. The close random placement
// also puts many pairs below the table's 1 Å² floor, on the scalar forms.
// Prefixes of it pin the final partial block.
func TestHostPotentialBlockBoundaries(t *testing.T) {
	occ := []int{0, 1, potBlockLen - 1, potBlockLen, potBlockLen + 1, 2*potBlockLen + 3}
	s, grid := potOccupancySystem(t, occ)
	seen := map[int]bool{}
	for _, n := range cellindex.Sort(grid, s.Pos).Occupancies() {
		seen[n] = true
	}
	for _, n := range occ {
		if !seen[n] {
			t.Fatalf("no cell with occupancy %d in the fixture", n)
		}
	}
	p := ewald.Params{L: s.L, Alpha: 10, RCut: 3, LKCut: 1}
	checkAgainstOracle(t, "occupancies 0/1/63/64/65/131", p, grid, s)

	// Prefixes of the same system whose pair count is one short of, exactly,
	// and one past a whole number of blocks: the final drain sees 63, 0
	// (nothing left to flush) and 1 pairs.
	nbt := cellindex.BuildNeighborTable(grid, nil)
	for _, rem := range []int{potBlockLen - 1, 0, 1} {
		found := false
		for n := 2; n <= s.N() && !found; n++ {
			sub := &md.System{L: s.L, Pos: s.Pos[:n], Charge: s.Charge[:n], Type: s.Type[:n]}
			_, _, pairs := rRange(cellindex.Sort(grid, sub.Pos), nbt)
			if found = pairs > potBlockLen && pairs%potBlockLen == rem; found {
				checkAgainstOracle(t, fmt.Sprintf("%d pairs (%d in the last block)", pairs, rem), p, grid, sub)
			}
		}
		if !found {
			t.Errorf("no prefix of the fixture leaves %d pairs in the last block", rem)
		}
	}
}

// TestHostPotentialConcurrentMachines pins the ownership of the gather
// planes: two machines evaluating at once (what mdmserve does) share no
// state, so under -race this is silent and both read the solo value.
func TestHostPotentialConcurrentMachines(t *testing.T) {
	sa := meltLike(t, 2, 5.64, 1200, 3)
	sb := meltLike(t, 2, 5.64, 900, 4)
	fractionalCharges(sb)
	p := smallParams(sa.L)
	solo := func(s *md.System) float64 {
		m := newTestMachine(t, p)
		defer func() { _ = m.Free() }()
		_, pot, err := m.Forces(s)
		if err != nil {
			t.Fatal(err)
		}
		return pot
	}
	want := [2]float64{solo(sa), solo(sb)}
	var got [2]float64
	var wg sync.WaitGroup
	evaluate := func(k int, m *Machine, s *md.System) {
		defer wg.Done()
		for rep := 0; rep < 4; rep++ {
			_, pot, err := m.Forces(s)
			if err != nil {
				t.Error(err)
				return
			}
			got[k] = pot
		}
	}
	for k, s := range []*md.System{sa, sb} {
		m := newTestMachine(t, p)
		defer func() { _ = m.Free() }()
		wg.Add(1)
		go evaluate(k, m, s)
	}
	wg.Wait()
	if got != want {
		t.Errorf("concurrent machines read %v, solo %v", got, want)
	}
}

// TestSessionPotentialBitEqualToSerial pins that the decomposed session and
// the serial machine evaluate the potential through the same function over
// the same layout: bit-equal, not merely close.
func TestSessionPotentialBitEqualToSerial(t *testing.T) {
	s := meltLike(t, 2, 5.64, 600, 31)
	fractionalCharges(s)
	cfg := CurrentMachineConfig(smallParams(s.L))
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Free() }()
	_, want, err := m.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, nReal := range []int{1, 2} {
		world, err := mpi.NewWorld(nReal + 1)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := NewParallelRun(world, cfg, nReal, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := pr.Forces(s)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%d real ranks: potential %.17g, serial machine %.17g", nReal, got, want)
		}
		if err := pr.Free(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionPotentialFollowsRebuilds: over an NVE run at skin 0.5 that both
// reuses and rebuilds its layouts, a session reports the serial machine's
// potential bits at every step — its driver re-sorts the layout the host
// potential walks at each rebuild's reference, not once per engine.
func TestSessionPotentialFollowsRebuilds(t *testing.T) {
	s := meltLike(t, 2, 5.64, 1200, 31)
	cfg := CurrentMachineConfig(smallParams(s.L))
	cfg.Skin = 0.5
	world, err := mpi.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewParallelRun(world, cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pr.Free() }()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Free() }()
	var recs [2][]md.Record
	for k, eng := range []Engine{m, pr} {
		it, err := md.NewIntegrator(cloneSystem(s), eng, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		rec := &md.Recorder{}
		if err := it.Run(40, func(int) error { rec.Sample(it); return nil }); err != nil {
			t.Fatal(err)
		}
		recs[k] = rec.Records
	}
	if rebuilds, reuses := pr.JSetStats(); rebuilds < 3 || reuses == 0 {
		t.Fatalf("JSetStats = %d rebuilds, %d reuses; the run must rebuild after reusing", rebuilds, reuses)
	}
	for i, want := range recs[0] {
		if got := recs[1][i].PE; got != want.PE {
			t.Fatalf("step %d: session potential %.17g, serial machine %.17g", want.Step, got, want.PE)
		}
	}
}

// BenchmarkPotTableEvalInto reports the evaluator alone — address and two
// Horner chains — per argument, on blocks spread over default_n512's domain.
func BenchmarkPotTableEvalInto(b *testing.B) {
	p := smallParams(4 * 5.64)
	tbl := mustPotTable(b, p)
	rng := rand.New(rand.NewSource(1))
	var s, e, bm [potBlockLen]float64
	for k := range s {
		s[k] = math.Exp2(rng.Float64() * float64(len(tbl.rows)>>potSegBits))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.evalInto(e[:], bm[:], s[:])
	}
	benchSink = e[0] + bm[0]
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/potBlockLen, "ns/arg")
}

// BenchmarkHostPotential reports the potential walk per 27-cell half-pair
// candidate (the pairs it streams, of which the r_cut sphere is evaluated) on
// the served (N = 64, an empty slab index) and default (N = 512) geometries
// and at N = 1,728 (216 ions per cell, masks of four words), at the
// splitting mdm.NewSimulation picks for them.
func BenchmarkHostPotential(b *testing.B) {
	for _, cells := range []int{2, 4, 6} {
		s, err := md.NewRockSalt(cells, 5.64)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for i := range s.Pos {
			s.Pos[i] = s.Pos[i].Add(vec.New(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5).Scale(0.6)).Wrap(s.L)
		}
		p := smallParams(s.L)
		grid := mustGrid(b, p)
		sorted := cellindex.Sort(grid, s.Pos)
		nbt := cellindex.BuildNeighborTable(grid, nil)
		pairs := (sorted.OrderedPairCount() - s.N()) / 2
		b.Run(fmt.Sprintf("N=%d", s.N()), func(b *testing.B) {
			g, tbl := new(potGather), mustPotTable(b, p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = hostPotential(g, tbl, sorted, nbt, s)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
		})
	}
}

var benchSink float64
