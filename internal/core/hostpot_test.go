package core

import (
	"errors"
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

// potTableTol is the evaluator's error bound in eV, a twentieth of the
// word's unit: the table's error never reaches a pair's rounding.
const potTableTol = 1e-11

// TestPotTableKernelError measures every kind's table against the scalar
// shifted pair energy over the whole domain, every segment sampled densely
// and at both ends, in eV: the word rounds each pair to 2⁻³² eV, so the table
// needs the energy to a fraction of that, absolutely (measured 1.3e-13 eV at
// every splitting, at the domain's floor; bound potTableTol). It also checks
// potDomainMax, the largest |u| in the domain the word's range is argued
// from (measured 5.2–8.0 eV, at 2 Å).
func TestPotTableKernelError(t *testing.T) {
	const perSegment = 256
	const potDomainMax = 10 // eV, the bound the word's range doc cites
	for _, c := range []struct {
		cells int
		alpha float64
	}{{4, 0}, {4, 9}, {4, 14}, {1, 60}} {
		p := fixtureParams(5.64*float64(c.cells), c.alpha)
		tbl := mustPotTable(t, p)
		var worst, biggest float64
		s, u := make([]float64, perSegment+1), make([]float64, perSegment+1)
		kind := make([]uint8, perSegment+1)
		for row := range tbl.rows {
			seg, pr := row/numPairKinds, row%numPairKinds
			lo := math.Float64frombits(tbl.lo + uint64(seg)<<potLocalBits)
			hi := math.Float64frombits(tbl.lo + uint64(seg+1)<<potLocalBits)
			for k := range s {
				s[k], kind[k] = lo+(hi-lo)*(float64(k)+0.37)/perSegment, uint8(pr)
			}
			s[0], s[perSegment] = lo, math.Nextafter(hi, 0)
			tbl.evalInto(u, s, kind)
			for k, sk := range s {
				want := tbl.pair(pr, sk)
				worst, biggest = math.Max(worst, math.Abs(u[k]-want)), math.Max(biggest, math.Abs(want))
			}
		}
		t.Logf("alpha=%.3g, %d rows: worst %.2g eV; largest |u| %.4g eV", p.Alpha, len(tbl.rows), worst, biggest)
		if !(worst <= potTableTol) {
			t.Errorf("alpha=%g: table off by %.3g eV, bound %g", p.Alpha, worst, potTableTol)
		}
		if biggest >= potDomainMax {
			t.Errorf("alpha=%g: a pair in the domain reaches %.4g eV, past potDomainMax %d", p.Alpha, biggest, potDomainMax)
		}
	}
}

// TestPotTableSharedFactorisation: each segment's rows, solved from one
// factorisation of the segment's nodes, equal each kind's system solved
// separately, word for word.
func TestPotTableSharedFactorisation(t *testing.T) {
	for _, alpha := range []float64{0, 9, 14} {
		tbl := mustPotTable(t, fixtureParams(4*5.64, alpha))
		var cheb, nodes, vals [potDegree + 1]float64
		funceval.ChebyshevNodes(cheb[:])
		for row, got := range tbl.rows {
			seg, pr := row/numPairKinds, row%numPairKinds
			lo := math.Float64frombits(tbl.lo + uint64(seg)<<potLocalBits)
			hi := math.Float64frombits(tbl.lo + uint64(seg+1)<<potLocalBits)
			mid, half := (lo+hi)/2, (hi-lo)/2
			for i, u := range cheb {
				x := lo + float64(u*(hi-lo))
				nodes[i] = (x - float64(mid)) / half
				vals[i] = tbl.pair(pr, x)
			}
			var want potRow
			if err := funceval.SolveVandermonde(want[:], nodes[:], vals[:]); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("alpha=%g, segment %d, kind %d: word %d is %.17g, a separate solve gives %.17g", alpha, seg, pr, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPotTableAddressingEdges walks the edges of the addressing: every power
// of two in the domain and the largest float64 below it land in adjacent
// segments at opposite ends of the local coordinate and still read the pair
// energy, the domain is exactly [2^potMinExp, 2^⌈log₂ r_c²⌉), and a pair
// outside it is the shifted scalar pair forms' word bit for bit.
func TestPotTableAddressingEdges(t *testing.T) {
	p := smallParams(4 * 5.64)
	tbl := mustPotTable(t, p)
	emax := potMinExp + len(tbl.rows)/numPairKinds>>potSegBits
	if top := p.RCut * p.RCut; !(math.Ldexp(1, emax) >= top && math.Ldexp(1, emax-1) < top) {
		t.Fatalf("domain ends at 2^%d, the sweep reaches r_c² = %g", emax, top)
	}
	// The shift is the scalar forms at the cutoff.
	if ec := p.RealPairEnergyR(1, 1, p.RCut); tbl.ec != ec {
		t.Errorf("E(r_c²) = %g, scalar form %g", tbl.ec, ec)
	}
	pr := uint8(tosifumi.Cl) + uint8(tosifumi.Na)
	if uc := tbl.tf.ShortEnergy(tosifumi.Cl, tosifumi.Na, p.RCut); tbl.uc[pr] != uc {
		t.Errorf("Cl–Na u(r_c) = %g, scalar form %g", tbl.uc[pr], uc)
	}
	// 2^e opens octave e at u = −1; the float64 before it closes octave e−1
	// just below u = +1. The first and the last of them are out.
	var inside []float64
	for e := potMinExp; e <= emax; e++ {
		inside = append(inside, math.Nextafter(math.Ldexp(1, e), 0), math.Ldexp(1, e))
	}
	outside := []float64{inside[0], inside[len(inside)-1], 3.1, 0.81, 1e-300, math.Ldexp(1, emax+1), 1e300, math.Inf(1), -4, math.NaN()}
	inside = inside[1 : len(inside)-1]

	u, kind := make([]float64, len(inside)), make([]uint8, len(inside))
	for k := range kind {
		kind[k] = pr
	}
	tbl.evalInto(u, inside, kind)
	for k, s := range inside {
		if want := tbl.pair(int(pr), s); !(math.Abs(u[k]-want) <= potTableTol) {
			t.Errorf("s = %x: table %g, scalar forms %g", s, u[k], want)
		}
	}
	u = u[:len(outside)]
	tbl.evalInto(u, outside, kind)
	for k, s := range outside {
		if !math.IsNaN(u[k]) {
			t.Errorf("s = %g is outside [2^%d, 2^%d) and the table answers %g", s, potMinExp, emax, u[k])
		}
		r := math.Sqrt(s)
		want := p.RealPairEnergyR(-1, 1, r) - -1*tbl.ec
		want += tbl.tf.ShortEnergy(tosifumi.Cl, tosifumi.Na, r) - tbl.uc[pr]
		got, ok := tbl.sum([]float64{s}, []uint8{pr})
		if held := math.Abs(want) < potPairMax; ok != held || held && got != potWord(want) {
			t.Errorf("s = %g: pair word %d (held %v), scalar forms %g (word %d, held %v)", s, got, ok, want, potWord(want), held)
		}
	}
}

// oraclePotential is the scalar walk the evaluator replaced, kept as its
// oracle: one closure call per half pair of the r_cut sphere, the general pair
// forms of ewald and tosifumi (math.Erfc, math.Exp, every division) at the
// species charges, each shifted by its own value at r_c, summed pair by pair
// in float64. abs is Σ|u_pair|, the magnitude the sum's own rounding scales
// with, and pairs the pairs summed, each of which the fixed-point word
// rounds by at most half a unit.
func oraclePotential(p ewald.Params, tf *tosifumi.Potential, sorted *cellindex.Sorted, nbt *cellindex.NeighborTable, s *md.System) (pot, abs float64, pairs int) {
	sorted.ForEachHalfPair(nbt, func(i, j int, rij vec.V) {
		r2 := rij.Norm2()
		if r2 == 0 {
			return
		}
		r := math.Sqrt(r2)
		si, sj := tosifumi.Species(s.Type[sorted.Order[i]]), tosifumi.Species(s.Type[sorted.Order[j]])
		qi, qj := tosifumi.Charge(si), tosifumi.Charge(sj)
		coul := p.RealPairEnergyR(qi, qj, r) - p.RealPairEnergyR(qi, qj, p.RCut)
		short := tf.ShortEnergy(si, sj, r) - tf.ShortEnergy(si, sj, p.RCut)
		pot += coul
		pot += short
		abs += math.Abs(coul + short)
		pairs++
	})
	return pot, abs, pairs
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

// sweepPotential is the real-space potential word a serial engine's sweep
// carries on s at splitting p, through table tbl (nil: the engine's own).
func sweepPotential(t testing.TB, p ewald.Params, tbl *potTable, s *md.System) int64 {
	t.Helper()
	m := newTestMachine(t, p)
	defer func() { _ = m.Free() }()
	if tbl != nil {
		m.real[0].pot.t = tbl
	}
	if _, _, err := m.Forces(s); err != nil {
		t.Fatal(err)
	}
	return m.realPot
}

// checkAgainstOracle compares the potential the sweep carries, through the
// evaluator fitted the way an engine fits it, with the scalar oracle.
func checkAgainstOracle(t *testing.T, name string, p ewald.Params, s *md.System) float64 {
	t.Helper()
	return checkTableAgainstOracle(t, name, mustPotTable(t, p), s)
}

// checkTableAgainstOracle holds the sweep's potential through tbl to 1e-13 of
// the oracle's — or, where that total is a cancellation residue, to 1e-15 of
// Σ|u_pair|, the rounding level of the oracle's own sum — plus half a word
// unit per pair, the word's rounding; and to exactly 0 where the walk meets
// no pair. It returns the absolute difference.
func checkTableAgainstOracle(t *testing.T, name string, tbl *potTable, s *md.System) float64 {
	t.Helper()
	grid := mustGrid(t, tbl.p)
	sorted := cellindex.Sort(grid, s.Pos)
	got := potEnergy(sweepPotential(t, tbl.p, tbl, s))
	want, abs, pairs := oraclePotential(tbl.p, tbl.tf, sorted, neighborTable(t, grid), s)
	if pairs == 0 {
		if got != 0 {
			t.Errorf("%s: no pair in the walk, potential %g, want exactly 0", name, got)
		}
		return 0
	}
	diff := math.Abs(got - want)
	if quant := float64(pairs) * math.Ldexp(1, -potFracBits-1); !(diff <= math.Max(1e-13*math.Abs(want), 1e-15*abs)+quant) {
		t.Errorf("%s (grid %d³): sweep %.17g vs scalar oracle %.17g (rel %.2g, %.2g of Σ|u|, %d pairs)",
			name, grid.N, got, want, diff/math.Abs(want), diff/abs, pairs)
	}
	return diff
}

// fractionalCharges replaces the ±1 charges by non-integer ones: the wave
// pass reads them, the real-space sweep reads the species charges.
func fractionalCharges(s *md.System) {
	for i := range s.Charge {
		s.Charge[i] *= 0.6 + 0.05*float64(i%9)
	}
}

func TestHostPotentialMatchesScalarOracle(t *testing.T) {
	for _, cells := range []int{1, 2, 3, 4} {
		for _, alpha := range []float64{0, 9, 14} { // 0: the suite's default splitting
			s := meltLike(t, cells, 5.64, 1200, int64(cells))
			p := fixtureParams(s.L, alpha)
			diff := checkAgainstOracle(t, fmt.Sprintf("cells=%d alpha=%g", cells, p.Alpha), p, s)
			// The 512-ion default fixture, in eV (measured: 1.1e-13 before
			// the fixed-point word; the word's rounding is ≈ 1e-8 of it).
			if cells == 4 && alpha == 0 && diff > 1e-7 {
				t.Errorf("512 ions, default splitting: %.3g eV from the oracle, want at most 1e-7", diff)
			}
		}
	}

	// A close approach and a coincident pair: a pair below the table's 1 Å²
	// floor, on the scalar forms, and one at r = 0, which the word drops as
	// the pipelines' zero force does, beside pairs across the table up to
	// the cutoff.
	s := meltLike(t, 2, 5.64, 1200, 7)
	s.Pos[3] = s.Pos[0].Add(vec.New(0.9, 0.3, -0.2)).Wrap(s.L)
	s.Pos[5] = s.Pos[2]
	p := smallParams(s.L)
	grid := mustGrid(t, p)
	sorted, nbt := cellindex.Sort(grid, s.Pos), neighborTable(t, grid)
	if lo, hi, _ := rRange(sorted, nbt); !(lo < 1 && hi > 0.95*p.RCut) {
		t.Fatalf("close-approach fixture spans r in [%g, %g], want below 1 Å and up to the cutoff %g", lo, hi, p.RCut)
	}
	checkAgainstOracle(t, "close approach", p, s)

	// The same box through the table with its top two octaves cut off: the
	// far pairs leave the domain for the scalar forms, and the result does
	// not depend on where the domain ends.
	short := *mustPotTable(t, p)
	short.span -= 2 << 52
	if _, hi, _ := rRange(sorted, nbt); !(hi*hi >= math.Ldexp(1, int(short.span>>52))) {
		t.Fatalf("short-domain fixture reaches r = %g, inside the table's %d octaves", hi, short.span>>52)
	}
	checkTableAgainstOracle(t, "pairs beyond the domain", &short, s)

	// Far pairs: a one-cell grid cut at the box side, at a splitting so sharp
	// that the pairs past 0.47·L sit beyond x = 28, where erfc — and with it
	// every node E is fitted through and the shift — underflows to 0.
	s = meltLike(t, 1, 5.64, 1200, 8)
	p = fixtureParams(s.L, 60)
	grid = mustGrid(t, p)
	lo, hi, _ := rRange(cellindex.Sort(grid, s.Pos), neighborTable(t, grid))
	if lo, hi = p.Alpha*lo/p.L, p.Alpha*hi/p.L; !(lo < 28 && hi >= 28) {
		t.Fatalf("far-image fixture spans x in [%g, %g], want both sides of 28", lo, hi)
	}
	checkAgainstOracle(t, "far images", p, s)
}

// TestPotentialRangeRefused: a pair so close that its energy is beyond the
// word (two ions 0.05 Å apart, where the r⁻⁸ term is ≈ 10¹² eV) fails a due
// call with errPotentialRange, which no retry clears, instead of wrapping
// into a wrong U; a call the potential is not due for still runs.
func TestPotentialRangeRefused(t *testing.T) {
	s := meltLike(t, 2, 5.64, 1200, 9)
	cfg := CurrentMachineConfig(smallParams(s.L))
	cfg.PotentialEvery = 2
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Free() }()
	if _, _, err := m.Forces(s); err != nil {
		t.Fatal(err)
	}
	s.Pos[3] = s.Pos[0].Add(vec.New(0.05, 0, 0)).Wrap(s.L)
	m.SetStep(1)
	if _, _, err := m.Forces(s); err != nil {
		t.Errorf("call the potential is not due for: %v", err)
	}
	m.SetStep(2)
	_, _, err = m.Forces(s)
	if !errors.Is(err, errPotentialRange) {
		t.Fatalf("due call on a pair 0.05 Å apart: %v, want errPotentialRange", err)
	}
	if f := triage(err); f.retry {
		t.Errorf("errPotentialRange triaged as retryable: %+v", f)
	}
}

// TestHostPotentialEmptyWalk pins the two layouts whose sweep keeps no pair
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
	if _, _, pairs := rRange(cellindex.Sort(grid, s.Pos), neighborTable(t, grid)); pairs != 0 {
		t.Fatalf("fixture walk reaches %d pairs, want none", pairs)
	}
	if got := sweepPotential(t, p, nil, s); got != 0 {
		t.Errorf("walk without pairs: potential word %d, want exactly 0", got)
	}
	one := &md.System{L: s.L, Pos: s.Pos[:1], Vel: s.Vel[:1], Mass: s.Mass[:1], Charge: s.Charge[:1], Type: s.Type[:1]}
	if got := sweepPotential(t, p, nil, one); got != 0 {
		t.Errorf("N=1: potential word %d, want exactly 0", got)
	}
}

// potOccupancySystem builds a system whose cells hold prescribed particle
// counts, cycling through occ — the layout of mdgrape2's blocked-sweep test —
// so an i's kept pairs fill none, one or several sweep blocks. Particles are
// placed at random at least 0.45 Å apart, so every pair energy fits the word.
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
			var r vec.V
			for free := false; !free; {
				r = vec.New(
					(float64(cx)+0.05+0.9*rng.Float64())*w,
					(float64(cy)+0.05+0.9*rng.Float64())*w,
					(float64(cz)+0.05+0.9*rng.Float64())*w)
				free = true
				for _, q := range s.Pos {
					if r.Sub(q).MinImage(l).Norm2() < 0.45*0.45 {
						free = false
						break
					}
				}
			}
			s.Pos = append(s.Pos, r)
			kind := rng.Intn(tosifumi.NumSpecies)
			s.Type = append(s.Type, kind)
			s.Charge = append(s.Charge, tosifumi.Charge(tosifumi.Species(kind)))
			s.Vel = append(s.Vel, vec.Zero)
			s.Mass = append(s.Mass, tosifumi.Mass(tosifumi.Species(kind)))
		}
	}
	return s, grid
}

// TestHostPotentialBlockBoundaries sweeps cells of 0, 1, 63, 64, 65 and 131
// particles, so i's kept pairs end a sweep block inside a run, at a run end
// and at i's last pair: a block the sink loses or sees twice moves the sum
// by far more than the bound. The close random placement also puts many
// pairs below the table's 1 Å² floor, on the scalar forms.
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
	checkAgainstOracle(t, "occupancies 0/1/63/64/65/131", p, s)
}

// TestPotWordEnds pins the fixed-point word's two ends. Resolution: a pair
// energy of one unit, 2^−32 eV, is one unit, half a unit rounds to even, and
// anything below it to 0. Range: the largest total the word holds, 2^63 − 1
// units (2^31 − 2^−32 eV), is exact from chunk words whose partial sums wrap
// twice in two's complement, and so is its negative.
func TestPotWordEnds(t *testing.T) {
	unit := math.Ldexp(1, -potFracBits)
	for _, c := range []struct {
		u    float64
		want int64
	}{
		{unit, 1}, {-unit, -1}, {unit / 2, 0}, {-unit / 2, 0}, {3 * unit / 2, 2}, {math.Nextafter(unit/2, 1), 1},
		{unit / 4, 0}, {0, 0}, {math.Ldexp(1, 30), 1 << 62}, {-math.Ldexp(1, 30), -1 << 62},
	} {
		if got := potWord(c.u); got != c.want {
			t.Errorf("potWord(%g eV) = %d, want %d", c.u, got, c.want)
		}
	}
	if got := potEnergy(1); got != unit {
		t.Errorf("one unit reads %g eV, want %g", got, unit)
	}
	for _, sign := range []float64{1, -1} {
		// 2^30 eV twice wraps past 2^63 units; taking 2^30 off wraps back;
		// then 2^29 … 2^−32 eV add the remaining 2^62 − 1 units.
		us := []float64{math.Ldexp(1, 30), math.Ldexp(1, 30), -math.Ldexp(1, 30)}
		for e := 29; e >= -potFracBits; e-- {
			us = append(us, math.Ldexp(1, e))
		}
		var p potSink
		p.Start(len(us))
		for k, u := range us {
			p.words[k].w = potWord(sign * u)
		}
		got, err := p.total()
		if want := int64(sign) * math.MaxInt64; err != nil || got != want {
			t.Errorf("sign %g: total %d units (%v), want %d", sign, got, err, want)
		}
		if e := potEnergy(got); e != sign*math.Ldexp(1, 31) {
			t.Errorf("sign %g: the largest total reads %g eV, want ±2^31 (its nearest float64)", sign, e)
		}
	}
}

// TestHostPotentialConcurrentMachines pins the ownership of the potential's
// words: two machines evaluating at once (what mdmserve does) share no
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

// BenchmarkPotTableSum reports the evaluator and the word alone — address,
// one Horner chain, rounding — per pair, on blocks spread over
// default_n512's domain and the four kinds.
func BenchmarkPotTableSum(b *testing.B) {
	p := smallParams(4 * 5.64)
	tbl := mustPotTable(b, p)
	rng := rand.New(rand.NewSource(1))
	var s [potBlockLen]float64
	var kind [potBlockLen]uint8
	for k := range s {
		s[k], kind[k] = math.Exp2(potMinExp+rng.Float64()*float64(len(tbl.rows)/numPairKinds>>potSegBits)), uint8(rng.Intn(numPairKinds))
	}
	b.ResetTimer()
	var w int64
	for i := 0; i < b.N; i++ {
		v, _ := tbl.sum(s[:], kind[:])
		w += v
	}
	benchSink = potEnergy(w)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(potBlockLen), "ns/pair")
}

// BenchmarkHostPotential reports what the potential adds to the fused sweep:
// the sweep of a serial engine's rank with and without its potSink, per half
// pair the sink keeps, on the served (N = 64) and default (N = 512)
// geometries and at N = 1,728 (216 ions per cell), at the splitting
// mdm.NewSimulation picks for them. The difference of the two readings is
// the potential's cost.
func BenchmarkHostPotential(b *testing.B) {
	for _, cells := range []int{2, 4, 6} {
		f := newSweepFixture(b, sweepGeometry{fmt.Sprintf("N=%d", 8*cells*cells*cells), cells, 0})
		r := &f.m.real[0].realRank
		grid := mustGrid(b, f.m.cfg.Ewald)
		pairs := (cellindex.Sort(grid, f.s.Pos).OrderedPairCount() - f.s.N()) / 2
		for _, due := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/potential=%v", f.name, due), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := r.sweep(f.s.Pos, f.s.Type, f.s.N(), due); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
			})
		}
	}
}

var benchSink float64
