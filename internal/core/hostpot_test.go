package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mdm/internal/cellindex"
	"mdm/internal/ewald"
	"mdm/internal/md"
	"mdm/internal/mpi"
	"mdm/internal/tosifumi"
	"mdm/internal/vec"
)

// ulpDiff is the distance between two finite float64 of the same sign in
// units in the last place.
func ulpDiff(a, b float64) uint64 {
	ia, ib := math.Float64bits(a), math.Float64bits(b)
	if ia > ib {
		return ia - ib
	}
	return ib - ia
}

// sameFloat is bit equality with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func TestExpIntoMatchesMath(t *testing.T) {
	var xs []float64
	// Dense sweep of the evaluated range, off any grid the reduction likes.
	for x := -float64(expRange); x <= expRange; x += 0.0137 {
		xs = append(xs, x)
	}
	xs = append(xs, -expRange, expRange, 0, math.Copysign(0, -1), 1e-300, -1e-300, 1e-9, -1e-9)
	// Both sides of every table-index boundary (x·128/ln2 a half-integer)
	// across the Born–Mayer and erfc argument range.
	for i := -9000; i <= 2000; i++ {
		edge := (float64(i) + 0.5) * math.Ln2 / 128
		xs = append(xs, math.Nextafter(edge, math.Inf(-1)), edge, math.Nextafter(edge, math.Inf(1)))
	}
	got := make([]float64, len(xs))
	expInto(got, xs)
	worst := uint64(0)
	for k, x := range xs {
		if d := ulpDiff(got[k], math.Exp(x)); d > worst {
			worst = d
			if d > 2 {
				t.Fatalf("expInto(%g) = %g, math.Exp %g: %d ulp", x, got[k], math.Exp(x), d)
			}
		}
	}
	t.Logf("%d arguments, worst %d ulp", len(xs), worst)

	// Outside the range every value is math.Exp's own.
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -746, -745.2, -744, -708.5, -700.0001,
		700.0001, 709.7, 709.9, 710, 1e300, -1e300}
	got = make([]float64, len(special))
	expInto(got, special)
	for k, x := range special {
		if !sameFloat(got[k], math.Exp(x)) {
			t.Errorf("expInto(%g) = %g, math.Exp %g", x, got[k], math.Exp(x))
		}
	}

	// Any length, in place.
	for _, n := range []int{0, 1, 63, 64, 65} {
		buf := make([]float64, n)
		for k := range buf {
			buf[k] = -30 + float64(k)*0.61
		}
		want := make([]float64, n)
		for k, x := range buf {
			want[k] = math.Exp(x)
		}
		expInto(buf, buf)
		for k := range buf {
			if ulpDiff(buf[k], want[k]) > 2 {
				t.Errorf("length %d element %d: %g vs %g", n, k, buf[k], want[k])
			}
		}
	}
}

func TestErfcStageMatchesMath(t *testing.T) {
	const split = 1 / 0.35
	var xs []float64
	for x := 1.25; x < 28; x += 0.00071 {
		xs = append(xs, x)
	}
	xs = append(xs, 1.25, math.Nextafter(1.25, 2), math.Nextafter(split, 0), split, math.Nextafter(split, 4),
		math.Nextafter(28, 0), 26.5, 27.2)
	inRange := len(xs)
	// The fallback ranges: close approach, far images, negatives, NaN, ±Inf, 0.
	xs = append(xs, math.Nextafter(1.25, 0), 1.2, 0.9, 0.84375, 0.5, 0.1, 1e-9, 1e-300, 0,
		28, math.Nextafter(28, 30), 40, 1e10, math.Inf(1),
		-0.3, -1.25, -2, -5.9, -6.1, -30, math.Inf(-1), math.NaN())
	worst := uint64(0)
	for lo := 0; lo < len(xs); lo += potBlockLen {
		x := xs[lo:min(lo+potBlockLen, len(xs))]
		s := make([]float64, len(x))
		for k, v := range x {
			s[k] = 1 / (v * v)
		}
		got := make([]float64, len(x))
		erfcStage(got, x, s)
		for k, v := range x {
			want := math.Erfc(v)
			if lo+k >= inRange {
				if !sameFloat(got[k], want) {
					t.Errorf("fallback erfcStage(%g) = %g, math.Erfc %g", v, got[k], want)
				}
				continue
			}
			if d := ulpDiff(got[k], want); d > worst {
				worst = d
				if d > 4 {
					t.Fatalf("erfcStage(%g) = %g, math.Erfc %g: %d ulp", v, got[k], want, d)
				}
			}
		}
	}
	t.Logf("%d arguments in [1.25, 28), worst %d ulp", inRange, worst)
}

// oraclePotential is the scalar walk the pipeline replaced, kept as its
// oracle: one closure call per half pair, the general pair forms of ewald and
// tosifumi (math.Erfc, math.Exp, every division), summed pair by pair.
func oraclePotential(p ewald.Params, tf *tosifumi.Potential, sorted *cellindex.Sorted, nbt *cellindex.NeighborTable, s *md.System) float64 {
	pot := 0.0
	sorted.ForEachHalfPairTable(nbt, func(i, j int, rij vec.V) {
		r2 := rij.Norm2()
		if r2 == 0 {
			return
		}
		r := math.Sqrt(r2)
		oi, oj := sorted.Order[i], sorted.Order[j]
		pot += p.RealPairEnergyR(s.Charge[oi], s.Charge[oj], r)
		pot += tf.ShortEnergy(tosifumi.Species(s.Type[oi]), tosifumi.Species(s.Type[oj]), r)
	})
	return pot
}

// xRange returns the smallest and largest erfc argument αr/L the half walk
// meets, and its pair count.
func xRange(p ewald.Params, sorted *cellindex.Sorted, nbt *cellindex.NeighborTable) (lo, hi float64, pairs int) {
	lo = math.Inf(1)
	sorted.ForEachHalfPairTable(nbt, func(_, _ int, rij vec.V) {
		if r := rij.Norm(); r != 0 {
			x := p.Alpha * r / p.L
			lo, hi = math.Min(lo, x), math.Max(hi, x)
			pairs++
		}
	})
	return lo, hi, pairs
}

// checkAgainstOracle compares the pipeline with the scalar oracle on one
// layout: within 1e-13 relative, and exactly 0 where the walk meets no pair.
func checkAgainstOracle(t *testing.T, name string, p ewald.Params, grid *cellindex.Grid, s *md.System) {
	t.Helper()
	tf := tosifumi.Default()
	sorted := cellindex.Sort(grid, s.Pos)
	nbt := cellindex.BuildNeighborTable(grid, nil)
	got := hostPotential(new(potGather), p, tf, sorted, nbt, s)
	want := oraclePotential(p, tf, sorted, nbt, s)
	if want == 0 {
		if got != 0 {
			t.Errorf("%s: no pair in the walk, potential %g, want exactly 0", name, got)
		}
		return
	}
	rel := math.Abs(got-want) / math.Abs(want)
	if !(rel <= 1e-13) {
		t.Errorf("%s (grid %d³): pipeline %.17g vs scalar oracle %.17g (rel %.2g)", name, grid.N, got, want, rel)
	}
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
				p := smallParams(s.L)
				if alpha != 0 {
					p = ewald.ParamsForAlpha(s.L, alpha)
				}
				grid, err := cellindex.NewGrid(p.L, p.RCut)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, fmt.Sprintf("cells=%d alpha=%g fractional=%v", cells, p.Alpha, fractional), p, grid, s)
			}
		}
	}

	// A close approach: pairs on math.Erfc's x < 1.25 branches beside pairs on
	// the rational's two ranges.
	s := meltLike(t, 2, 5.64, 1200, 7)
	fractionalCharges(s)
	s.Pos[3] = s.Pos[0].Add(vec.New(0.9, 0.3, -0.2)).Wrap(s.L)
	p := smallParams(s.L)
	grid, err := cellindex.NewGrid(p.L, p.RCut)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := xRange(p, cellindex.Sort(grid, s.Pos), cellindex.BuildNeighborTable(grid, nil))
	if !(lo < 0.84375 && hi > 1/0.35) {
		t.Fatalf("close-approach fixture spans x in [%g, %g], want below 0.84375 and above 1/0.35", lo, hi)
	}
	checkAgainstOracle(t, "close approach", p, grid, s)

	// Far images: a one-cell grid at a splitting so sharp that the box's own
	// images sit beyond x = 28, where erfc underflows to math.Erfc's 0 and the
	// Born–Mayer argument leaves expInto's range.
	s = meltLike(t, 1, 5.64, 1200, 8)
	p = ewald.Params{L: s.L, Alpha: 60, RCut: s.L, LKCut: 1}
	grid, err = cellindex.NewGrid(p.L, p.RCut)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ = xRange(p, cellindex.Sort(grid, s.Pos), cellindex.BuildNeighborTable(grid, nil))
	if !(lo < 28 && hi >= 28) {
		t.Fatalf("far-image fixture spans x in [%g, %g], want both sides of 28", lo, hi)
	}
	checkAgainstOracle(t, "far images", p, grid, s)
}

// TestHostPotentialEmptyWalk pins the two layouts whose walk gathers nothing
// to exactly 0: a grid so fine that no two of the 8 ions share a 27-cell
// neighborhood, and a single particle (whose 26 self images exist only on a
// grid of fewer than 3 cells a side — here 5).
func TestHostPotentialEmptyWalk(t *testing.T) {
	tf := tosifumi.Default()
	s := meltLike(t, 1, 5.64, 1200, 1)
	p := ewald.ParamsForAlpha(s.L, 14)
	grid, err := cellindex.NewGrid(p.L, p.RCut)
	if err != nil {
		t.Fatal(err)
	}
	if grid.N != 5 {
		t.Fatalf("fixture grid %d³, want 5³", grid.N)
	}
	nbt := cellindex.BuildNeighborTable(grid, nil)
	sorted := cellindex.Sort(grid, s.Pos)
	if _, _, pairs := xRange(p, sorted, nbt); pairs != 0 {
		t.Fatalf("fixture walk reaches %d pairs, want none", pairs)
	}
	// A used gather and a warm stack must not leak a stale block into it.
	g := new(potGather)
	if got := hostPotential(g, p, tf, sorted, nbt, s); got != 0 {
		t.Errorf("walk without pairs: potential %g, want exactly 0", got)
	}

	one := &md.System{L: s.L, Pos: s.Pos[:1], Vel: s.Vel[:1], Mass: s.Mass[:1], Charge: s.Charge[:1], Type: s.Type[:1]}
	if got := hostPotential(g, p, tf, cellindex.Sort(grid, one.Pos), nbt, one); got != 0 {
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
// also puts many pairs on the math.Erfc fallback.
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
			_, _, pairs := xRange(p, cellindex.Sort(grid, sub.Pos), nbt)
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

// BenchmarkHostPotential reports the potential pipeline per half pair on the
// served (N = 64) and default (N = 512) geometries, at the splitting
// mdm.NewSimulation picks for them.
func BenchmarkHostPotential(b *testing.B) {
	tf := tosifumi.Default()
	for _, cells := range []int{2, 4} {
		s, err := md.NewRockSalt(cells, 5.64)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for i := range s.Pos {
			s.Pos[i] = s.Pos[i].Add(vec.New(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5).Scale(0.6)).Wrap(s.L)
		}
		p := smallParams(s.L)
		grid, err := cellindex.NewGrid(p.L, p.RCut)
		if err != nil {
			b.Fatal(err)
		}
		sorted := cellindex.Sort(grid, s.Pos)
		nbt := cellindex.BuildNeighborTable(grid, nil)
		pairs := (sorted.OrderedPairCount() - s.N()) / 2
		b.Run(fmt.Sprintf("N=%d", s.N()), func(b *testing.B) {
			g := new(potGather)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = hostPotential(g, p, tf, sorted, nbt, s)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
		})
	}
}

var benchSink float64
