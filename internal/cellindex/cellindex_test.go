package cellindex

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mdm/internal/vec"
)

func randomPositions(n int, l float64, seed int64) []vec.V {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.V, n)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
	}
	return pos
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 1); err == nil {
		t.Error("zero box accepted")
	}
	if _, err := NewGrid(10, 0); err == nil {
		t.Error("zero cutoff accepted")
	}
	if _, err := NewGrid(10, 11); err == nil {
		t.Error("cutoff > box accepted")
	}
	g, err := NewGrid(10, 2.4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 {
		t.Errorf("N = %d, want 4", g.N)
	}
	if g.CellSize < 2.4 || g.Cutoff != 2.4 {
		t.Errorf("CellSize = %g, Cutoff = %g; want cells ≥ the cutoff 2.4", g.CellSize, g.Cutoff)
	}
	// A skin widens the cells, never the cutoff.
	g, err = NewSkinGrid(10, 2.4, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.Cutoff != 2.4 {
		t.Errorf("skin grid: N = %d, Cutoff = %g; want 3 cells of ≥ 3.0 and cutoff 2.4", g.N, g.Cutoff)
	}
	if _, err := NewSkinGrid(10, 2.4, -0.1); err == nil {
		t.Error("negative skin accepted")
	}
	if _, err := NewSkinGrid(10, 9, 1.5); err == nil {
		t.Error("cutoff + skin > box accepted")
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	g, _ := NewGrid(12, 2)
	for c := 0; c < g.NumCells(); c++ {
		x, y, z := g.Coords(c)
		if got := g.Index(x, y, z); got != c {
			t.Fatalf("round trip %d -> (%d,%d,%d) -> %d", c, x, y, z, got)
		}
	}
}

func TestCellOfWrapsPositions(t *testing.T) {
	g, _ := NewGrid(10, 2)
	inside := g.CellOf(vec.New(1, 1, 1))
	outside := g.CellOf(vec.New(11, -9, 21))
	if inside != outside {
		t.Errorf("CellOf should wrap: %d vs %d", inside, outside)
	}
}

func TestNeighbors27Distinct(t *testing.T) {
	g, _ := NewGrid(30, 3) // N = 10 >= 3
	for c := 0; c < g.NumCells(); c++ {
		nbrs := g.Neighbors(c)
		if len(nbrs) != 27 {
			t.Fatalf("cell %d: %d neighbors, want 27", c, len(nbrs))
		}
		seen := map[int]bool{}
		for _, nb := range nbrs {
			if seen[nb.Cell] {
				t.Fatalf("cell %d: duplicate neighbor cell %d", c, nb.Cell)
			}
			seen[nb.Cell] = true
		}
		if !seen[c] {
			t.Fatalf("cell %d missing itself", c)
		}
	}
}

// TestNeighborsSmallGrid pins Neighbors' fixed 27-entry order — entry
// 9·(dz+1) + 3·(dy+1) + (dx+1), the order ReachMask's bits follow — on the
// grids where a cell is its own or its neighbour's neighbour (N = 1, 2) and on
// N = 3, 4: every entry is the wrapped cell with the shift of the wrap, the 27
// (cell, shift) pairs are distinct, and the list is the one allocation.
func TestNeighborsSmallGrid(t *testing.T) {
	const l = 12.0
	for _, n := range []int{1, 2, 3, 4} {
		g, err := NewGrid(l, l/float64(n))
		if err != nil || g.N != n {
			t.Fatalf("N = %d: grid %+v, %v", n, g, err)
		}
		for c := 0; c < g.NumCells(); c++ {
			cx, cy, cz := g.Coords(c)
			nbrs := g.Neighbors(c)
			if len(nbrs) != 27 {
				t.Fatalf("N=%d cell %d: %d entries, want 27", n, c, len(nbrs))
			}
			seen := map[Neighbor]bool{}
			for e, nb := range nbrs {
				dx, dy, dz := e%3-1, e/3%3-1, e/9-1
				wx, sx := wrapCell(cx+dx, n)
				wy, sy := wrapCell(cy+dy, n)
				wz, sz := wrapCell(cz+dz, n)
				want := Neighbor{Cell: g.Index(wx, wy, wz), Shift: vec.New(float64(sx)*l, float64(sy)*l, float64(sz)*l)}
				if nb != want {
					t.Fatalf("N=%d cell %d entry %d (offset %d,%d,%d): %+v, want %+v", n, c, e, dx, dy, dz, nb, want)
				}
				if seen[nb] {
					t.Fatalf("N=%d cell %d: entry %d repeats %+v", n, c, e, nb)
				}
				seen[nb] = true
			}
			if nbrs[13] != (Neighbor{Cell: c}) {
				t.Fatalf("N=%d cell %d: centre entry %+v, want the cell itself unshifted", n, c, nbrs[13])
			}
		}
		if a := testing.AllocsPerRun(10, func() { g.Neighbors(0) }); a != 1 {
			t.Errorf("N=%d: Neighbors allocates %.0f times per call, want 1", n, a)
		}
	}
}

func TestSortedLayoutContiguous(t *testing.T) {
	g, _ := NewGrid(20, 4)
	pos := randomPositions(500, 20, 1)
	s := Sort(g, pos)
	if s.Len() != 500 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Every sorted particle must sit in the cell its range claims.
	total := 0
	for c := 0; c < g.NumCells(); c++ {
		a, b := s.CellRange(c)
		total += b - a
		for k := a; k < b; k++ {
			if got := g.CellOf(s.At(k)); got != c {
				t.Fatalf("sorted particle %d in range of cell %d but located in %d", k, c, got)
			}
		}
	}
	if total != 500 {
		t.Fatalf("ranges cover %d particles", total)
	}
	// Order must be a permutation, Slot its inverse, and Cell the cell whose
	// range holds the particle's slot.
	seen := make([]bool, 500)
	for k, o := range s.Order {
		if seen[o] {
			t.Fatalf("index %d appears twice in Order", o)
		}
		seen[o] = true
		if s.Slot[o] != k {
			t.Fatalf("Slot[%d] = %d, but Order[%d] = %d", o, s.Slot[o], k, o)
		}
		if a, b := s.CellRange(s.Cell[o]); k < a || k >= b {
			t.Fatalf("particle %d filed under cell %d, whose range [%d, %d) misses its slot %d", o, s.Cell[o], a, b, k)
		}
	}
}

func TestUnsort(t *testing.T) {
	g, _ := NewGrid(20, 4)
	pos := randomPositions(100, 20, 2)
	s := Sort(g, pos)
	dst := make([]vec.V, 100)
	s.Unsort(dst, s.Pos.AppendAoS(nil))
	for i := range pos {
		if vec.Dist(dst[i], pos[i].Wrap(20)) > 1e-12 {
			t.Fatalf("Unsort mismatch at %d: %v vs %v", i, dst[i], pos[i])
		}
	}
}

// brutePairs counts unordered pairs within rcut using the minimum image
// convention directly — the oracle for ForEachHalfPair.
func brutePairs(pos []vec.V, l, rcut float64) (count int, sumR float64) {
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			d := pos[i].Sub(pos[j]).MinImage(l).Norm()
			if d < rcut {
				count++
				sumR += d
			}
		}
	}
	return count, sumR
}

func TestHalfPairsMatchBruteForce(t *testing.T) {
	const l, rcut = 18.0, 4.5
	for seed := int64(0); seed < 5; seed++ {
		pos := randomPositions(300, l, seed)
		g, _ := NewGrid(l, rcut)
		s := Sort(g, pos)
		var count int
		var sumR float64
		s.ForEachHalfPair(nil, func(i, j int, rij vec.V) {
			count++
			sumR += rij.Norm()
		})
		wantCount, wantSum := brutePairs(pos, l, rcut)
		if count != wantCount {
			t.Errorf("seed %d: %d pairs, brute force %d", seed, count, wantCount)
		}
		if math.Abs(sumR-wantSum) > 1e-9*wantSum {
			t.Errorf("seed %d: sum |rij| = %g, want %g", seed, sumR, wantSum)
		}
	}
}

func TestHalfPairsSmallGridMatchesBruteForce(t *testing.T) {
	// N = 2 grid: a cell is its neighbour through two image shifts.
	const l, rcut = 10.0, 4.9
	pos := randomPositions(120, l, 7)
	g, _ := NewGrid(l, rcut)
	if g.N != 2 {
		t.Fatalf("N = %d, want 2", g.N)
	}
	s := Sort(g, pos)
	count := 0
	s.ForEachHalfPair(nil, func(i, j int, rij vec.V) { count++ })
	want, _ := brutePairs(pos, l, rcut)
	if count != want {
		t.Errorf("N=2 grid: %d pairs, brute force %d", count, want)
	}
}

func TestOrderedPairCount(t *testing.T) {
	const l, rcut = 20.0, 4.0
	pos := randomPositions(400, l, 3)
	g, _ := NewGrid(l, rcut)
	s := Sort(g, pos)
	visits := 0
	s.ForEachOrderedPair(func(i, j int, rij vec.V) { visits++ })
	if got := s.OrderedPairCount(); got != visits {
		t.Errorf("OrderedPairCount = %d, visits = %d", got, visits)
	}
	// Expectation: N * 27 * rho * cell³.
	rho := 400 / (l * l * l)
	want := 400 * 27 * rho * math.Pow(g.CellSize, 3)
	if math.Abs(float64(visits)-want) > 0.25*want {
		t.Errorf("ordered visits = %d, expected ≈ %g", visits, want)
	}
}

// The paper's key accounting claim (§2.2): N_int_g ≈ 13 N_int when the cell
// size is close to r_cut (27 / (2π/3) ≈ 12.9).
func TestCellIndexOverheadFactor(t *testing.T) {
	const l = 30.0
	const rcut = 3.0 // divides l exactly: cell size == rcut
	pos := randomPositions(3000, l, 4)
	g, _ := NewGrid(l, rcut)
	s := Sort(g, pos)
	ordered := s.OrderedPairCount()
	half := 0
	s.ForEachHalfPair(nil, func(i, j int, rij vec.V) { half++ })
	ratio := float64(ordered) / float64(half)
	want := 27.0 / (2.0 * math.Pi / 3.0) // ≈ 12.89
	if math.Abs(ratio-want) > 0.15*want {
		t.Errorf("N_int_g/N_int = %g, want ≈ %g (paper: ~13)", ratio, want)
	}
}

func TestOrderedPairsIncludeSelf(t *testing.T) {
	// The hardware does not skip i == j; the kernel must kill that term.
	g, _ := NewGrid(9, 3)
	pos := []vec.V{vec.New(1, 1, 1)}
	s := Sort(g, pos)
	self := 0
	s.ForEachOrderedPair(func(i, j int, rij vec.V) {
		if i == j && rij == vec.Zero {
			self++
		}
	})
	if self != 1 {
		t.Errorf("self visits = %d, want 1", self)
	}
}

// Property: every displacement reported by ForEachHalfPair is within rcut and
// consistent with the wrapped positions.
func TestHalfPairDisplacementProperty(t *testing.T) {
	f := func(seed int64) bool {
		const l, rcut = 15.0, 3.5
		pos := randomPositions(60, l, seed)
		g, _ := NewGrid(l, rcut)
		s := Sort(g, pos)
		ok := true
		s.ForEachHalfPair(nil, func(i, j int, rij vec.V) {
			if rij.Norm() >= rcut {
				ok = false
			}
			// rij must equal ri - rj modulo the box.
			d := s.At(i).Sub(s.At(j)).Sub(rij)
			for _, comp := range []float64{d.X, d.Y, d.Z} {
				k := comp / l
				if math.Abs(k-math.Round(k)) > 1e-9 {
					ok = false
				}
			}
		})
		return ok
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestOccupancies(t *testing.T) {
	g, _ := NewGrid(12, 3)
	pos := randomPositions(256, 12, 5)
	s := Sort(g, pos)
	occ := s.Occupancies()
	if len(occ) != g.NumCells() {
		t.Fatalf("len(occ) = %d", len(occ))
	}
	sum := 0
	for i, o := range occ {
		sum += o
		if i > 0 && occ[i] < occ[i-1] {
			t.Fatal("occupancies not sorted")
		}
	}
	if sum != 256 {
		t.Errorf("occupancy sum = %d", sum)
	}
}

func BenchmarkSort(b *testing.B) {
	g, _ := NewGrid(40, 4)
	pos := randomPositions(10000, 40, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sort(g, pos)
	}
}

func BenchmarkCellVsHalfPairs(b *testing.B) {
	const l, rcut = 24.0, 3.0
	pos := randomPositions(4000, l, 1)
	g, _ := NewGrid(l, rcut)
	s := Sort(g, pos)
	b.Run("ordered27", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			s.ForEachOrderedPair(func(i, j int, rij vec.V) { n++ })
		}
		_ = n
	})
	b.Run("halfNewton", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			s.ForEachHalfPair(nil, func(i, j int, rij vec.V) { n++ })
		}
		_ = n
	})
}

// imageKey identifies one unordered (i, j, image) triple: the pair with the
// smaller index first and the whole-box shift of the visit seen from it. A
// particle's own image (i == j) is the same triple under ±shift, so its sign
// is normalized to first-non-zero-component positive.
type imageKey struct{ i, j, sx, sy, sz int }

func imageKeyOf(s *Sorted, i, j int, rij vec.V) imageKey {
	// rij = ri - (rj + shift), so the shift is recovered to the nearest box.
	d := s.At(i).Sub(s.At(j)).Sub(rij).Scale(1 / s.Grid.L)
	k := imageKey{i, j, int(math.Round(d.X)), int(math.Round(d.Y)), int(math.Round(d.Z))}
	flip := i > j
	if i == j {
		flip = k.sx < 0 || k.sx == 0 && (k.sy < 0 || k.sy == 0 && k.sz < 0)
	}
	if flip {
		k = imageKey{j, i, -k.sx, -k.sy, -k.sz}
	}
	return k
}

// TestHalfPairTableVisitsEachImagePairOnce pins the cutoff-free half walk —
// forEachHalfRun's runs over the neighbor table, taken pair by pair — to the
// ordered walk it halves: the same (i, j, image) triples, each unordered one
// exactly once, the zero-shift self visits dropped — on every grid size with
// distinct image handling (N = 1, 2: a cell is its own neighbor through
// several shifts; N = 3: 27 distinct cells; N = 5: interior cells), with
// enough empty cells at N = 5 to exercise the skips. ForEachHalfPair is that
// walk with the cutoff: the triples of the half walk inside it.
func TestHalfPairTableVisitsEachImagePairOnce(t *testing.T) {
	const l, rcut = 10.0, 2.1
	for _, n := range []int{1, 2, 3, 5} {
		g := &Grid{L: l, N: n, CellSize: l / float64(n), Cutoff: rcut}
		pos := randomPositions(40, l, int64(n))
		s := Sort(g, pos)
		if n == 5 && s.Occupancies()[0] != 0 {
			t.Fatalf("N=5: expected empty cells with 40 particles in 125 cells")
		}
		ordered := map[imageKey]int{}
		s.ForEachOrderedPair(func(i, j int, rij vec.V) { ordered[imageKeyOf(s, i, j, rij)]++ })
		half := map[imageKey]int{}
		inside := map[imageKey]bool{}
		visits := 0
		nbt := BuildNeighborTable(g, nil)
		s.forEachHalfRun(nbt, func(i, js, je int, shift vec.V) {
			if js >= je || js < 0 || je > s.Len() {
				t.Errorf("N=%d: run [%d, %d) of particle %d is empty or out of range", n, js, je, i)
			}
			for j := js; j < je; j++ {
				rij := s.At(i).Sub(s.At(j).Add(shift))
				k := imageKeyOf(s, i, j, rij)
				half[k]++
				inside[k] = rij.Norm2() < rcut*rcut
				visits++
			}
		})
		want := (s.OrderedPairCount() - len(pos)) / 2
		if visits != want {
			t.Errorf("N=%d: %d half visits, want (ordered − N)/2 = %d", n, visits, want)
		}
		for k, c := range ordered {
			self := k.i == k.j && k.sx == 0 && k.sy == 0 && k.sz == 0
			switch {
			case self && c != 1, !self && c != 2:
				t.Fatalf("N=%d: ordered walk saw %+v %d times", n, k, c)
			case self && half[k] != 0:
				t.Errorf("N=%d: half walk visited self pair %+v", n, k)
			case !self && half[k] != 1:
				t.Errorf("N=%d: half walk visited %+v %d times, want 1", n, k, half[k])
			}
		}
		if len(half) != len(ordered)-len(pos) {
			t.Errorf("N=%d: half walk saw %d distinct triples, ordered walk %d + %d self", n, len(half), len(ordered)-len(pos), len(pos))
		}
		kept := 0
		s.ForEachHalfPair(nbt, func(i, j int, rij vec.V) {
			if k := imageKeyOf(s, i, j, rij); !inside[k] {
				t.Errorf("N=%d: ForEachHalfPair visited %+v at r = %g, outside the cutoff %g or off the half walk", n, k, rij.Norm(), rcut)
			}
			kept++
		})
		wantKept := 0
		for _, in := range inside {
			if in {
				wantKept++
			}
		}
		if kept != wantKept || kept == 0 {
			t.Errorf("N=%d: ForEachHalfPair visited %d triples, the half walk has %d inside the cutoff", n, kept, wantKept)
		}
	}
}

func TestHalfPairTableAllocatesNothing(t *testing.T) {
	const l = 10.0
	for _, n := range []int{1, 2, 3, 5} {
		g := &Grid{L: l, N: n, CellSize: l / float64(n), Cutoff: l / float64(n)}
		s := Sort(g, randomPositions(40, l, int64(n)))
		nbt := BuildNeighborTable(g, nil)
		sum := 0.0
		if avg := testing.AllocsPerRun(5, func() {
			s.ForEachHalfPair(nbt, func(i, j int, rij vec.V) { sum += rij.X })
		}); avg != 0 {
			t.Errorf("N=%d: half walk allocates %.1f per call, want 0", n, avg)
		}
	}
}

// Unsort scatters values indexed in sorted order back to original particle
// order: dst[Order[k]] = src[k]. dst and src must have the same length as the
// particle count.
func (s *Sorted) Unsort(dst, src []vec.V) {
	for k, orig := range s.Order {
		dst[orig] = src[k]
	}
}

// forEachHalfRun is the half walk itself — the 27-cell candidates with
// Newton's third law applied, each unordered (i, j, image) triple once, the
// (i, i, zero-shift) self visits dropped and a particle's own non-zero images
// kept — one callback per (i, neighbor-cell run): sorted particle i pairs with
// every sorted j in [js, je), each j displaced by the run's image shift. It
// applies no distance, reach or slab test (ForEachHalfMask does) and is the
// oracle the masked walks are pinned to. Runs arrive in fixed order (cell,
// neighbor entry, i) on the calling goroutine; empty runs are skipped. Which
// of a pair's two directed visits survives depends only on the (cell, neighbor
// entry) it arrives through, so the choice is made once per entry, not once
// per pair. Neighbor lists come from the prebuilt table (which must belong to
// s.Grid's geometry), so the walk allocates nothing; a nil table enumerates
// each cell's neighbors afresh.
func (s *Sorted) forEachHalfRun(nbt *NeighborTable, f func(i, js, je int, shift vec.V)) {
	s.halfRuns(nbt, func(_, _, i, js, je int, nb Neighbor) { f(i, js, je, nb.Shift) })
}
