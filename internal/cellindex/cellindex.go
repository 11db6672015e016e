// Package cellindex implements the cell-index (link-cell) method of Hockney
// and Eastwood used by MDGRAPE-2 to locate interacting particles (§2.2 of the
// paper).
//
// The simulation box is divided into cells at least r_cut wide; a particle
// interacts with particles in its own and the 26 surrounding cells. The
// MDGRAPE-2 board addresses particle memory through a cell-index counter and
// a particle-index counter, which requires the particles of each cell to
// occupy a contiguous index range ("We assumed that the indices of particles
// in a cell are contiguous"). Sorted reproduces exactly that memory layout:
// a permutation of the particles grouped by cell, with a start-offset table
// (the "cell memory" of Figure 9).
//
// A grid also records the interaction cutoff r_cut (Grid.Cutoff). The 27-cell
// neighbourhood is what the board streams; the pair set of every sum over the
// layout is the r_cut sphere inside it. A Verlet skin widens the cells
// (NewSkinGrid), never the cutoff, so it decides which out-of-cutoff pairs are
// streamed and nothing else. A cutoff walk computes only the neighbour runs
// whose cell can reach the sphere (ReachMask), and of those only the particles
// the slab index places in the particle's r_cut box (Sorted.Run); the stream
// it counts is still the whole cube.
//
// Two pair walkers are provided:
//
//   - ForEachOrderedPair visits every (i, j) with j in the 27 neighbor cells
//     of i's cell, with no distance test and no use of Newton's third law —
//     the candidate stream of the MDGRAPE-2 operation mode, whose operation
//     count is N_int_g ≈ 13 N_int.
//   - ForEachHalfPair visits every unordered pair within the cutoff exactly
//     once — the conventional-computer mode with Newton's third law (N_int).
package cellindex

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"mdm/internal/parallelize"
	"mdm/internal/soa"
	"mdm/internal/vec"
)

// Grid describes the cell decomposition of a cubic periodic box.
type Grid struct {
	L        float64 // box side
	N        int     // cells per side
	CellSize float64 // L / N (>= the cutoff plus any skin the grid was built for)
	Cutoff   float64 // interaction cutoff r_cut: walks keep pairs with r² < Cutoff²
	Skin     float64 // Verlet skin the cells were widened by: how far a stored j may drift from its cell
}

// NewGrid builds a grid for box side l with cells no smaller than rcut
// ("we set the size of a cell to a little larger than r_cut", §2.2), and
// records rcut as the grid's interaction cutoff. It returns an error if l or
// rcut is not positive or rcut > l.
func NewGrid(l, rcut float64) (*Grid, error) { return NewSkinGrid(l, rcut, 0) }

// NewSkinGrid builds a grid whose cells are at least rcut + skin wide and
// whose interaction cutoff is rcut: the 27-cell neighbourhood of a layout
// sorted on it still holds every pair within rcut after each particle has
// moved up to skin/2 (the Verlet-skin reuse of Sorted.Refresh).
func NewSkinGrid(l, rcut, skin float64) (*Grid, error) {
	if l <= 0 || rcut <= 0 || skin < 0 {
		return nil, fmt.Errorf("cellindex: non-positive box %g or cutoff %g, or negative skin %g", l, rcut, skin)
	}
	w := rcut + skin
	if w > l {
		return nil, fmt.Errorf("cellindex: cutoff %g plus skin %g exceeds box side %g", rcut, skin, l)
	}
	n := max(int(math.Floor(l/w)), 1)
	return &Grid{L: l, N: n, CellSize: l / float64(n), Cutoff: rcut, Skin: skin}, nil
}

// NumCells returns the total number of cells N³.
func (g *Grid) NumCells() int { return g.N * g.N * g.N }

// CellCoords returns the integer cell coordinates of a position (which is
// wrapped into the box first).
func (g *Grid) CellCoords(p vec.V) (ix, iy, iz int) {
	w := p.Wrap(g.L)
	ix = g.coord1(w.X)
	iy = g.coord1(w.Y)
	iz = g.coord1(w.Z)
	return ix, iy, iz
}

func (g *Grid) coord1(x float64) int {
	i := int(x / g.CellSize)
	if i >= g.N { // x == L after rounding
		i = g.N - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// Index flattens cell coordinates to a cell index in [0, NumCells).
func (g *Grid) Index(ix, iy, iz int) int {
	return (iz*g.N+iy)*g.N + ix
}

// Coords inverts Index.
func (g *Grid) Coords(c int) (ix, iy, iz int) {
	ix = c % g.N
	iy = (c / g.N) % g.N
	iz = c / (g.N * g.N)
	return ix, iy, iz
}

// CellOf returns the flat cell index of a position.
func (g *Grid) CellOf(p vec.V) int {
	ix, iy, iz := g.CellCoords(p)
	return g.Index(ix, iy, iz)
}

// Neighbor identifies one of the (up to 27) neighbor cells of a cell,
// together with the periodic image shift that must be added to the positions
// of its particles when computing displacements.
type Neighbor struct {
	Cell  int
	Shift vec.V
}

// Neighbors returns the 27 neighbor entries of cell c, c itself included, in
// the fixed order entry e = 9·(dz+1) + 3·(dy+1) + (dx+1) over the offsets
// dz, dy, dx ∈ {−1, 0, +1} (ReachMask's bits follow it). On grids with N < 3
// a cell is its own or its neighbour's neighbour through several image shifts;
// distinct offsets still give distinct (cell, shift) entries, so each physical
// image is one entry.
func (g *Grid) Neighbors(c int) []Neighbor {
	cx, cy, cz := g.Coords(c)
	out := make([]Neighbor, 0, 27)
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, sx := wrapCell(cx+dx, g.N)
				ny, sy := wrapCell(cy+dy, g.N)
				nz, sz := wrapCell(cz+dz, g.N)
				out = append(out, Neighbor{
					Cell:  g.Index(nx, ny, nz),
					Shift: vec.New(float64(sx)*g.L, float64(sy)*g.L, float64(sz)*g.L),
				})
			}
		}
	}
	return out
}

// reach is what a reach test knows of cell c's 27 neighbour entries: on each
// axis and for each offset d ∈ {−1, 0, +1}, the interval [lo, hi] that every
// j stored in that entry's cell lies in, displaced by the entry's image shift.
// It is the cell's unwrapped box (c+d)·CellSize … (c+d+1)·CellSize widened by
// skin/2, the drift Sorted.Refresh allows, and by reachSlack.
type reach struct {
	lo, hi [3][3]float64 // [axis][offset+1]
	cut2   float64
}

// reachSlack is δ, the margin a reach test adds to the j-side boxes, and the
// slab index to i's r_cut box, so that a skipped run or candidate holds no
// pair any walk keeps. A float32 walk (the pipelines') forms
// r⃗ = x_i − (x_j + s) from the stored words; with u = 2⁻²⁴, rounding
// x_j (|x_j| ≤ L + skin/2), the shift (L) and their sum (≤ 2L + skin/2) moves
// each component by at most u(4L + skin), and rounding the difference, the
// squares, their sum and float32(r_c²) costs at most 3u·r_c more: under
// 10u(L + skin) in all, as r_c ≤ L. Every float64 rounding — the sort's cell
// test, Refresh, a float64 walk and this test itself — is ~10⁻⁹ of that.
// 2⁻²⁰(L + skin) = 16u(L + skin) covers both.
func (g *Grid) reachSlack() float64 { return float64(0x1p-20 * (g.L + g.Skin)) }

// reachOf returns cell c's reach.
func (g *Grid) reachOf(c int) reach {
	w := float64(g.Skin/2) + g.reachSlack()
	cx, cy, cz := g.Coords(c)
	r := reach{cut2: g.Cutoff * g.Cutoff}
	for a, ca := range [3]int{cx, cy, cz} {
		for d := range 3 {
			r.lo[a][d] = float64(float64(ca+d-1)*g.CellSize) - w
			r.hi[a][d] = float64(float64(ca+d)*g.CellSize) + w
		}
	}
	return r
}

// gap2 is the squared distance from x to axis a's interval for offset d−1.
func (r *reach) gap2(a, d int, x float64) float64 {
	g := 0.0
	if x < r.lo[a][d] {
		g = r.lo[a][d] - x
	}
	if x > r.hi[a][d] {
		g = x - r.hi[a][d]
	}
	return float64(g * g)
}

// reaches reports whether neighbour entry e's box lies within the cutoff of
// (x, y, z): bit e of ReachMask, summed in the same order.
func (r *reach) reaches(e int, x, y, z float64) bool {
	return r.gap2(2, e/9, z)+r.gap2(1, e/3%3, y)+r.gap2(0, e%3, x) < r.cut2
}

// below is 1 if a squared gap is inside the cutoff, else 0.
func (r *reach) below(g2 float64) uint32 {
	if g2 < r.cut2 {
		return 1
	}
	return 0
}

// ReachMask returns, for a particle filed under cell c at stored coordinate
// (x, y, z), bit e set for each of c's neighbour entries (Neighbors' order)
// that can hold a pair within the cutoff of it. A cleared entry's box, widened
// by skin/2 for the drift a frozen layout allows and by a rounding margin,
// lies at least r_c away, so no j in it passes a walk's cutoff test — float64
// or the pipelines' float32 — and a cutoff walk that skips it keeps every pair
// in the same order.
func (g *Grid) ReachMask(c int, x, y, z float64) uint32 {
	r := g.reachOf(c)
	var gx, gy, gz [3]float64
	for d := range 3 {
		gx[d], gy[d], gz[d] = r.gap2(0, d, x), r.gap2(1, d, y), r.gap2(2, d, z)
	}
	var m uint32
	for e := 0; e < 27; e += 3 { // entries e, e+1, e+2 differ in dx only
		gzy := gz[e/9] + gy[e/3%3]
		m |= r.below(gzy+gx[0])<<e | r.below(gzy+gx[1])<<(e+1) | r.below(gzy+gx[2])<<(e+2)
	}
	return m
}

// NeighborTable caches Neighbors(c) for every cell of a grid — the "cell
// memory" contents the board FPGA computes once per grid geometry rather
// than once per particle. Enumerating neighbors through the table returns
// the exact slices Neighbors would, in the same order, without the per-call
// allocation.
type NeighborTable struct {
	g     *Grid
	lists [][]Neighbor
}

// BuildNeighborTable enumerates every cell's neighbors, the cells cut into
// chunks the pool's workers claim (a nil pool is serial; each cell's list is
// written by exactly one chunk, so the table is identical at any width).
// Small grids run serially: below serialCellsCutoff cells the goroutine
// handoff costs more than the enumeration itself.
func BuildNeighborTable(g *Grid, pool *parallelize.Pool) *NeighborTable {
	if g.NumCells() < serialCellsCutoff {
		pool = nil
	}
	t := &NeighborTable{g: g, lists: make([][]Neighbor, g.NumCells())}
	_ = pool.Run(g.NumCells(), func(_, lo, hi int) error {
		for c := lo; c < hi; c++ {
			t.lists[c] = g.Neighbors(c)
		}
		return nil
	})
	return t
}

// Grid returns the grid the table was built for.
func (t *NeighborTable) Grid() *Grid { return t.g }

// Of returns the cached neighbor list of cell c. The caller must not modify
// the returned slice.
func (t *NeighborTable) Of(c int) []Neighbor { return t.lists[c] }

// wrapCell wraps a cell coordinate into [0, n) and returns the image shift in
// whole boxes (-1, 0 or +1).
func wrapCell(i, n int) (wrapped, shift int) {
	if i < 0 {
		return i + n, -1
	}
	if i >= n {
		return i - n, +1
	}
	return i, 0
}

// Sorted is the contiguous-per-cell particle layout: the paper's particle
// memory plus cell memory, which is all the board knows between two host sorts
// (§2.2, §3.3, Fig. 9). Positions are stored as structure-of-arrays planes —
// the flat banked j-particle memory the board streams (§3.3) — with a float32
// mirror for the single-precision pipelines (one narrowing per particle per
// write instead of one per visited pair).
//
// The layout is frozen between sorts: SortInto decides each particle's cell,
// its slot and the periodic image it is stored on (the one inside the box),
// and Refresh changes none of the three — it only moves the stored coordinate
// along with the particle. Every pair walk over the layout, on either side of
// a pair, reads the cell and the coordinate from here, so the pair set and the
// image shifts decided at the sort stay valid for as long as the caller's
// Verlet-skin bound holds (no particle further than skin/2 from where it was
// sorted, on a grid whose cells are at least r_cut + skin wide).
type Sorted struct {
	Grid  *Grid
	Pos   soa.Coords   // positions in sorted order: in [0, L)³ after a sort, up to the skin bound outside after a Refresh
	P32   soa.Coords32 // float32(Pos) mirror, maintained by SortInto/Refresh
	Order []int        // Order[k] = original index of sorted particle k
	Slot  []int        // Slot[i] = sorted index of original particle i (the inverse of Order)
	Cell  []int        // Cell[i] = cell original particle i was sorted into
	Start []int        // len NumCells+1; cell c owns sorted indices [Start[c], Start[c+1])

	slab slabIndex // which stored particles lie in which part of their cell
}

// At returns sorted position k as a vector.
func (s *Sorted) At(k int) vec.V { return s.Pos.At(k) }

// Sort builds the sorted layout for the given positions.
func Sort(g *Grid, pos []vec.V) *Sorted {
	return SortPool(g, pos, nil)
}

// Serial cutoffs for the parallel phases. BENCH_1 measured the 3-phase
// parallel counting sort at 0.61–0.77× serial speed for the 216-particle
// NaCl cell at widths 2–8: below a few thousand elements the goroutine
// handoff and per-chunk count tables dominate the O(n) scan they split.
// The crossover benchmark (BenchmarkSortCrossover) pins the threshold.
const (
	serialSortCutoff  = 2048 // particles below which SortPool runs serially
	serialCellsCutoff = 1024 // cells below which BuildNeighborTable runs serially
)

// SortPool builds the sorted layout with the cell assignment and scatter
// phases cut into chunks the pool's workers claim (a nil pool is serial).
// The layout is bit-identical to Sort at any pool width: chunks are
// contiguous original-index ranges (Pool.NumShards, a function of n, the
// width and whether the pool lends) and each chunk scatters into slots reserved for it by a
// per-chunk/per-cell prefix sum taken in ascending chunk order, so within
// every cell the particles appear in ascending original index exactly as in
// the serial counting sort, whichever worker ran which chunk. Inputs below
// serialSortCutoff run serially regardless of pool width (same layout,
// cheaper).
func SortPool(g *Grid, pos []vec.V, pool *parallelize.Pool) *Sorted {
	return NewSorter(g).SortInto(nil, pos, pool)
}

// Sorter owns the scratch state of the counting sort (per-chunk count and
// scatter-base tables; the cell assignments are part of the layout) so
// repeated sorts over the same grid allocate nothing. One Sorter serves one
// caller at a time.
type Sorter struct {
	g      *Grid
	counts [][]int
	base   [][]int
}

// NewSorter returns a reusable sorter for the grid.
func NewSorter(g *Grid) *Sorter { return &Sorter{g: g} }

// Grid returns the grid the sorter sorts into.
func (so *Sorter) Grid() *Grid { return so.g }

// SortInto builds the sorted layout for pos into dst, reusing dst's buffers
// when their lengths match (a nil dst allocates a fresh Sorted). The layout
// is the same bit-identical counting sort as SortPool at every pool width,
// including the small-n serial cutoff.
func (so *Sorter) SortInto(dst *Sorted, pos []vec.V, pool *parallelize.Pool) *Sorted {
	g := so.g
	n := len(pos)
	nc := g.NumCells()
	if dst == nil {
		dst = &Sorted{}
	}
	dst.Grid = g
	if dst.Pos.Len() != n {
		dst.Pos = dst.Pos.Resize(n)
		dst.P32 = dst.P32.Resize(n)
	}
	if len(dst.Order) != n || len(dst.Start) != nc+1 {
		// One slab carved into the four index tables; the capped slices keep the
		// planes independent (an append can never cross into the neighbor).
		s := make([]int, 3*n+nc+1)
		dst.Order = s[0:n:n]
		dst.Slot = s[n : 2*n : 2*n]
		dst.Cell = s[2*n : 3*n : 3*n]
		dst.Start = s[3*n : 3*n+nc+1 : 3*n+nc+1]
	}
	if n < serialSortCutoff {
		pool = nil
	}
	chunks := pool.NumShards(n)
	for len(so.counts) < chunks {
		//mdm:hotallocok -- amortized scratch growth: grows to the chunk count once, then reuses across sorts
		so.counts = append(so.counts, nil)
		//mdm:hotallocok -- amortized scratch growth: grows to the chunk count once, then reuses across sorts
		so.base = append(so.base, nil)
	}
	counts := so.counts[:chunks]
	base := so.base[:chunks]
	for c := range counts {
		if len(counts[c]) != nc {
			counts[c] = make([]int, nc)
			base[c] = make([]int, nc)
		}
	}
	// Phase 1: cell assignment, one count table per chunk (zeroed in-chunk so
	// table reuse across calls is invisible).
	_ = pool.Run(n, func(chunk, lo, hi int) error {
		cnt := counts[chunk]
		for c := range cnt {
			cnt[c] = 0
		}
		for i := lo; i < hi; i++ {
			c := g.CellOf(pos[i])
			dst.Cell[i] = c
			cnt[c]++
		}
		return nil
	})
	// Phase 2 (serial): global cell offsets, then per-chunk scatter bases —
	// chunk s writes cell c starting at Start[c] + Σ_{t<s} counts[t][c].
	for c, k := 0, 0; c < nc; c++ {
		dst.Start[c] = k
		for _, cnt := range counts {
			k += cnt[c]
		}
	}
	dst.Start[nc] = n
	if chunks > 0 {
		copy(base[0], dst.Start[:nc])
		for s := 1; s < chunks; s++ {
			prev, cnt, b := base[s-1], counts[s-1], base[s]
			for c := 0; c < nc; c++ {
				b[c] = prev[c] + cnt[c]
			}
		}
	}
	// Phase 3: scatter. Slot ranges of different chunks are disjoint.
	_ = pool.Run(n, func(chunk, lo, hi int) error {
		fill := base[chunk]
		for i := lo; i < hi; i++ {
			c := dst.Cell[i]
			k := fill[c]
			fill[c]++
			w := pos[i].Wrap(g.L)
			dst.Pos.Set(k, w)
			dst.P32.Set(k, w)
			dst.Order[k] = i
			dst.Slot[i] = k
		}
		return nil
	})
	dst.indexSlabs()
	return dst
}

// Len returns the number of particles.
func (s *Sorted) Len() int { return s.Pos.Len() }

// CellRange returns the half-open sorted-index range of cell c — the paper's
// (jstart_c, jend_c) pair as read from the board's cell memory.
func (s *Sorted) CellRange(c int) (jstart, jend int) {
	return s.Start[c], s.Start[c+1]
}

// Refresh moves the stored coordinates to the current original-order positions
// without re-sorting. Cell, slot and periodic image stay as sorted: Pos[k]
// becomes the image of pos[Order[k]] nearest the coordinate already stored, so
// a particle that has crossed a box face since the sort is stored just outside
// [0, L) — next to the neighbors its cell's image shifts were worked out for —
// instead of an L away from them. pos may hold any image of a particle (the
// integrator re-wraps every step) provided it has moved less than L/2 since
// the last sort or Refresh; the Verlet-skin bound the caller keeps (rebuild
// once a displacement exceeds skin/2) is far inside that. pos must have the
// same length as the sorted layout.
func (s *Sorted) Refresh(pos []vec.V) {
	l := s.Grid.L
	for k, orig := range s.Order {
		p := pos[orig]
		p.X -= float64(l * math.Round((p.X-s.Pos.X[k])/l))
		p.Y -= float64(l * math.Round((p.Y-s.Pos.Y[k])/l))
		p.Z -= float64(l * math.Round((p.Z-s.Pos.Z[k])/l))
		s.Pos.Set(k, p)
		s.P32.Set(k, p)
	}
	s.indexSlabs()
}

// ForEachOrderedPair visits, for every sorted particle i, every sorted
// particle j in the 27 neighbor cells of i's cell (including i's own cell and
// including j == i), passing the displacement rij = ri - (rj + shift).
// No distance test is applied — this is the candidate stream of the MDGRAPE-2
// operation mode (§2.2): the board streams all N_int_g candidates through the
// pipelines, whose table is zero beyond the cutoff. The visit order is
// deterministic.
func (s *Sorted) ForEachOrderedPair(f func(i, j int, rij vec.V)) {
	g := s.Grid
	for c := 0; c < g.NumCells(); c++ {
		is, ie := s.CellRange(c)
		if is == ie {
			continue
		}
		nbrs := g.Neighbors(c)
		for i := is; i < ie; i++ {
			ri := s.Pos.At(i)
			for _, nb := range nbrs {
				js, je := s.CellRange(nb.Cell)
				for j := js; j < je; j++ {
					rij := ri.Sub(s.Pos.At(j).Add(nb.Shift))
					f(i, j, rij)
				}
			}
		}
	}
}

// OrderedPairCount returns the number of (i, j) visits ForEachOrderedPair
// makes; it equals N · N_int_g in the paper's notation.
func (s *Sorted) OrderedPairCount() int {
	count := 0
	g := s.Grid
	for c := 0; c < g.NumCells(); c++ {
		is, ie := s.CellRange(c)
		ni := ie - is
		if ni == 0 {
			continue
		}
		nj := 0
		for _, nb := range g.Neighbors(c) {
			js, je := s.CellRange(nb.Cell)
			nj += je - js
		}
		count += ni * nj
	}
	return count
}

// ForEachHalfPair visits every unordered (i, j, image) triple of the half
// walk whose squared distance is below the grid's Cutoff² exactly once,
// passing rij = ri - (rj + shift) — the r_cut sphere with Newton's third law,
// the conventional-computer mode (operation count N · N_int) and the one
// real-space pair set of the machine. The displacement and the test are
// float64; the visit order is forEachHalfRun's, with the same table contract,
// less the candidates ForEachHalfMask rules out, none of which it visits.
func (s *Sorted) ForEachHalfPair(nbt *NeighborTable, f func(i, j int, rij vec.V)) {
	cut2 := s.Grid.Cutoff * s.Grid.Cutoff
	px, py, pz := s.Pos.X, s.Pos.Y, s.Pos.Z
	s.ForEachHalfMask(nbt, func(i, base int, m uint64, shift vec.V) {
		xi, yi, zi := px[i], py[i], pz[i]
		for ; m != 0; m &= m - 1 {
			j := base + bits.TrailingZeros64(m)
			rij := vec.V{X: xi - (px[j] + shift.X), Y: yi - (py[j] + shift.Y), Z: zi - (pz[j] + shift.Z)}
			if rij.Norm2() < cut2 {
				f(i, j, rij)
			}
		}
	})
}

// ForEachHalfMask is the cutoff half walk's candidates, up to 64 stored
// particles at a time: forEachHalfRun's runs, less those whose cell cannot
// reach i's sphere (ReachMask), one call f(i, base, m, shift) per group of
// the slab index with a candidate — bit t of m set for each j = base + t of
// the run that may lie inside i's r_cut box. With an empty index (Slabs 1)
// every run arrives whole, 64 at a time, its masks full. Calls arrive in the
// walk's order and bits ascend with j, so a caller that takes them in
// ascending order visits the unmasked walk's pairs in its order.
func (s *Sorted) ForEachHalfMask(nbt *NeighborTable, f func(i, base int, m uint64, shift vec.V)) {
	g := s.Grid
	px, py, pz := s.Pos.X, s.Pos.Y, s.Pos.Z
	var r reach
	rc := -1 // the cell r describes
	if s.slab.m == 1 {
		// An empty index: every run streams whole.
		s.halfRuns(nbt, func(c, e, i, js, je int, nb Neighbor) {
			if c != rc {
				r, rc = g.reachOf(c), c
			}
			if !r.reaches(e, px[i], py[i], pz[i]) {
				return
			}
			for base := js; base < je; base += 64 {
				f(i, base, ^uint64(0)>>(64-min(je-base, 64)), nb.Shift)
			}
		})
		return
	}
	var face [3]float64
	var boxes [halfBoxes]Box // the boxes of cell rc's first halfBoxes particles
	is := 0                  // cell rc's first particle
	s.halfRuns(nbt, func(c, e, i, js, je int, nb Neighbor) {
		if c != rc {
			r, face, rc, is = g.reachOf(c), g.cellFaces(c), c, s.Start[c]
			for k := is; k < min(s.Start[c+1], is+halfBoxes); k++ {
				boxes[k-is] = s.box(face, px[k], py[k], pz[k])
			}
		}
		xi, yi, zi := px[i], py[i], pz[i]
		if !r.reaches(e, xi, yi, zi) {
			return
		}
		var b Box
		if i-is < halfBoxes {
			b = boxes[i-is]
		} else {
			b = s.box(face, xi, yi, zi)
		}
		run := s.Run(&b, e, nb.Cell)
		cs := s.Start[nb.Cell]
		for w := (js - cs) >> 6; cs+w<<6 < je; w++ {
			base := cs + w<<6
			m := run.Mask(w, min(je-base, 64))
			if base < js { // the own cell's j > i triangle
				m &^= 1<<(js-base) - 1
			}
			if m != 0 {
				f(i, base, m, nb.Shift)
			}
		}
	})
}

// halfBoxes is how many boxes of a cell's particles ForEachHalfMask keeps
// while it walks the cell's runs, entry by entry (1.5 KiB of stack); the
// boxes of a fuller cell's later particles are worked out per run. Working
// every box out per run made the N = 512 walk 30 % slower (EXPERIMENTS
// "Reach-masked walks").
const halfBoxes = 256

// halfRuns is forEachHalfRun's walk, naming each run's cell c and neighbour
// entry e (index and neighbour) as well.
func (s *Sorted) halfRuns(nbt *NeighborTable, f func(c, e, i, js, je int, nb Neighbor)) {
	g := s.Grid
	for c := 0; c < g.NumCells(); c++ {
		is, ie := s.CellRange(c)
		if is == ie {
			continue
		}
		var nbrs []Neighbor
		if nbt != nil {
			nbrs = nbt.Of(c)
		} else {
			nbrs = g.Neighbors(c)
		}
		for e, nb := range nbrs {
			own := nb.Cell == c && nb.Shift == vec.Zero
			if !own && !canonical(c, nb) {
				continue
			}
			js, je := s.CellRange(nb.Cell)
			for i := is; i < ie; i++ {
				if own { // the cell against itself: the j > i triangle
					js = i + 1
				}
				if js < je {
					f(c, e, i, js, je, nb)
				}
			}
		}
	}
}

// canonical decides which of the two directed visits of a cell pair is kept.
// Pairs between cell c and neighbor entry nb are seen twice (once from each
// side, with opposite shifts); keep the visit from the smaller cell index.
// nb must not be c's own zero-shift entry.
func canonical(c int, nb Neighbor) bool {
	if c != nb.Cell {
		return c < nb.Cell
	}
	// Same cell seen through a non-zero image shift S: the pair is also
	// visited from the other side with shift -S. Keep the visit whose first
	// non-zero shift component is positive.
	switch {
	case nb.Shift.X != 0:
		return nb.Shift.X > 0
	case nb.Shift.Y != 0:
		return nb.Shift.Y > 0
	}
	return nb.Shift.Z > 0
}

// Occupancies returns the sorted list of per-cell particle counts; useful for
// diagnostics and load-balance tests.
func (s *Sorted) Occupancies() []int {
	occ := make([]int, s.Grid.NumCells())
	for c := range occ {
		a, b := s.CellRange(c)
		occ[c] = b - a
	}
	sort.Ints(occ)
	return occ
}
