package cellindex

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"mdm/internal/vec"
)

// slabOccupancies are the cell occupancies the slab layouts cycle through:
// empty and single cells, one word of the index short, full and one past, and
// masks of three and four words. Their mean (77) is above slabOccupancy, so a
// layout of whole cycles is indexed.
var slabOccupancies = []int{0, 1, 63, 64, 65, 131, 216}

// slabLayout sorts a layout on an n-cells-a-side grid of cutoff rc and the
// given skin whose cells hold slabOccupancies in turn (rotated by the seed),
// then refreshes it to positions each at most skin/2 from where they were
// sorted. Particles sit anywhere in their cell, on a slab boundary of the
// index ± 4 float64 or float32 ulps along an axis, at 0 or L, or r_c ± 4
// float32 ulps from the previous particle; the drift is none, anywhere in the
// skin/2 ball, or exactly skin/2 along an axis.
func slabLayout(n int, rc, skin float64, seed int64) (*Sorted, error) {
	rng := rand.New(rand.NewSource(seed))
	w := rc + skin
	l := float64(n) * w
	if rng.Intn(3) > 0 { // otherwise cells exactly r_c + skin wide
		l *= 1 + 0.9*rng.Float64()/float64(n)
	}
	g, err := NewSkinGrid(l, rc, skin)
	if err != nil {
		return nil, err
	}
	slab := g.CellSize / slabsDense
	ulp32 := float64(math.Nextafter32(float32(rc), 2*float32(rc)) - float32(rc))
	var p0, p1 []vec.V // sorted from, refreshed to
	rot := int(uint64(seed) % uint64(len(slabOccupancies)))
	for c := 0; c < g.NumCells(); c++ {
		face := g.cellFaces(c)
		for range slabOccupancies[(c+rot)%len(slabOccupancies)] {
			var p [3]float64
			for a := range p {
				p[a] = face[a] + (0.02+0.96*rng.Float64())*g.CellSize
			}
			a := rng.Intn(3)
			switch rng.Intn(5) {
			case 1, 2: // on a slab boundary, a few ulps either side
				x := face[a] + float64(rng.Intn(slabsDense+1))*slab
				for range rng.Intn(5) {
					if rng.Intn(2) == 0 {
						x = math.Nextafter(x, math.Inf(2*rng.Intn(2)-1))
					} else {
						x += float64(2*rng.Intn(2)-1) * ulp32
					}
				}
				p[a] = x
			case 3: // at the box edge
				p[a] = []float64{0, l, math.Nextafter(l, 0)}[rng.Intn(3)]
			}
			var d vec.V
			switch rng.Intn(3) {
			case 1:
				d = vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
				d = d.Scale(skin / 2 * rng.Float64() / max(d.Norm(), 1e-300))
			case 2:
				setAxis(&d, rng.Intn(3), skin/2*float64(2*rng.Intn(2)-1))
			}
			q := vec.New(p[0], p[1], p[2])
			if k := len(p1); k > 0 && rng.Intn(3) == 0 { // r_c ± a few float32 ulps from the last one
				var u vec.V
				setAxis(&u, rng.Intn(3), float64(2*rng.Intn(2)-1))
				q = p1[k-1].Add(u.Scale(rc + float64(rng.Intn(9)-4)*ulp32)).Sub(d)
			}
			p0, p1 = append(p0, q), append(p1, q.Add(d))
		}
	}
	s := Sort(g, p0)
	s.Refresh(p1)
	return s, nil
}

// checkSlabMasks fails the test if a masked walk over s can drop a pair: for
// every stored i and neighbour entry, each j inside the cutoff — by the
// float64 test of a host walk from i's stored coordinate, or the float32 test
// of the pipelines from i's stored single-precision word — must have its bit
// set in the mask of the box the walk builds, and ForEachHalfPair must keep
// exactly the pairs, in exactly the order and with exactly the displacement
// bits, of the unmasked half walk.
func checkSlabMasks(t *testing.T, s *Sorted, name string) {
	t.Helper()
	g := s.Grid
	cut2, cut32 := g.Cutoff*g.Cutoff, float32(g.Cutoff*g.Cutoff)
	for c := 0; c < g.NumCells(); c++ {
		is, ie := s.CellRange(c)
		for i := is; i < ie; i++ {
			pi := s.At(i)
			pix, piy, piz := s.P32.X[i], s.P32.Y[i], s.P32.Z[i]
			b64 := s.Box(c, pi.X, pi.Y, pi.Z)
			b32 := s.Box(c, float64(pix), float64(piy), float64(piz))
			for e, nb := range g.Neighbors(c) {
				r64, r32 := s.Run(&b64, e, nb.Cell), s.Run(&b32, e, nb.Cell)
				sx, sy, sz := float32(nb.Shift.X), float32(nb.Shift.Y), float32(nb.Shift.Z)
				js, je := s.CellRange(nb.Cell)
				for j := js; j < je; j++ {
					w, bit := (j-js)/64, uint64(1)<<((j-js)%64)
					n := min(je-js-64*w, 64)
					if r2 := pi.Sub(s.At(j).Add(nb.Shift)).Norm2(); r2 < cut2 && r64.Mask(w, n)&bit == 0 {
						t.Fatalf("%s: sorted %d, entry %d: j=%d at r²=%v < %v is off its float64 box", name, i, e, j, r2, cut2)
					}
					ex := pix - (s.P32.X[j] + sx)
					ey := piy - (s.P32.Y[j] + sy)
					ez := piz - (s.P32.Z[j] + sz)
					if r2 := float32(ex*ex) + float32(ey*ey) + float32(ez*ez); r2 < cut32 && r32.Mask(w, n)&bit == 0 {
						t.Fatalf("%s: sorted %d, entry %d: j=%d at float32 r²=%v < %v is off its float32 box", name, i, e, j, r2, cut32)
					}
				}
			}
		}
	}
	var want, got []halfVisit
	s.forEachHalfRun(nil, func(i, js, je int, shift vec.V) {
		for j := js; j < je; j++ {
			if rij := s.At(i).Sub(s.At(j).Add(shift)); rij.Norm2() < cut2 {
				want = append(want, halfVisit{i, j, rij})
			}
		}
	})
	s.ForEachHalfPair(BuildNeighborTable(g, nil), func(i, j int, rij vec.V) {
		got = append(got, halfVisit{i, j, rij})
	})
	if len(got) != len(want) {
		t.Fatalf("%s: masked half walk keeps %d pairs, unmasked %d", name, len(got), len(want))
	}
	for k := range want {
		if got[k].i != want[k].i || got[k].j != want[k].j || !sameBits(got[k].rij, want[k].rij) {
			t.Fatalf("%s: kept pair %d is %+v, unmasked walk has %+v", name, k, got[k], want[k])
		}
	}
}

func sameBits(a, b vec.V) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// TestSlabMasksKeepEveryPair runs checkSlabMasks on indexed layouts at N = 1,
// 2, 3 and 5 cells a side, skin 0 and 0.5, whose cells hold 0 … 216
// particles (masks of up to four words).
func TestSlabMasksKeepEveryPair(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		for _, skin := range []float64{0, 0.5} {
			for seed := int64(n); seed < int64(n)+1+int64(5/n); seed++ {
				s, err := slabLayout(n, 2.0, skin, seed)
				if err != nil {
					t.Fatal(err)
				}
				if n > 1 && s.Slabs() != slabsDense {
					t.Fatalf("N=%d: %d particles in %d cells left the index empty", n, s.Len(), s.Grid.NumCells())
				}
				checkSlabMasks(t, s, "slab layout")
			}
		}
	}
}

// FuzzSlabMasks runs checkSlabMasks on fuzzed slab layouts at N = 1, 2 and 3
// cells a side, skin 0 and 0.5. N = 5 (9,625 particles, a tenth of a second a
// layout) is TestSlabMasksKeepEveryPair's alone, so the fuzz keeps its rate.
func FuzzSlabMasks(f *testing.F) {
	for k := 0; k < 6; k++ {
		f.Add(uint8(k), int64(k))
	}
	f.Fuzz(func(t *testing.T, shape uint8, seed int64) {
		n := []int{1, 2, 3}[shape%3]
		skin := []float64{0, 0.5}[shape/3%2]
		s, err := slabLayout(n, 2.0, skin, seed)
		if err != nil {
			t.Fatal(err)
		}
		checkSlabMasks(t, s, "fuzzed slab layout")
	})
}

// TestSlabsFollowOccupancy pins m to the layout's mean occupancy, with no
// other input: an empty index below slabOccupancy particles per cell, one of
// slabsDense slabs per axis at and above it.
func TestSlabsFollowOccupancy(t *testing.T) {
	g := &Grid{L: 8, N: 2, CellSize: 4, Cutoff: 4}
	for _, c := range []struct{ n, m int }{{0, 1}, {8 * 31, 1}, {8*32 - 1, 1}, {8 * 32, slabsDense}, {8 * 216, slabsDense}} {
		if s := Sort(g, randomPositions(c.n, g.L, 1)); s.Slabs() != c.m {
			t.Errorf("%d particles in 8 cells: %d slabs per axis, want %d", c.n, s.Slabs(), c.m)
		}
	}
}

// TestSlabIndexAllocatesNothing: once built, the index is rebuilt — at a
// Refresh, or at a re-sort of as many particles — in its own storage.
func TestSlabIndexAllocatesNothing(t *testing.T) {
	g := &Grid{L: 8, N: 2, CellSize: 4, Cutoff: 4}
	pos := randomPositions(8*80, g.L, 2)
	s := Sort(g, pos)
	if s.Slabs() == 1 {
		t.Fatal("fixture left the index empty")
	}
	if avg := testing.AllocsPerRun(5, func() {
		s.Refresh(pos)
		s.indexSlabs()
	}); avg != 0 {
		t.Errorf("rebuilding the index allocates %.1f per call, want 0", avg)
	}
}

// TestWalkCandidatesAtDefaultGeometry pins the cut: on default_n512's
// geometry — 512 ions of a rock-salt melt in a 22.56 Å box, r_c = 0.45 L on
// a 2³ grid, 64 per cell — the half walk computes at most 260 candidates per
// particle (245.5 here, of which the sphere keeps 94.5; the reach mask alone
// left about 552 of the 864 half-pair candidates). A mask that lets every
// candidate through passes every other test of the walks.
func TestWalkCandidatesAtDefaultGeometry(t *testing.T) {
	const a, cells = 5.64, 4
	l := a * cells
	g, err := NewGrid(l, 0.45*l)
	if err != nil {
		t.Fatal(err)
	}
	s := Sort(g, rockSalt(cells, a, 0.3, 1))
	var computed, kept int
	s.ForEachHalfMask(BuildNeighborTable(g, nil), func(_, _ int, m uint64, _ vec.V) { computed += bits.OnesCount64(m) })
	s.ForEachHalfPair(nil, func(int, int, vec.V) { kept++ })
	perI := float64(computed) / float64(s.Len())
	t.Logf("half walk: %.1f candidates computed, %.1f kept per particle", perI, float64(kept)/float64(s.Len()))
	if perI > 260 {
		t.Errorf("half walk computes %.1f candidates per particle, ceiling 260", perI)
	}
}

// rockSalt returns the ions of cells³ NaCl unit cells of side a, each moved
// by up to ±jitter/2 Å per axis.
func rockSalt(cells int, a, jitter float64, seed int64) []vec.V {
	rng := rand.New(rand.NewSource(seed))
	var pos []vec.V
	for x := 0; x < 2*cells; x++ {
		for y := 0; y < 2*cells; y++ {
			for z := 0; z < 2*cells; z++ {
				p := vec.New(float64(x), float64(y), float64(z)).Scale(a / 2)
				pos = append(pos, p.Add(vec.New(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5).Scale(jitter)))
			}
		}
	}
	return pos
}
