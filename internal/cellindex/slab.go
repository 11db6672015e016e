package cellindex

import "math"

// The slab index. ReachMask drops the neighbour runs whose cell cannot reach
// a particle's r_cut sphere; of the runs it keeps, most candidates still lie
// outside the sphere, and a walk pays for every one it computes. The index
// cuts each cell into m slabs per axis and records, per 64 stored particles,
// which slab each lies in; a walk then computes only the candidates inside
// i's r_cut box, [x − r_c − δ, x + r_c + δ] on each axis (δ = reachSlack,
// the margin that keeps a float32 pipeline's pair inside it), and takes them
// in ascending order, so it keeps exactly the unmasked walk's pairs in the
// unmasked walk's order.
//
// The slab map is monotone in the stored coordinate and its edge slabs are
// open-ended: a particle Refresh has moved out of its cell's box lies in the
// first or last slab, so no drift the skin allows moves it out of a query
// that covers where it is. The index is rebuilt from the stored coordinates at
// every SortInto and Refresh.

// Slab index geometry. Below slabOccupancy particles per cell on average a
// run is short enough that streaming it whole costs less than selecting from
// it (a 64-ion box at 8 per cell walks 27 % slower with the index), and m = 1:
// the index stays empty and every mask is full.
const (
	slabOccupancy = 32
	slabsDense    = 8
	slabWords     = 3 * (slabsDense + 1) // words per group of an index: m + 1 per axis
)

// slabsPerAxis is m for n particles in nc cells.
func slabsPerAxis(n, nc int) int {
	if n >= slabOccupancy*nc {
		return slabsDense
	}
	return 1
}

// slabIndex is the per-cell slab index of a sorted layout. A cell's particles
// form groups of 64 (the last one partial); a group holds, for each axis a,
// m + 1 cumulative words below[k], bit t of below[k] set when the group's
// particle t lies in a slab below k. below[0] is empty and below[m] holds the
// whole group, so below[k1+1] &^ below[k0] is the group's particles in slabs
// k0 … k1.
type slabIndex struct {
	m     int      // slabs per axis: 1 (the index is empty) or slabsDense
	inv   float64  // m / CellSize: slabs per unit length
	group []int32  // len NumCells+1: cell c's groups are [group[c], group[c+1])
	below []uint64 // group q's axis-a word k at q·slabWords + a(m+1) + k
}

// slabOf is the slab of coordinate v in a cell whose lower face is at lo:
// monotone in v, open-ended at both edges (a NaN is in slab 0).
func (x *slabIndex) slabOf(v, lo float64) int {
	t := float64(float64(v-lo) * x.inv)
	switch {
	case t >= slabsDense-1:
		return slabsDense - 1
	case t >= 1:
		return int(t)
	}
	return 0
}

// cellFaces returns the lower faces of cell c, one per axis.
func (g *Grid) cellFaces(c int) [3]float64 {
	cx, cy, cz := g.Coords(c)
	return [3]float64{float64(float64(cx) * g.CellSize), float64(float64(cy) * g.CellSize), float64(float64(cz) * g.CellSize)}
}

// indexSlabs rebuilds the slab index from the stored coordinates. Its storage
// is sized for the most groups n particles can form in nc cells, n/64 + nc,
// and kept while those stay the same, so a step's sort or Refresh allocates
// nothing.
func (s *Sorted) indexSlabs() {
	g := s.Grid
	n, nc := s.Len(), g.NumCells()
	x := &s.slab
	x.m = slabsPerAxis(n, nc)
	if x.m == 1 {
		return
	}
	const m1 = slabsDense + 1
	x.inv = slabsDense / g.CellSize
	if len(x.group) != nc+1 {
		x.group = make([]int32, nc+1)
	}
	if need := (n/64 + nc) * slabWords; len(x.below) < need {
		x.below = make([]uint64, need)
	}
	px, py, pz := s.Pos.X, s.Pos.Y, s.Pos.Z
	q := 0
	for c := 0; c < nc; c++ {
		x.group[c] = int32(q)
		face := g.cellFaces(c)
		is, ie := s.CellRange(c)
		for base := is; base < ie; base += 64 {
			w := x.below[q*slabWords : (q+1)*slabWords]
			clear(w)
			for k := base; k < min(base+64, ie); k++ {
				bit := uint64(1) << (k - base)
				w[x.slabOf(px[k], face[0])+1] |= bit
				w[m1+x.slabOf(py[k], face[1])+1] |= bit
				w[2*m1+x.slabOf(pz[k], face[2])+1] |= bit
			}
			for a := 0; a < slabWords; a += m1 {
				for k := a + 1; k < a+m1; k++ {
					w[k] |= w[k-1]
				}
			}
			q++
		}
	}
	x.group[nc] = int32(q)
}

// Slabs returns m, the slabs per axis of the layout's index: 1 when the index
// is empty and every mask full, the runs best streamed whole.
func (s *Sorted) Slabs() int { return s.slab.m }

// Box is a particle's r_cut box on the slab index: per axis, the slabs that
// the ends of [x − r_c − δ, x + r_c + δ] fall in, counted in slabs of the
// particle's own cell from its lower face (the neighbour at offset d on that
// axis starts d·m slabs up) and saturated to [−m, 2m], past which every
// offset's clamp to [0, m−1] reads the same.
type Box struct{ lo, hi [3]int8 }

// Box returns the r_cut box of a particle filed under cell c at stored
// coordinate (x, y, z).
func (s *Sorted) Box(c int, x, y, z float64) Box {
	if s.slab.m == 1 {
		return Box{}
	}
	return s.box(s.Grid.cellFaces(c), x, y, z)
}

func (s *Sorted) box(face [3]float64, x, y, z float64) Box {
	sl := &s.slab
	r := float64((s.Grid.Cutoff + s.Grid.reachSlack()) * sl.inv)
	ux := float64(float64(x-face[0]) * sl.inv)
	uy := float64(float64(y-face[1]) * sl.inv)
	uz := float64(float64(z-face[2]) * sl.inv)
	return Box{
		lo: [3]int8{span(ux - r), span(uy - r), span(uz - r)},
		hi: [3]int8{span(ux + r), span(uy + r), span(uz + r)},
	}
}

// span floors a slab coordinate, saturated to [−m, 2m] (a NaN to −m).
func span(t float64) int8 {
	switch {
	case !(t > -slabsDense):
		return -slabsDense
	case t >= 2*slabsDense:
		return 2 * slabsDense
	}
	return int8(math.Floor(t))
}

// Run is one neighbour run as a cutoff walk computes it: per group of 64
// particles of the run's cell, the mask of those inside a box.
type Run struct {
	g []uint64 // the cell's groups; nil when the index is empty
	o [6]uint8 // per axis, the offsets of below[k1+1] and below[k0] in a group
}

// Run returns the run of neighbour entry e (Neighbors' order), whose cell is
// cell, under box b. The empty index's case is small enough to inline.
func (s *Sorted) Run(b *Box, e, cell int) Run {
	if s.slab.m == 1 {
		return Run{}
	}
	return s.run(b, e, cell)
}

func (s *Sorted) run(b *Box, e, cell int) Run {
	sl := &s.slab
	const m, m1 = slabsDense, slabsDense + 1
	dx, dy, dz := (e%3-1)*m, (e/3%3-1)*m, (e/9-1)*m
	return Run{
		g: sl.below[int(sl.group[cell])*slabWords : int(sl.group[cell+1])*slabWords],
		o: [6]uint8{
			uint8(slabIn(int(b.hi[0])-dx) + 1), uint8(slabIn(int(b.lo[0]) - dx)),
			uint8(m1 + slabIn(int(b.hi[1])-dy) + 1), uint8(m1 + slabIn(int(b.lo[1])-dy)),
			uint8(2*m1 + slabIn(int(b.hi[2])-dz) + 1), uint8(2*m1 + slabIn(int(b.lo[2])-dz)),
		},
	}
}

// slabIn clamps a slab number to the cell's: the edge slabs are open-ended.
func slabIn(k int) int { return min(max(k, 0), slabsDense-1) }

// Mask returns group w's candidates: bit t set for the run's particle
// 64w + t if it may lie inside the box, of the n ≥ 1 the group holds.
func (r *Run) Mask(w, n int) uint64 {
	if r.g == nil {
		return ^uint64(0) >> (64 - n)
	}
	g := (*[slabWords]uint64)(r.g[w*slabWords:])
	return (g[r.o[0]] &^ g[r.o[1]]) & (g[r.o[2]] &^ g[r.o[3]]) & (g[r.o[4]] &^ g[r.o[5]])
}
