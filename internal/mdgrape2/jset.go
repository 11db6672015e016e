package mdgrape2

import (
	"fmt"

	"mdm/internal/cellindex"
	"mdm/internal/parallelize"
	"mdm/internal/vec"
)

// JSet is the particle data in the board memory layout: sorted by cell with
// contiguous ranges (the cell memory + particle memory of Fig. 9). Weights is
// the per-particle "charge" field of the particle memory ("The position,
// charge, and particle type of a particle j are supplied to both of the
// MDGRAPE-2 chips", §3.5.2): it multiplies the evaluated kernel for every pair
// involving that j particle. A nil Weights means 1 everywhere.
//
// Both sides of a pair are read from it. The i-particles of a force or
// potential call are the j-set's own leading particles — the first len(xi) of
// the positions it was built from: all of them on the serial machine, a rank's
// owned block ahead of its ghosts in a decomposed run — so particle i is the
// stored particle Sorted.Slot[i]: the walk starts from the cell it was sorted
// into and uses its stored coordinate word, the same word its j-side visits
// read. A pair is therefore frozen × frozen under JSetBuilder.Refresh (the
// pair set of the last Build on current coordinates, exactly what a host walk
// over Sorted sees), and a particle's visit to itself through its own cell's
// zero-shift entry is r⃗ = 0 to the bit wherever the particle is stored.
type JSet struct {
	Sorted  *cellindex.Sorted
	Types   []int     // particle type of each *sorted* particle
	Weights []float64 // per-sorted-particle kernel weight (hardware charge field)

	nbt *cellindex.NeighborTable // per-cell neighbor lists (the board cell memory)
}

// iSide returns what the board holds for i-particle i — the neighbor list of
// the cell it was sorted into and its stored single-precision coordinate —
// which of those 27 runs can hold a pair inside the cutoff
// (cellindex.Grid.ReachMask, bit e for entry e), and its r_cut box on the
// layout's slab index. A walk streams and counts every run and computes only
// the candidates of the reachable ones inside the box: the others hold no pair
// the pipelines keep.
func (js *JSet) iSide(i int) (nbrs []cellindex.Neighbor, reach uint32, box cellindex.Box, x, y, z float32) {
	s := js.Sorted
	k, c := s.Slot[i], s.Cell[i]
	x, y, z = s.P32.X[k], s.P32.Y[k], s.P32.Z[k]
	// The widening of i's stored word for the host's tests is exact.
	xw, yw, zw := float64(x), float64(y), float64(z)
	return js.nbt.Of(c), s.Grid.ReachMask(c, xw, yw, zw), s.Box(c, xw, yw, zw), x, y, z
}

// cutoffWord is the pipelines' squared cutoff: the host's r_cut squared and
// rounded once to a single. A pair at or beyond it is outside every table's
// non-zero range.
func cutoffWord(rcut float64) float32 { return float32(rcut * rcut) }

// ForEachPair visits, in sweep order, the pairs the pipelines evaluate for
// i-particle i: every j of its cell's 27 neighbour runs whose float32 squared
// distance from i is below the squared cutoff, through the sweep's own masks
// and gather, with the image shift of the run it came in. i's visit to itself
// is one of them (r = 0). It is the sweep's pair set, for oracles and
// diagnostics.
func (js *JSet) ForEachPair(i int, f func(j int, shift vec.V)) {
	nbrs, reach, box, pix, piy, piz := js.iSide(i)
	cut2 := cutoffWord(js.Sorted.Grid.Cutoff)
	var b pairBlock
	for e, nb := range nbrs {
		if reach&(1<<e) == 0 {
			continue
		}
		jstart, jend := js.Sorted.CellRange(nb.Cell)
		run := js.Sorted.Run(&box, e, nb.Cell)
		sx, sy, sz := float32(nb.Shift.X), float32(nb.Shift.Y), float32(nb.Shift.Z)
		for w, base := 0, jstart; base < jend; w, base = w+1, base+64 {
			for m := run.Mask(w, min(jend-base, 64)); m != 0; {
				b.n = 0
				m = b.gather(&js.Sorted.P32, base, m, pix, piy, piz, sx, sy, sz, cut2)
				for _, k := range b.j[:b.n] {
					f(k, nb.Shift)
				}
			}
		}
	}
}

// checkISide validates an i-block against the j-set and the board memory.
func (s *System) checkISide(xi []vec.V, ti []int, js *JSet) error {
	if len(xi) != len(ti) {
		return fmt.Errorf("mdgrape2: %d i-positions vs %d i-types", len(xi), len(ti))
	}
	if len(xi) > js.Sorted.Len() {
		return fmt.Errorf("mdgrape2: %d i-particles are not the leading particles of a %d-particle j-set", len(xi), js.Sorted.Len())
	}
	if js.Sorted.Len() > s.cfg.ParticleCapacity() {
		return fmt.Errorf("mdgrape2: %d j-particles exceed board particle memory capacity %d",
			js.Sorted.Len(), s.cfg.ParticleCapacity())
	}
	return nil
}

// NewJSet sorts raw particles into the board layout. types are given in the
// original (unsorted) order; the charge field defaults to 1.
func NewJSet(grid *cellindex.Grid, pos []vec.V, types []int) (*JSet, error) {
	return NewJSetWeighted(grid, pos, types, nil)
}

// NewJSetWeighted additionally loads the per-particle charge field (weights
// in original order; nil for all-ones). It is a one-shot, serial JSetBuilder;
// a caller that rebuilds per step or wants a pool width holds the builder.
func NewJSetWeighted(grid *cellindex.Grid, pos []vec.V, types []int, weights []float64) (*JSet, error) {
	if weights != nil && len(weights) != len(pos) {
		return nil, fmt.Errorf("mdgrape2: %d positions vs %d weights", len(pos), len(weights))
	}
	b := NewJSetBuilder(grid, nil)
	if _, err := b.Build(pos, types, nil); err != nil {
		return nil, err
	}
	js := b.js // a copy: the builder and its sort scratch die here
	if weights != nil {
		js.Weights = make([]float64, len(weights))
		for k, orig := range js.Sorted.Order {
			js.Weights[k] = weights[orig]
		}
	}
	return &js, nil
}

// JSetBuilder is the one construction path of a JSet, and amortizes it per
// step: the neighbor table is built once per grid, the counting-sort scratch
// and the sorted layout are reused across rebuilds, and Refresh moves the
// stored coordinates in place while the layout stays frozen (the Verlet-skin
// reuse contract of cellindex.Sorted: no particle has moved more than skin/2
// since the last Build). The returned JSet is owned by the builder and valid
// until the next Build or Refresh.
type JSetBuilder struct {
	nbt    *cellindex.NeighborTable
	sorter *cellindex.Sorter
	js     JSet
}

// NewJSetBuilder prepares a builder for the grid; the neighbor table is
// enumerated once here.
func NewJSetBuilder(grid *cellindex.Grid, pool *parallelize.Pool) *JSetBuilder {
	return &JSetBuilder{
		nbt:    cellindex.BuildNeighborTable(grid, pool),
		sorter: cellindex.NewSorter(grid),
	}
}

// NeighborTable exposes the builder's cached per-cell neighbor lists, so
// host-side pair walks over the built j-set can share them.
func (b *JSetBuilder) NeighborTable() *cellindex.NeighborTable { return b.nbt }

// Build (re)sorts the particles into the board layout, reusing all internal
// buffers. types are in original (unsorted) order; the charge field is 1.
func (b *JSetBuilder) Build(pos []vec.V, types []int, pool *parallelize.Pool) (*JSet, error) {
	if len(pos) != len(types) {
		return nil, fmt.Errorf("mdgrape2: %d positions vs %d types", len(pos), len(types))
	}
	b.js.Sorted = b.sorter.SortInto(b.js.Sorted, pos, pool)
	if len(b.js.Types) != len(types) {
		b.js.Types = make([]int, len(types))
	}
	for k, orig := range b.js.Sorted.Order {
		b.js.Types[k] = types[orig]
	}
	b.js.Weights = nil
	b.js.nbt = b.nbt
	return &b.js, nil
}

// Refresh moves the stored coordinates to the current original-order
// positions without re-sorting (cellindex.Sorted.Refresh): cells, slots and
// periodic images stay as built, on both sides of every pair. The caller
// guarantees the skin bound still holds (every displacement since the last
// Build ≤ skin/2).
func (b *JSetBuilder) Refresh(pos []vec.V) (*JSet, error) {
	if b.js.Sorted == nil {
		return nil, fmt.Errorf("mdgrape2: Refresh before Build")
	}
	if len(pos) != b.js.Sorted.Len() {
		return nil, fmt.Errorf("mdgrape2: %d positions vs %d sorted particles", len(pos), b.js.Sorted.Len())
	}
	b.js.Sorted.Refresh(pos)
	return &b.js, nil
}
