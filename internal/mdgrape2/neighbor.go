package mdgrape2

import (
	"fmt"

	"mdm/internal/parallelize"
	"mdm/internal/vec"
)

// Neighbor-list mode. §3.5.3: "Neighbor list RAM, which was not used in our
// simulation, can be used to search neighboring particles." The hardware can
// flag, during a cell-index pass, the j particles that actually fall within
// the cutoff of each i particle and store their indices; subsequent passes
// (e.g. the three short-range kernels of a Tosi–Fumi step) then iterate only
// over the stored lists, skipping the ~12/13 of the 27-cell candidates that
// contribute nothing.

// NeighborEntry identifies one stored neighbor: a sorted-j index plus the
// periodic image shift under which it was within the cutoff.
type NeighborEntry struct {
	J     int
	Shift vec.V
}

// NeighborList is the content of the neighbor-list RAMs for one i-particle
// block against one j-set.
type NeighborList struct {
	RCut  float64
	Lists [][]NeighborEntry // one list per i particle
	js    *JSet             // the j-set the indices refer to
}

// Entries returns the total stored entry count (RAM occupancy).
func (nl *NeighborList) Entries() int {
	n := 0
	for _, l := range nl.Lists {
		n += len(l)
	}
	return n
}

// BuildNeighborLists runs a distance-flagging cell-index pass and fills the
// neighbor-list RAM: for every i, the j entries (with image shift) whose
// pair distance is below rcut. Self pairs (distance zero) are never stored.
// The pass costs one full 27-cell walk (counted in the system statistics,
// as it occupies the pipelines on real hardware) and the stored entries must
// fit the per-board neighbor RAM.
func (s *System) BuildNeighborLists(xi []vec.V, js *JSet, rcut float64) (*NeighborList, error) {
	if rcut <= 0 {
		return nil, fmt.Errorf("mdgrape2: non-positive neighbor cutoff %g", rcut)
	}
	if js.Sorted.Len() > s.cfg.ParticleCapacity() {
		return nil, fmt.Errorf("mdgrape2: %d j-particles exceed board particle memory capacity %d",
			js.Sorted.Len(), s.cfg.ParticleCapacity())
	}
	grid := js.Sorted.Grid
	nl := &NeighborList{RCut: rcut, Lists: make([][]NeighborEntry, len(xi)), js: js}
	r2cut := rcut * rcut
	// Each i-particle owns its own list slot, so the flagging pass stripes
	// across the pool bit-identically: list contents and order are a pure
	// function of i.
	shardPairs := s.pairScratch(parallelize.NumShards(len(xi), s.pool.Workers()))
	_ = s.pool.Run(len(xi), func(shard, lo, hi int) error {
		var pairs int64
		for i := lo; i < hi; i++ {
			ci := grid.CellOf(xi[i])
			pix, piy, piz := float32(xi[i].X), float32(xi[i].Y), float32(xi[i].Z)
			for _, nb := range js.neighbors(ci) {
				jstart, jend := js.Sorted.CellRange(nb.Cell)
				sx, sy, sz := float32(nb.Shift.X), float32(nb.Shift.Y), float32(nb.Shift.Z)
				jx := js.Sorted.P32.X[jstart:jend]
				jy := js.Sorted.P32.Y[jstart:jend:jend]
				jz := js.Sorted.P32.Z[jstart:jend:jend]
				for jj := range jx {
					j := jstart + jj
					dx := pix - (jx[jj] + sx)
					dy := piy - (jy[jj] + sy)
					dz := piz - (jz[jj] + sz)
					r2 := float64(dx*dx + dy*dy + dz*dz)
					pairs++
					if r2 == 0 || r2 >= r2cut {
						continue
					}
					nl.Lists[i] = append(nl.Lists[i], NeighborEntry{J: j, Shift: nb.Shift})
				}
			}
		}
		shardPairs[shard] = pairs
		return nil
	})
	var pairs int64
	for _, p := range shardPairs {
		pairs += p
	}
	s.stats.PairsEvaluated += pairs
	s.stats.IParticles += int64(len(xi))
	s.stats.Calls++
	// Capacity: entries are spread across boards with the i particles.
	perBoard := (nl.Entries() + s.cfg.Boards() - 1) / s.cfg.Boards()
	if capacity := s.cfg.NeighborRAMEntries(); perBoard > capacity {
		return nil, fmt.Errorf("mdgrape2: %d neighbor entries per board exceed RAM capacity %d",
			perBoard, capacity)
	}
	return nl, nil
}

// ComputeForcesNL evaluates the same kernel as ComputeForces but iterates
// the stored neighbor lists instead of the 27-cell candidates. The semantic
// difference from the cell-index pass is exactly the cutoff: pairs beyond
// the list cutoff contribute nothing at all (the cell-index pass still
// evaluates their — tiny — kernel tails).
func (s *System) ComputeForcesNL(table string, co *Coeffs, xi []vec.V, ti []int, scaleI []float64, nl *NeighborList) ([]vec.V, error) {
	tbl, err := s.Table(table)
	if err != nil {
		return nil, err
	}
	if len(xi) != len(ti) || len(xi) != len(nl.Lists) {
		return nil, fmt.Errorf("mdgrape2: %d i-positions vs %d types vs %d lists", len(xi), len(ti), len(nl.Lists))
	}
	if scaleI != nil && len(scaleI) != len(xi) {
		return nil, fmt.Errorf("mdgrape2: %d i-positions vs %d scales", len(xi), len(scaleI))
	}
	js := nl.js
	n := len(co.A)
	for _, t := range ti {
		if t < 0 || t >= n {
			return nil, fmt.Errorf("mdgrape2: i-type %d outside coefficient RAM", t)
		}
	}
	a32, b32 := co.quant32()
	forces := make([]vec.V, len(xi))
	shardPairs := s.pairScratch(parallelize.NumShards(len(xi), s.pool.Workers()))
	if err := s.pool.Run(len(xi), func(shard, lo, hi int) error {
		var pairs int64
		for i := lo; i < hi; i++ {
			pix, piy, piz := float32(xi[i].X), float32(xi[i].Y), float32(xi[i].Z)
			ta, tb := a32[ti[i]], b32[ti[i]]
			var ax, ay, az float64
			for _, e := range nl.Lists[i] {
				dx := pix - (js.Sorted.P32.X[e.J] + float32(e.Shift.X))
				dy := piy - (js.Sorted.P32.Y[e.J] + float32(e.Shift.Y))
				dz := piz - (js.Sorted.P32.Z[e.J] + float32(e.Shift.Z))
				tj := js.Types[e.J]
				if tj < 0 || tj >= n {
					return fmt.Errorf("mdgrape2: j-type %d outside coefficient RAM", tj)
				}
				b := tb[tj]
				if js.Weights != nil {
					b *= float32(js.Weights[e.J])
				}
				bg := b * tbl.Eval(ta[tj]*(dx*dx+dy*dy+dz*dz))
				ax += float64(bg * dx)
				ay += float64(bg * dy)
				az += float64(bg * dz)
				pairs++
			}
			f := vec.New(ax, ay, az)
			if scaleI != nil {
				f = f.Scale(scaleI[i])
			}
			forces[i] = f
		}
		shardPairs[shard] = pairs
		return nil
	}); err != nil {
		return nil, err
	}
	var pairs int64
	for _, p := range shardPairs {
		pairs += p
	}
	s.stats.PairsEvaluated += pairs
	s.stats.IParticles += int64(len(xi))
	s.stats.Calls++
	return forces, nil
}

// ComputePotentials evaluates the scalar pair sum p_i = scale_i · Σ_j b_ij ·
// φ(a_ij r²) through the pipelines, with φ loaded as a function table — the
// hardware's potential-energy mode (the paper evaluated the potential every
// 100 steps, §5). The walk and numerics match ComputeForces: 27-cell
// candidates, no distance test, float32 datapath, float64 accumulation.
// Each unordered pair is visited from both sides, so Σ p_i double counts:
// the total potential is Σ p_i / 2.
func (s *System) ComputePotentials(table string, co *Coeffs, xi []vec.V, ti []int, scaleI []float64, js *JSet) ([]float64, error) {
	tbl, err := s.Table(table)
	if err != nil {
		return nil, err
	}
	if len(xi) != len(ti) {
		return nil, fmt.Errorf("mdgrape2: %d i-positions vs %d i-types", len(xi), len(ti))
	}
	if scaleI != nil && len(scaleI) != len(xi) {
		return nil, fmt.Errorf("mdgrape2: %d i-positions vs %d scales", len(xi), len(scaleI))
	}
	if js.Sorted.Len() > s.cfg.ParticleCapacity() {
		return nil, fmt.Errorf("mdgrape2: %d j-particles exceed board particle memory capacity %d",
			js.Sorted.Len(), s.cfg.ParticleCapacity())
	}
	n := len(co.A)
	a32, b32 := co.quant32()
	grid := js.Sorted.Grid
	pots := make([]float64, len(xi))
	shardPairs := s.pairScratch(parallelize.NumShards(len(xi), s.pool.Workers()))
	if err := s.pool.Run(len(xi), func(shard, lo, hi int) error {
		var pairs int64
		for i := lo; i < hi; i++ {
			if ti[i] < 0 || ti[i] >= n {
				return fmt.Errorf("mdgrape2: i-type %d outside coefficient RAM", ti[i])
			}
			pix, piy, piz := float32(xi[i].X), float32(xi[i].Y), float32(xi[i].Z)
			ta, tb := a32[ti[i]], b32[ti[i]]
			ci := grid.CellOf(xi[i])
			var acc float64
			for _, nb := range js.neighbors(ci) {
				jstart, jend := js.Sorted.CellRange(nb.Cell)
				sx, sy, sz := float32(nb.Shift.X), float32(nb.Shift.Y), float32(nb.Shift.Z)
				jx := js.Sorted.P32.X[jstart:jend]
				jy := js.Sorted.P32.Y[jstart:jend:jend]
				jz := js.Sorted.P32.Z[jstart:jend:jend]
				jt := js.Types[jstart:jend:jend]
				for jj := range jx {
					j := jstart + jj
					dx := pix - (jx[jj] + sx)
					dy := piy - (jy[jj] + sy)
					dz := piz - (jz[jj] + sz)
					tj := jt[jj]
					r2 := dx*dx + dy*dy + dz*dz
					phi := tbl.Eval(ta[tj] * r2)
					b := tb[tj]
					if js.Weights != nil {
						b *= float32(js.Weights[j])
					}
					acc += float64(b * phi)
					pairs++
				}
			}
			if scaleI != nil {
				pots[i] = acc * scaleI[i]
			} else {
				pots[i] = acc
			}
		}
		shardPairs[shard] = pairs
		return nil
	}); err != nil {
		return nil, err
	}
	var pairs int64
	for _, p := range shardPairs {
		pairs += p
	}
	s.stats.PairsEvaluated += pairs
	s.stats.IParticles += int64(len(xi))
	s.stats.Calls++
	return pots, nil
}
