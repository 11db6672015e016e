package mdgrape2

import (
	"fmt"

	"mdm/internal/vec"
)

// ComputePotentials evaluates the scalar pair sum p_i = scale_i · Σ_j b_ij ·
// φ(a_ij r²) through the pipelines, with φ loaded as a function table — the
// hardware's potential-energy mode (the paper evaluated the potential every
// 100 steps, §5). The walk and numerics match ComputeForces: the i-particles
// are the j-set's own leading particles, 27-cell candidates of which the pairs
// inside the cutoff are evaluated, float32 datapath, float64 accumulation.
// Each unordered pair is visited from both sides, so Σ p_i double counts: the
// total potential is Σ p_i / 2.
func (s *System) ComputePotentials(table string, co *Coeffs, xi []vec.V, ti []int, scaleI []float64, js *JSet) ([]float64, error) {
	tbl, err := s.Table(table)
	if err != nil {
		return nil, err
	}
	if err := s.checkISide(xi, ti, js); err != nil {
		return nil, err
	}
	if scaleI != nil && len(scaleI) != len(xi) {
		return nil, fmt.Errorf("mdgrape2: %d i-positions vs %d scales", len(xi), len(scaleI))
	}
	n := len(co.A)
	a32, b32 := co.quant32()
	pots := make([]float64, len(xi))
	chunkPairs := s.pairScratch(s.pool.NumShards(len(xi)))
	if err := s.pool.Run(len(xi), func(chunk, lo, hi int) error {
		cut2 := cutoffWord(js.Sorted.Grid.Cutoff)
		var pairs int64
		var blk pairBlock
		for i := lo; i < hi; i++ {
			if ti[i] < 0 || ti[i] >= n {
				return fmt.Errorf("mdgrape2: i-type %d outside coefficient RAM", ti[i])
			}
			nbrs, reach, box, pix, piy, piz := js.iSide(i)
			ta, tb := a32[ti[i]], b32[ti[i]]
			var acc float64
			for e, nb := range nbrs {
				jstart, jend := js.Sorted.CellRange(nb.Cell)
				pairs += int64(jend - jstart)
				if reach&(1<<e) == 0 {
					continue
				}
				run := js.Sorted.Run(&box, e, nb.Cell)
				sx, sy, sz := float32(nb.Shift.X), float32(nb.Shift.Y), float32(nb.Shift.Z)
				for w, base := 0, jstart; base < jend; w, base = w+1, base+64 {
					for m := run.Mask(w, min(jend-base, 64)); m != 0; {
						blk.n = 0
						m = blk.gather(&js.Sorted.P32, base, m, pix, piy, piz, sx, sy, sz, cut2)
						for k, jj := range blk.j[:blk.n] {
							tj := js.Types[jj]
							phi := tbl.Eval(ta[tj] * blk.r2[k])
							b := tb[tj]
							if js.Weights != nil {
								b *= float32(js.Weights[jj])
							}
							acc += float64(b * phi)
						}
					}
				}
			}
			if scaleI != nil {
				pots[i] = acc * scaleI[i]
			} else {
				pots[i] = acc
			}
		}
		chunkPairs[chunk] = pairs
		return nil
	}); err != nil {
		return nil, err
	}
	var pairs int64
	for _, p := range chunkPairs {
		pairs += p
	}
	s.stats.PairsEvaluated += pairs
	s.stats.IParticles += int64(len(xi))
	s.stats.Calls++
	return pots, nil
}
