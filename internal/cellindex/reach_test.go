package cellindex

import (
	"math"
	"math/rand"
	"testing"

	"mdm/internal/vec"
)

// reachLayout sorts a small adversarial configuration on an n-cells-a-side
// grid of cutoff rc and the given skin, then refreshes it to positions each at
// most skin/2 from where it was sorted — the frozen layout of a Verlet-skin
// reuse step. Particles sit on cell faces and at the box edge when sorted, some
// drift exactly skin/2 along an axis, and some are placed at r_c ± a few
// float32 ulps from the previous particle's refreshed position: the pairs a
// reach test is tightest on.
func reachLayout(n int, rc, skin float64, count int, seed int64) (*Sorted, error) {
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
	ulp := float64(math.Nextafter32(float32(rc), 2*float32(rc)) - float32(rc))
	p0 := make([]vec.V, count) // sorted from
	p1 := make([]vec.V, count) // refreshed to
	for k := range p0 {
		p := vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
		switch rng.Intn(4) {
		case 1: // on a cell face
			setAxis(&p, rng.Intn(3), float64(rng.Intn(g.N+1))*g.CellSize)
		case 2: // at the box edge
			setAxis(&p, rng.Intn(3), []float64{0, math.Nextafter(l, 0)}[rng.Intn(2)])
		}
		var d vec.V
		switch rng.Intn(3) {
		case 1: // anywhere in the ball of radius skin/2
			d = vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
			d = d.Scale(skin / 2 * rng.Float64() / max(d.Norm(), 1e-300))
		case 2: // exactly skin/2 along an axis
			setAxis(&d, rng.Intn(3), skin/2*float64(2*rng.Intn(2)-1))
		}
		p0[k], p1[k] = p, p.Add(d)
		if k > 0 && rng.Intn(2) == 0 { // r_c ± a few float32 ulps from the last one
			var u vec.V
			setAxis(&u, rng.Intn(3), float64(2*rng.Intn(2)-1))
			if rng.Intn(2) == 0 {
				u = vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
				u = u.Scale(1 / max(u.Norm(), 1e-300))
			}
			p1[k] = p1[k-1].Add(u.Scale(rc + float64(rng.Intn(9)-4)*ulp))
			p0[k] = p1[k].Sub(d)
		}
	}
	s := Sort(g, p0)
	s.Refresh(p1)
	return s, nil
}

func setAxis(v *vec.V, a int, x float64) {
	switch a {
	case 0:
		v.X = x
	case 1:
		v.Y = x
	default:
		v.Z = x
	}
}

// halfVisit is one pair a half walk keeps.
type halfVisit struct {
	i, j int
	rij  vec.V
}

// FuzzReachMask pins the reach mask's exactness: on frozen layouts at N = 1,
// 2, 3 and 5 cells a side, skin 0 and 0.5, every run holding a pair inside the
// cutoff — by the float64 test of a host walk or the float32 test of the
// pipelines, formed from the stored words as the sweep forms it — has its bit
// set, the per-entry test ForEachHalfMask applies agrees with the mask, and
// ForEachHalfPair keeps exactly the pairs, in exactly the order, of the
// unmasked half walk (forEachHalfRun) with its cutoff test. The slab index's
// masks have their own target, FuzzSlabMasks.
func FuzzReachMask(f *testing.F) {
	for k := 0; k < 8; k++ {
		f.Add(uint8(k), int64(k), uint8(40))
	}
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, count uint8) {
		n := []int{1, 2, 3, 5}[shape%4]
		skin := []float64{0, 0.5}[shape/4%2]
		const rc = 2.0
		s, err := reachLayout(n, rc, skin, 2+int(count%64), seed)
		if err != nil {
			t.Fatal(err)
		}
		g := s.Grid
		cut2, cut32 := rc*rc, float32(rc*rc)
		for c := 0; c < g.NumCells(); c++ {
			is, ie := s.CellRange(c)
			r := g.reachOf(c)
			for i := is; i < ie; i++ {
				pi := s.At(i)
				m64 := g.ReachMask(c, pi.X, pi.Y, pi.Z)
				pix, piy, piz := s.P32.X[i], s.P32.Y[i], s.P32.Z[i]
				m32 := g.ReachMask(c, float64(pix), float64(piy), float64(piz))
				for e, nb := range g.Neighbors(c) {
					if r.reaches(e, pi.X, pi.Y, pi.Z) != (m64>>e&1 == 1) {
						t.Fatalf("cell %d entry %d: per-entry reach test disagrees with the mask", c, e)
					}
					sx, sy, sz := float32(nb.Shift.X), float32(nb.Shift.Y), float32(nb.Shift.Z)
					js, je := s.CellRange(nb.Cell)
					for j := js; j < je; j++ {
						if r2 := pi.Sub(s.At(j).Add(nb.Shift)).Norm2(); r2 < cut2 && m64>>e&1 == 0 {
							t.Fatalf("N=%d skin=%g: sorted %d, entry %d masked off, but j=%d is at r²=%v < %v", n, skin, i, e, j, r2, cut2)
						}
						ex := pix - (s.P32.X[j] + sx)
						ey := piy - (s.P32.Y[j] + sy)
						ez := piz - (s.P32.Z[j] + sz)
						if r2 := ex*ex + ey*ey + ez*ez; r2 < cut32 && m32>>e&1 == 0 {
							t.Fatalf("N=%d skin=%g: sorted %d, entry %d masked off, but j=%d is at float32 r²=%v < %v", n, skin, i, e, j, r2, cut32)
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
			t.Fatalf("N=%d skin=%g: masked half walk keeps %d pairs, unmasked %d", n, skin, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("N=%d skin=%g: kept pair %d is %+v, unmasked walk has %+v", n, skin, k, got[k], want[k])
			}
		}
	})
}
