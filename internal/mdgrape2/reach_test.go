package mdgrape2

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"mdm/internal/cellindex"
	"mdm/internal/vec"
)

// reachFixture builds a frozen j-set of count particles on an n-cells-a-side
// skin grid of cutoff rc: particles sorted on cell faces, on the boundaries of
// eight slabs per cell ± up to 4 ulps, and at the box edge, refreshed after a
// drift of 0 or exactly skin/2 along the face's axis, every other one then
// placed r_c ± a few float32 ulps from its predecessor along the same axis —
// the layouts a reach mask and the slab index are tightest on. At 32 or more
// particles per cell the layout is indexed.
func reachFixture(t *testing.T, n, count int, rc, skin float64, seed int64) (pos []vec.V, types []int, js *JSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := float64(n) * (rc + skin) * (1 + 0.5*rng.Float64()/float64(n))
	grid, err := cellindex.NewSkinGrid(l, rc, skin)
	if err != nil || grid.N != n {
		t.Fatalf("grid %+v for N = %d: %v", grid, n, err)
	}
	ulp := float64(math.Nextafter32(float32(rc), 2*float32(rc)) - float32(rc))
	faces := []float64{0, math.Nextafter(l, 0), grid.CellSize, float64(n-1) * grid.CellSize}
	for k := 1; k < 8*n; k++ {
		x := float64(k) * grid.CellSize / 8
		for range rng.Intn(5) {
			x = math.Nextafter(x, math.Inf(2*rng.Intn(2)-1))
		}
		faces = append(faces, x)
	}
	sorted, moved := make([]vec.V, count), make([]vec.V, count)
	types = make([]int, count)
	var a int // the axis a pair's face, drift and separation lie along
	for k := range sorted {
		if k%2 == 0 {
			a = rng.Intn(3)
		}
		p := [3]float64{rng.Float64() * l, rng.Float64() * l, rng.Float64() * l}
		p[a] = faces[rng.Intn(len(faces))]
		var d [3]float64
		d[a] = skin / 2 * float64(rng.Intn(3)-1)
		sorted[k] = vec.New(p[0], p[1], p[2])
		moved[k] = sorted[k].Add(vec.New(d[0], d[1], d[2]))
		if k%2 == 1 {
			var u [3]float64
			u[a] = (rc + float64(rng.Intn(9)-4)*ulp) * float64(2*rng.Intn(2)-1)
			moved[k] = moved[k-1].Add(vec.New(u[0], u[1], u[2]))
			sorted[k] = moved[k].Sub(vec.New(d[0], d[1], d[2]))
		}
		types[k] = k % 2
	}
	b := NewJSetBuilder(grid, nil)
	if _, err := b.Build(sorted, types, nil); err != nil {
		t.Fatal(err)
	}
	js, err = b.Refresh(moved)
	if err != nil {
		t.Fatal(err)
	}
	return moved, types, js
}

// streamOracle is the unmasked stream of i-particle i: every j of its cell's
// 27 runs in order, kept when the float32 r² formed from the stored words is
// below the cutoff word.
func streamOracle(js *JSet, i int, f func(j int, shift vec.V, r2 float32)) {
	s := js.Sorted
	k := s.Slot[i]
	pix, piy, piz := s.P32.X[k], s.P32.Y[k], s.P32.Z[k]
	cut2 := cutoffWord(s.Grid.Cutoff)
	for _, nb := range s.Grid.Neighbors(s.Cell[i]) {
		sx, sy, sz := float32(nb.Shift.X), float32(nb.Shift.Y), float32(nb.Shift.Z)
		jstart, jend := s.CellRange(nb.Cell)
		for j := jstart; j < jend; j++ {
			ex := pix - (s.P32.X[j] + sx)
			ey := piy - (s.P32.Y[j] + sy)
			ez := piz - (s.P32.Z[j] + sz)
			if r2 := ex*ex + ey*ey + ez*ez; r2 < cut2 {
				f(j, nb.Shift, r2)
			}
		}
	}
}

// TestReachMaskedWalksKeepEveryPair pins the three masked walks to the
// unmasked 27-run stream on frozen layouts at N = 1, 2, 3 and 5 cells a side,
// skin 0 and 0.5, sparse (reach mask only) and at 40 particles per cell (the
// slab index's masks too): JSet.ForEachPair keeps the same (j, shift)
// sequence for every i, the fused sweep equals the pair-by-pair oracle bit for
// bit, the potentials equal the stream's float64 sum bit for bit, and the
// stats still count every streamed candidate.
func TestReachMaskedWalksKeepEveryPair(t *testing.T) {
	sys, passes, _, _, _ := fusedFixture(t)
	for _, n := range []int{1, 2, 3, 5} {
		for _, skin := range []float64{0, 0.5} {
			for seed := int64(0); seed < 5; seed++ {
				count := 48
				if seed == 4 {
					count = 40 * n * n * n
				}
				pos, types, js := reachFixture(t, n, count, 2.5, skin, seed)
				if seed == 4 && js.Sorted.Slabs() == 1 {
					t.Fatalf("N=%d: %d particles left the slab index empty", n, count)
				}
				passes[0].ScaleI = passes[0].ScaleI[:0]
				for i := range pos {
					passes[0].ScaleI = append(passes[0].ScaleI, 0.5+float64(i%3))
				}
				kept := 0
				for i := range pos {
					type visit struct {
						j     int
						shift vec.V
					}
					var want, got []visit
					streamOracle(js, i, func(j int, shift vec.V, _ float32) { want = append(want, visit{j, shift}) })
					js.ForEachPair(i, func(j int, shift vec.V) { got = append(got, visit{j, shift}) })
					if len(got) != len(want) {
						t.Fatalf("N=%d skin=%g seed %d: i=%d keeps %d pairs, the unmasked stream %d", n, skin, seed, i, len(got), len(want))
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("N=%d skin=%g seed %d: i=%d pair %d is %+v, the unmasked stream has %+v", n, skin, seed, i, k, got[k], want[k])
						}
					}
					kept += len(want)
				}
				if kept <= len(pos) {
					t.Fatalf("N=%d skin=%g seed %d: %d kept pairs for %d particles; the fixture exercises nothing", n, skin, seed, kept, len(pos))
				}

				sys.ResetStats()
				got, err := fusedAoS(sys, passes, pos, types, js)
				if err != nil {
					t.Fatal(err)
				}
				want := oracleReference(t, sys, passes, pos, types, js)
				for i := range want {
					if !sameVecBits(got[i], want[i]) {
						t.Fatalf("N=%d skin=%g seed %d: force %d: sweep %v vs unmasked oracle %v", n, skin, seed, i, got[i], want[i])
					}
				}
				if st, stream := sys.Stats(), js.Sorted.OrderedPairCount(); st.PairsEvaluated != int64(len(passes)*stream) {
					t.Errorf("N=%d skin=%g seed %d: %d pairs counted, want %d passes × the %d-candidate stream", n, skin, seed, st.PairsEvaluated, len(passes), stream)
				}

				co := passes[1].Co
				pots, err := sys.ComputePotentials(passes[1].Table, co, pos, types, nil, js)
				if err != nil {
					t.Fatal(err)
				}
				tbl, _ := sys.Table(passes[1].Table)
				a32, b32 := co.quant32()
				for i := range pos {
					var acc float64
					streamOracle(js, i, func(j int, _ vec.V, r2 float32) {
						tj := js.Types[j]
						acc += float64(b32[types[i]][tj] * tbl.Eval(a32[types[i]][tj]*r2))
					})
					if math.Float64bits(pots[i]) != math.Float64bits(acc) {
						t.Fatalf("N=%d skin=%g seed %d: potential %d: %v vs unmasked stream %v", n, skin, seed, i, pots[i], acc)
					}
				}
			}
		}
	}
}

// TestSweepCandidatesAtDefaultGeometry pins the cut: on default_n512's
// geometry — 512 ions at a melt's uniform density in a 22.56 Å box, r_c =
// 0.45 L on a 2³ grid, 64 per cell — the sweep computes at most 460 of the
// 1,728 candidates it streams per i (440 here; the reach mask alone computed
// 1,104, and the cutoff keeps 197). The count is taken through the sweep's
// own iSide and masks. A mask that lets every candidate through passes every
// other test of the walks.
func TestSweepCandidatesAtDefaultGeometry(t *testing.T) {
	const l = 22.56
	pos, types, _ := naclSystem(512, l, 1)
	grid, err := cellindex.NewGrid(l, 0.45*l)
	if err != nil {
		t.Fatal(err)
	}
	js, err := NewJSet(grid, pos, types)
	if err != nil {
		t.Fatal(err)
	}
	var computed, kept int
	for i := range pos {
		nbrs, reach, box, _, _, _ := js.iSide(i)
		for e, nb := range nbrs {
			if reach&(1<<e) == 0 {
				continue
			}
			jstart, jend := js.Sorted.CellRange(nb.Cell)
			run := js.Sorted.Run(&box, e, nb.Cell)
			for w, base := 0, jstart; base < jend; w, base = w+1, base+64 {
				computed += bits.OnesCount64(run.Mask(w, min(jend-base, 64)))
			}
		}
		js.ForEachPair(i, func(int, vec.V) { kept++ })
	}
	perI := float64(computed) / float64(len(pos))
	t.Logf("sweep: %.1f candidates computed, %.1f kept per i", perI, float64(kept)/float64(len(pos)))
	if perI > 460 {
		t.Errorf("sweep computes %.1f candidates per i, ceiling 460", perI)
	}
}
