package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"mdm/internal/cellindex"
	"mdm/internal/ewald"
	"mdm/internal/md"
	"mdm/internal/mdgrape2"
	"mdm/internal/soa"
	"mdm/internal/vec"
)

// pairSetFixture is one melt and splitting of the pair-set tests: cells a
// side, α (0: the suite's default splitting).
type pairSetFixture struct {
	cells int
	alpha float64
}

var pairSetFixtures = []pairSetFixture{
	{2, 0}, {2, 9}, {2, 14},
	{3, 0}, {3, 9}, {3, 14},
	{4, 0}, {4, 9}, {4, 14},
}

func (f pairSetFixture) params(l float64) ewald.Params {
	if f.alpha == 0 {
		return smallParams(l)
	}
	return ewald.ParamsForAlpha(l, f.alpha)
}

// pairKey identifies one unordered (i, j, image) triple by original particle
// indices and the whole boxes n between the visit's displacement and the
// wrapped positions' difference: rij = w_i − w_j − n·L. The smaller index
// comes first; a particle's own image has its n normalized to first non-zero
// component positive.
type pairKey struct{ i, j, nx, ny, nz int }

func keyOf(s *md.System, i, j int, rij vec.V) pairKey {
	d := s.Pos[i].Wrap(s.L).Sub(s.Pos[j].Wrap(s.L)).Sub(rij).Scale(1 / s.L)
	k := pairKey{i, j, int(math.Round(d.X)), int(math.Round(d.Y)), int(math.Round(d.Z))}
	flip := i > j
	if i == j {
		flip = k.nx < 0 || k.nx == 0 && (k.ny < 0 || k.ny == 0 && k.nz < 0)
	}
	if flip {
		k = pairKey{j, i, -k.nx, -k.ny, -k.nz}
	}
	return k
}

// pairSets is what each of the three walks visited, and each triple's r² as
// the float64 walks saw it.
type pairSets struct {
	sweep, host, ref map[pairKey]int
	r2               map[pairKey]float64
}

// collectPairSets runs a skin machine on s for a few NVE steps — so the
// layout the last force call read is, at a non-zero skin, a refreshed one —
// and enumerates on the state it ends in: the sweep's kept pairs
// (JSet.ForEachPair, every i, the self visit dropped), the host potential's
// (the half of the sweep's blocks its potSink keeps, on the same layout) and
// the Reference's half walk (its own grid).
func collectPairSets(t *testing.T, s *md.System, p ewald.Params, skin float64) pairSets {
	t.Helper()
	cfg := CurrentMachineConfig(p)
	cfg.Skin = skin
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Free() }()
	it, err := md.NewIntegrator(s, m, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Run(4, nil); err != nil {
		t.Fatal(err)
	}
	js := m.real[0].js // the layout the last sweep read, word for word
	sets := pairSets{sweep: map[pairKey]int{}, host: map[pairKey]int{}, ref: map[pairKey]int{}, r2: map[pairKey]float64{}}
	sorted := js.Sorted
	for i := range s.Pos {
		k := sorted.Slot[i]
		js.ForEachPair(i, func(j int, shift vec.V) {
			if j == k && shift == vec.Zero {
				return
			}
			sets.sweep[keyOf(s, i, sorted.Order[j], sorted.At(k).Sub(sorted.At(j).Add(shift)))]++
		})
	}
	r := &m.real[0].realRank
	rec := &pairRecorder{sink: &r.pot}
	r.pot.js = js
	sys := r.mr1.System()
	sys.SetPairSink(rec)
	_, err = sys.ComputeForcesFusedInto(r.passes[:], s.Pos, s.Type, js, soa.Coords{})
	sys.SetPairSink(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rec.pairs {
		key := keyOf(s, p.i, sorted.Order[p.j], hostImage(t, sorted, sorted.Slot[p.i], p.j, p.r2))
		sets.host[key]++
		sets.r2[key] = p.r2
	}
	ref, err := NewReference(p)
	if err != nil {
		t.Fatal(err)
	}
	rs := cellindex.Sort(ref.grid, s.Pos)
	rs.ForEachHalfPair(nil, func(i, j int, rij vec.V) {
		k := keyOf(s, rs.Order[i], rs.Order[j], rij)
		sets.ref[k]++
		sets.r2[k] = rij.Norm2()
	})
	return sets
}

// pairRecorder is a PairSink that records each pair sink's orientation
// keeps: i-particle i, the sorted j and the float64 r² the word is evaluated
// at, from whichever worker runs the block.
type pairRecorder struct {
	sink  *potSink
	mu    sync.Mutex
	pairs []keptPair
}

type keptPair struct {
	i, j int
	r2   float64
}

func (r *pairRecorder) Start(int) {}

func (r *pairRecorder) Pairs(_, i int, blk *mdgrape2.PairBlock) {
	var b potBlock
	r.sink.keep(&b, i, blk)
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range b.n {
		r.pairs = append(r.pairs, keptPair{i, int(blk.J[b.at[k]]), b.r2[k]})
	}
}

// hostImage is the displacement of a pair the host potential kept: the one
// periodic image of stored particle j, shifted by −L, 0 or L per axis as the
// neighbour table shifts it, at which i's displacement, formed as the sink
// forms it, has the float64 word r2. With
// L ≥ 2·r_c there is one image inside the cutoff; the test fails if none or
// two give the word.
func hostImage(t *testing.T, sorted *cellindex.Sorted, i, j int, r2 float64) vec.V {
	t.Helper()
	l := sorted.Grid.L
	pi, pj := sorted.At(i), sorted.At(j)
	var rij vec.V
	found := 0
	for n := range 27 {
		sh := vec.New(float64(n%3-1)*l, float64(n/3%3-1)*l, float64(n/9-1)*l)
		d := vec.V{X: (pi.X - sh.X) - pj.X, Y: (pi.Y - sh.Y) - pj.Y, Z: (pi.Z - sh.Z) - pj.Z}
		if math.Float64bits(d.Norm2()) == math.Float64bits(r2) {
			rij, found = d, found+1
		}
	}
	if found != 1 {
		t.Fatalf("host pair (%d, %d) at r² = %v: %d images give that word, want 1", i, j, r2, found)
	}
	return rij
}

// TestOnePairSet: the MDGRAPE-2 sweep, the host potential and the Reference
// enumerate the same (i, j, image) triples — the r_cut sphere — on melts at 2,
// 3 and 4 cells a side, three splittings and skins 0 and 0.5: the sweep every
// triple twice (once from each side), the two half walks once. The one
// exception is a pair within rounding of r_cut, where the sweep's float32 r²
// and the walks' float64 r² (or two layouts' float64 words) may fall on
// opposite sides of the cutoff: a triple on which the walks disagree must have
// |r² − r_c²| ≤ 10⁻⁵·r_c², ten times the float32 datapath's reach at these
// box sides. Those pairs are counted and logged.
func TestOnePairSet(t *testing.T) {
	const tol = 1e-5
	borderline, triples := 0, 0
	for _, f := range pairSetFixtures {
		for _, skin := range []float64{0, 0.5} {
			s := meltLike(t, f.cells, 5.64, 1200, int64(f.cells))
			p := f.params(s.L)
			name := fmt.Sprintf("cells %d α %.3g skin %g", f.cells, p.Alpha, skin)
			sets := collectPairSets(t, s, p, skin)
			union := map[pairKey]bool{}
			for _, m := range []map[pairKey]int{sets.sweep, sets.host, sets.ref} {
				for k := range m {
					union[k] = true
				}
			}
			rc2 := p.RCut * p.RCut
			for k := range union {
				if sets.sweep[k] == 2 && sets.host[k] == 1 && sets.ref[k] == 1 {
					continue
				}
				r2, ok := sets.r2[k]
				if !ok { // the sweep alone: its float32 r² is the only one inside
					d := s.Pos[k.i].Wrap(s.L).Sub(s.Pos[k.j].Wrap(s.L)).Sub(vec.New(float64(k.nx), float64(k.ny), float64(k.nz)).Scale(s.L))
					r2 = d.Norm2()
				}
				if math.Abs(r2-rc2) > tol*rc2 {
					t.Errorf("%s: %+v at r = %.9g (r_c %.9g): sweep %d, host walk %d, reference %d visits; want 2, 1, 1",
						name, k, math.Sqrt(r2), p.RCut, sets.sweep[k], sets.host[k], sets.ref[k])
					continue
				}
				borderline++
			}
			triples += len(sets.ref)
		}
	}
	t.Logf("%d triples inside r_cut over %d fixtures; %d within %g·r_c² of the cutoff differ between walks",
		triples, 2*len(pairSetFixtures), borderline, tol)
}

// TestSkinLeavesThePhysics: the skin widens the cells and decides which
// out-of-cutoff pairs are streamed, nothing else. Over 10 NVE steps of a
// skin-0.5 machine — rebuild and reuse steps — its forces agree with a skin-0
// machine's at the same positions to 2·10⁻⁶ relative RMS: the two differ only
// in the stored coordinate words and the accumulation order.
func TestSkinLeavesThePhysics(t *testing.T) {
	for _, f := range pairSetFixtures {
		s := meltLike(t, f.cells, 5.64, 1200, int64(f.cells))
		p := f.params(s.L)
		skinned := CurrentMachineConfig(p)
		skinned.Skin = 0.5
		m, err := NewMachine(skinned)
		if err != nil {
			t.Fatal(err)
		}
		plain := newTestMachine(t, p)
		it, err := md.NewIntegrator(s, m, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for step := 0; step < 10; step++ {
			if err := it.Step(); err != nil {
				t.Fatal(err)
			}
			want, _, err := plain.Forces(s)
			if err != nil {
				t.Fatal(err)
			}
			worst = max(worst, vec.RelRMSDiff(it.Forces(), want))
		}
		rebuilds, reuses := m.JSetStats()
		name := fmt.Sprintf("cells %d α %.3g", f.cells, p.Alpha)
		t.Logf("%s: skin 0.5 vs skin 0 forces, worst of 10 steps (%d rebuilds, %d reuses): %.2g relative RMS", name, rebuilds, reuses, worst)
		if worst > 2e-6 {
			t.Errorf("%s: skin 0.5 forces differ from skin 0 by %.3g relative RMS, want ≤ 2e-6", name, worst)
		}
		_ = m.Free()
		_ = plain.Free()
	}
}
