package wine2

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"mdm/internal/ewald"
	"mdm/internal/fault"
	"mdm/internal/fixed"
	"mdm/internal/parallelize"
	"mdm/internal/units"
)

// The pipeline loops as they were before the row walk: one wave per particle
// pass in DFT mode, one particle per wave pass in IDFT mode, every phase a
// fresh n⃗·u⃗ product, in the caller's wave order. Kept as the oracle the row
// walk must match bit for bit.

// dftWave streams the particle image through one pipeline in DFT mode and
// returns the wave's S+C and S−C accumulators (AccFrac fractional bits).
func dftWave(trig sineRef, round fixed.Rounder, nv [3]int, pw *ParticleWords) (accPlus, accMinus int64) {
	n0, n1, n2 := int64(nv[0]), int64(nv[1]), int64(nv[2])
	ux := pw.Ux
	uy, uz, qw := pw.Uy[:len(ux)], pw.Uz[:len(ux)], pw.Q[:len(ux)]
	var s, c int64
	for j := range ux {
		sin, cos := trig.SinCos(n0*ux[j] + n1*uy[j] + n2*uz[j])
		q := qw[j] * round.Mul
		s += round.Round(q * sin)
		c += round.Round(q * cos)
	}
	return s + c, s - c
}

// idftParticle streams the wave coefficients past one particle in IDFT mode
// and returns its three force accumulators (IAccFrac fractional bits). aS and
// aC are in the caller's wave order and carry the rounder's operand scale.
func idftParticle(trig sineRef, round fixed.Rounder, waves []ewald.Wave, aS, aC []int64, ux, uy, uz int64) (ax, ay, az int64) {
	aS, aC = aS[:len(waves)], aC[:len(waves)]
	for w := range waves {
		n0, n1, n2 := int64(waves[w].N[0]), int64(waves[w].N[1]), int64(waves[w].N[2])
		sin, cos := trig.SinCos(n0*ux + n1*uy + n2*uz)
		t := round.Round(aC[w]*sin - aS[w]*cos)
		ax += t * n0
		ay += t * n1
		az += t * n2
	}
	return ax, ay, az
}

// sineRef is the one sine reference, fixed.SinCosTable.SinCos, at a
// System's phase width: what the oracle loops read in place of the rows.
type sineRef struct {
	tab       *fixed.SinCosTable
	phaseFrac uint
}

func (r sineRef) SinCos(ph int64) (sin, cos int64) { return r.tab.SinCos(ph, r.phaseFrac) }

// oracleSine is the sine reference for the System cfg builds.
func oracleSine(cfg Config) sineRef {
	tab, err := fixed.NewSinCosTable(cfg.SinLogSize, cfg.TrigFormat)
	if err != nil {
		panic(err)
	}
	return sineRef{tab, cfg.PosFrac}
}

// waveByWaveDFT is DFTQuantizedInto on the oracle loop, with an armed flip
// on the caller-order wave flipWave (-1: none).
func waveByWaveDFT(sys *System, waves []ewald.Wave, pw *ParticleWords, flipWave, flipBit int) (sn, cn []float64) {
	accF := fixed.F(0, sys.cfg.AccFrac)
	sn, cn = make([]float64, len(waves)), make([]float64, len(waves))
	trig := oracleSine(sys.cfg)
	for w := range waves {
		plus, minus := dftWave(trig, sys.dftRound, waves[w].N, pw)
		if w == flipWave {
			plus ^= 1 << flipBit
		}
		p, m := accF.Float(plus), accF.Float(minus)
		sn[w], cn[w] = (p+m)/2, (p-m)/2
	}
	return sn, cn
}

// waveByWaveIDFT is IDFTQuantizedCoordsInto on the oracle loop: the force
// planes x, y, z.
func waveByWaveIDFT(sys *System, waves []ewald.Wave, sn, cn []float64, pw *ParticleWords) (f [3][]float64) {
	for c := range f {
		f[c] = make([]float64, pw.N())
	}
	scale := 0.0
	for w := range waves {
		scale = math.Max(scale, math.Max(math.Abs(waves[w].A*sn[w]), math.Abs(waves[w].A*cn[w])))
	}
	if scale == 0 {
		return f
	}
	cf := fixed.F(1, sys.cfg.CoefFrac)
	aS, aC := make([]int64, len(waves)), make([]int64, len(waves))
	for w := range waves {
		aS[w] = sys.idftRound.Mul * cf.Quantize(waves[w].A*sn[w]/scale)
		aC[w] = sys.idftRound.Mul * cf.Quantize(waves[w].A*cn[w]/scale)
	}
	iaccF := fixed.F(0, sys.cfg.IAccFrac)
	l := pw.L
	pref := 4 * units.Coulomb / (l * l * l * l) * scale
	trig := oracleSine(sys.cfg)
	for i := range f[0] {
		ax, ay, az := idftParticle(trig, sys.idftRound, waves, aS, aC, pw.Ux[i], pw.Uy[i], pw.Uz[i])
		qp := pref * pw.q[i]
		f[0][i], f[1][i], f[2][i] = iaccF.Float(ax)*qp, iaccF.Float(ay)*qp, iaccF.Float(az)*qp
	}
	return f
}

// matchOracle runs both passes on sys and on the oracle loops and fails on
// the first bit that differs.
func matchOracle(t *testing.T, name string, sys *System, waves []ewald.Wave, pw *ParticleWords) {
	t.Helper()
	sn, cn, err := sys.DFTQuantizedInto(waves, pw, nil, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wantS, wantC := waveByWaveDFT(sys, waves, pw, -1, 0)
	for w := range waves {
		if math.Float64bits(sn[w]) != math.Float64bits(wantS[w]) || math.Float64bits(cn[w]) != math.Float64bits(wantC[w]) {
			t.Fatalf("%s: wave %d %v: DFT (%v, %v), oracle (%v, %v)", name, w, waves[w].N, sn[w], cn[w], wantS[w], wantC[w])
		}
	}
	fc, err := sys.IDFTQuantizedCoordsInto(waves, sn, cn, pw, sys.fc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sys.fc = fc
	want := waveByWaveIDFT(sys, waves, sn, cn, pw)
	for c, got := range [3][]float64{fc.X, fc.Y, fc.Z} {
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[c][i]) {
				t.Fatalf("%s: particle %d component %d: IDFT %v, oracle %v", name, i, c, got[i], want[c][i])
			}
		}
	}
}

// TestRowWalkMatchesOracle pins the row walk to the wave-by-wave loops bit
// for bit: on every datapath format; on the wave sets of α = 5.85, 9 and 14;
// on the α = 14 set shuffled in place (a rewritten slice must not meet a
// stale plan), on random subsets of it (rows of length 1, gaps in n_x) and
// on a single wave, on one row longer than two DFT runs and on consecutive
// n_x across steps in n_y or n_z; at N = 1, 2 and odd N; at pool widths 1–4,
// whose shards cut rows.
func TestRowWalkMatchesOracle(t *testing.T) {
	const l = 22.56
	pos, q := testSystem(33, l, 11)
	rng := rand.New(rand.NewSource(37))
	sets := map[string][]ewald.Wave{}
	for _, alpha := range []float64{5.85, 9, 14} {
		sets[fmt.Sprintf("alpha=%v", alpha)] = ewald.Waves(ewald.ParamsForAlpha(l, alpha))
	}
	all := sets["alpha=14"]
	for _, keep := range []float64{0.1, 0.5, 0.9} {
		var sub []ewald.Wave
		for _, w := range all {
			if rng.Float64() < keep {
				sub = append(sub, w)
			}
		}
		sets[fmt.Sprintf("subset=%v", keep)] = sub
	}
	sets["single"] = all[17:18]
	// One row longer than two DFT runs, so a run starts inside a row.
	for nx := -40; nx <= 40; nx++ {
		sets["long"] = append(sets["long"], ewald.Wave{N: [3]int{nx, 1, 2}, A: 1 / float64(nx*nx+5)})
	}
	// Consecutive n_x across a step in n_z or n_y: rows of one.
	for k := 0; k < 6; k++ {
		sets["stairs"] = append(sets["stairs"], ewald.Wave{N: [3]int{k, 0, k + 1}, A: 0.5}, ewald.Wave{N: [3]int{k, k + 1, 7}, A: 0.25})
	}
	// Waves given twice, interleaved with others: equal triples in a row plan.
	sets["duplicates"] = append(append(append([]ewald.Wave(nil), all[40:90]...), all[:60]...), all[50:70]...)
	names := []string{"alpha=5.85", "alpha=9", "alpha=14", "subset=0.1", "subset=0.5", "subset=0.9", "single", "long", "stairs", "duplicates"}

	// Every datapath format, one wave set, serial and striped.
	for _, f := range datapathFormats {
		cfg := CurrentConfig()
		f.mod(&cfg)
		for _, width := range []int{1, 3} {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			sys.SetPool(parallelize.New(width))
			pw, err := sys.Quantize(l, pos, q)
			if err != nil {
				t.Fatal(err)
			}
			matchOracle(t, fmt.Sprintf("%s/workers=%d", f.name, width), sys, sets["alpha=9"], pw)
		}
	}

	// The shipped format on every wave set, particle count and width; one
	// System per width serves them all, so every set change rebuilds its plan.
	cutInRow := false
	for width := 1; width <= 4; width++ {
		sys, err := NewSystem(CurrentConfig())
		if err != nil {
			t.Fatal(err)
		}
		sys.SetPool(parallelize.New(width))
		for _, n := range []int{1, 2, 33} {
			pw, err := sys.Quantize(l, pos[:n], q[:n])
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				matchOracle(t, fmt.Sprintf("%s/n=%d/workers=%d", name, n, width), sys, sets[name], pw)
				for _, sh := range parallelize.Shards(len(sets[name]), width) {
					for _, row := range sys.plan.rows {
						cutInRow = cutInRow || (int(row.lo) < sh[0] && sh[0] < int(row.hi))
					}
				}
			}
			// The same slice before and after an in-place shuffle: equal
			// length, new order, which only the per-call check can see.
			shuffled := append([]ewald.Wave(nil), all...)
			matchOracle(t, fmt.Sprintf("sorted/n=%d/workers=%d", n, width), sys, shuffled, pw)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			matchOracle(t, fmt.Sprintf("shuffled/n=%d/workers=%d", n, width), sys, shuffled, pw)
		}
	}
	if !cutInRow {
		t.Fatal("no shard boundary fell inside a row: the cut path went untested")
	}
}

// TestRowPlanOrder pins the row plan's order to a stable sort of the caller
// order by (n_z, n_y, n_x): on Ewald wave sets, shuffled and with duplicates
// (bucket placement), and on sets whose components span more values than
// there are waves (the stable-sort fallback).
func TestRowPlanOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	all := ewald.Waves(ewald.ParamsForAlpha(22.56, 14))
	shuffled := append([]ewald.Wave(nil), all...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	sets := map[string][]ewald.Wave{
		"alpha=9":    ewald.Waves(ewald.ParamsForAlpha(22.56, 9)),
		"alpha=14":   all,
		"shuffled":   shuffled,
		"duplicates": append(append([]ewald.Wave(nil), shuffled[:300]...), shuffled[100:200]...),
		"wide":       {{N: [3]int{5, 0, 1}}, {N: [3]int{-7, 3, 1}}, {N: [3]int{5, 0, 1}}, {N: [3]int{0, -9, 0}}},
		"extreme":    {{N: [3]int{math.MaxInt, 0, 0}}, {N: [3]int{math.MinInt, 0, 0}}, {N: [3]int{0, 0, 0}}},
		"empty":      nil,
	}
	for name, waves := range sets {
		want := make([]int32, len(waves))
		for w := range want {
			want[w] = int32(w)
		}
		slices.SortStableFunc(want, func(a, b int32) int {
			na, nb := waves[a].N, waves[b].N
			return cmp.Or(cmp.Compare(na[2], nb[2]), cmp.Compare(na[1], nb[1]), cmp.Compare(na[0], nb[0]))
		})
		var p rowPlan
		p.build(waves)
		if !slices.Equal(p.perm, want) {
			t.Errorf("%s: row plan order %v, want %v", name, p.perm, want)
		}
		if !p.fits(waves) {
			t.Errorf("%s: the plan does not fit its own waves", name)
		}
	}
}

// TestRowWalkFlipLandsOnCallerWave: an armed bit flip lands on the wave the
// fault names in the caller's order, not on the row-order slot, at every
// pool width.
func TestRowWalkFlipLandsOnCallerWave(t *testing.T) {
	const l = 22.56
	pos, q := testSystem(33, l, 13)
	waves := ewald.Waves(ewald.ParamsForAlpha(l, 9))
	for width := 1; width <= 4; width++ {
		for _, word := range []int{0, 5, 300, len(waves) + 7} {
			sys, err := NewSystem(CurrentConfig())
			if err != nil {
				t.Fatal(err)
			}
			sys.SetPool(parallelize.New(width))
			in, err := fault.ParseInjector(fmt.Sprintf("wine2:bitflip@call=1,word=%d,bit=40", word))
			if err != nil {
				t.Fatal(err)
			}
			sys.SetFaultHook(in)
			pw, err := sys.Quantize(l, pos, q)
			if err != nil {
				t.Fatal(err)
			}
			sn, cn, err := sys.DFTQuantizedInto(waves, pw, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			target := word % len(waves)
			wantS, wantC := waveByWaveDFT(sys, waves, pw, target, 40)
			for w := range waves {
				if math.Float64bits(sn[w]) != math.Float64bits(wantS[w]) || math.Float64bits(cn[w]) != math.Float64bits(wantC[w]) {
					t.Fatalf("workers=%d word=%d: wave %d: (%v, %v), oracle with the flip on wave %d (%v, %v)",
						width, word, w, sn[w], cn[w], target, wantS[w], wantC[w])
				}
			}
		}
	}
}

// TestAccumulatorBound: a call runs only when its accumulator sums stay
// inside int64 — N·2^(AccFrac+6) < 2^63 in DFT mode, N_wv·max|n|·2^(IAccFrac+1)
// < 2^63 in IDFT mode — and is refused with an *AccumulatorError otherwise.
// IAccFrac = 59, the widest the carrier admits, puts the IDFT boundary at
// N_wv·max|n| = 7; no board holds the 2^26 particles that reach the DFT
// boundary at AccFrac = 31, so that side is checked on the predicate.
func TestAccumulatorBound(t *testing.T) {
	cfg := CurrentConfig()
	cfg.IAccFrac = 59
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const l = 10.0
	pos, q := testSystem(5, l, 3)
	pw, err := sys.Quantize(l, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	sets := []struct {
		waves []ewald.Wave
		ok    bool
	}{
		{[]ewald.Wave{{N: [3]int{7, 0, 0}, A: 1}}, true},                              // 1·7
		{[]ewald.Wave{{N: [3]int{0, -8, 0}, A: 1}}, false},                            // 1·8
		{[]ewald.Wave{{N: [3]int{1, 2, 3}, A: 1}, {N: [3]int{2, 2, 3}, A: 1}}, true},  // 2·3
		{[]ewald.Wave{{N: [3]int{1, 0, 2}, A: 1}, {N: [3]int{0, 4, 0}, A: 1}}, false}, // 2·4
	}
	for _, c := range sets {
		sn, cn, err := sys.DFTQuantizedInto(c.waves, pw, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.IDFTQuantizedCoordsInto(c.waves, sn, cn, pw, sys.fc)
		var ae *AccumulatorError
		switch {
		case c.ok && err != nil:
			t.Errorf("%v: %v, want it computed", c.waves, err)
		case !c.ok && !errors.As(err, &ae):
			t.Errorf("%v: err %v, want *AccumulatorError", c.waves, err)
		case !c.ok && (ae.Pass != "IDFT" || ae.Bits != 60):
			t.Errorf("%v: %+v, want IDFT at 2^60", c.waves, ae)
		}
	}
	if c := sys.Stats().Calls; c != 6 {
		t.Errorf("%d calls counted, want 6: a refused call is no hardware call", c)
	}

	for _, c := range []struct {
		terms int64
		bits  uint
		ok    bool
	}{
		{1<<26 - 1, 37, true}, {1 << 26, 37, false}, // DFT at AccFrac 31
		{1<<36 - 1, 27, true}, {1 << 36, 27, false}, // IDFT at the shipped IAccFrac 26
		{math.MaxInt64, 0, true},
	} {
		if err := checkSum("DFT", c.terms, c.bits); (err == nil) != c.ok {
			t.Errorf("%d terms of 2^%d: err %v, want ok=%v", c.terms, c.bits, err, c.ok)
		}
	}
}

// TestPrefixGatherExactThroughWrap: the IDFT gathers a_x = Σ t·n_x as
// n_end·T − ΣP, and both n_end·T and ΣP may leave int64 while a_x does not;
// in Z/2^64 the identity holds all the same. The fixture drives the row walk
// directly, past the call gate (AccumulatorError refuses any row this long at
// IAccFrac 59): one row n_x = −3…3, particle 0 at phase 0 and particle 1 half
// a turn along x, against coefficient words at the block normalization's
// bound — every t of particle 0 is 2^59 but one, so n_end·T and ΣP are about
// 28·2^59 = 1.75·2^63 while a_x is that one t's offset times its n_x. math/big
// checks that the fixture does wrap and that a_x fits; the walk must return
// a_x, the idftParticle oracle's word.
func TestPrefixGatherExactThroughWrap(t *testing.T) {
	cfg := CurrentConfig()
	cfg.IAccFrac = 59
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	one := sys.idftRound.Mul << cfg.CoefFrac
	var waves []ewald.Wave
	var aS, aC []int64
	for nx := -3; nx <= 3; nx++ {
		waves = append(waves, ewald.Wave{N: [3]int{nx, 0, 0}, A: 1})
		s := -one
		if nx == 2 {
			s += 12345 * sys.idftRound.Mul // t = 2^59 less a few hundred ulps
		}
		aS, aC = append(aS, s), append(aC, 0)
	}
	rows := sys.rowsFor(waves).rows
	if len(rows) != 1 || rows[0].lo != 0 || rows[0].hi != 7 {
		t.Fatalf("rows %+v, want the one row n_x = −3…3 in order", rows)
	}
	half := int64(1) << (cfg.PosFrac - 1)
	ux := [2]int64{0, half}
	a := idftPair(&sys.trig, sys.idftRound, rows, aS, aC, ux[0], 0, 0, ux[1], 0, 0)
	trig := oracleSine(cfg)
	minInt, maxInt := big.NewInt(math.MinInt64), big.NewInt(math.MaxInt64)
	outside := func(v *big.Int) bool { return v.Cmp(minInt) < 0 || v.Cmp(maxInt) > 0 }
	wrapped := false
	for p := range ux {
		// The integers the walk computes in the ring.
		end := big.NewInt(4)
		var sum, pre, ax big.Int
		for k, w := range waves {
			sin, cos := trig.SinCos(int64(w.N[0]) * ux[p])
			tk := big.NewInt(sys.idftRound.Round(aC[k]*sin - aS[k]*cos))
			sum.Add(&sum, tk)
			pre.Add(&pre, &sum)
			ax.Add(&ax, new(big.Int).Mul(tk, big.NewInt(int64(w.N[0]))))
		}
		endT := new(big.Int).Mul(end, &sum)
		wrapped = wrapped || outside(&pre) || outside(endT)
		if outside(&ax) {
			t.Fatalf("particle %d: a_x = %v leaves int64: the fixture is out of the bound", p, &ax)
		}
		wantX, wantY, wantZ := idftParticle(trig, sys.idftRound, waves, aS, aC, ux[p], 0, 0)
		if wantX != ax.Int64() {
			t.Fatalf("particle %d: oracle a_x %d, exact sum %v", p, wantX, &ax)
		}
		if got := a[p]; got != [3]int64{wantX, wantY, wantZ} {
			t.Errorf("particle %d: row walk %v, oracle (%d, %d, %d); n_end·T = %v, ΣP = %v", p, got, wantX, wantY, wantZ, endT, &pre)
		}
	}
	if !wrapped {
		t.Fatal("neither n_end·T nor ΣP left int64: the wrap went untested")
	}
}
