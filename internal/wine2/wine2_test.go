package wine2

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"mdm/internal/ewald"
	"mdm/internal/fixed"
	"mdm/internal/soa"
	"mdm/internal/vec"
)

func TestConfigInventory(t *testing.T) {
	cur := CurrentConfig()
	if got := cur.Chips(); got != 2240 {
		t.Errorf("current chips = %d, paper: 2,240", got)
	}
	if got := cur.Boards(); got != 140 {
		t.Errorf("current boards = %d, want 140 (20 clusters × 7)", got)
	}
	if got := cur.Pipelines(); got != 2240*8 {
		t.Errorf("pipelines = %d", got)
	}
	// "Peak performance of a WINE-2 chip corresponds to about 20 Gflops at
	// 66.6 MHz"; system ≈ 45 Tflops.
	chip := cur.PeakFlops() / float64(cur.Chips())
	if chip < 19e9 || chip > 21e9 {
		t.Errorf("chip peak = %g, paper: ~20 Gflops", chip)
	}
	if p := cur.PeakFlops(); p < 43e12 || p > 47e12 {
		t.Errorf("system peak = %g, paper: ~45 Tflops", p)
	}
	fut := FutureConfig()
	if got := fut.Chips(); got != 2688 {
		t.Errorf("future chips = %d, paper: 2,688", got)
	}
	if p := fut.PeakFlops(); p < 52e12 || p > 56e12 {
		t.Errorf("future peak = %g, paper: ~54 Tflops", p)
	}
	if cur.ParticleCapacity() != (16<<20)/16 {
		t.Errorf("particle capacity = %d", cur.ParticleCapacity())
	}
}

func TestConfigValidate(t *testing.T) {
	for _, mod := range []func(*Config){
		func(c *Config) { c.Clusters = 0 },
		func(c *Config) { c.ClockHz = 0 },
		func(c *Config) { c.PosFrac = 2 },
		func(c *Config) { c.SinLogSize = 0 },
		func(c *Config) { c.QFrac = 1 },
		// Phase narrower than the sine-table index: the index shift used to
		// underflow and DFT returned garbage with a nil error.
		func(c *Config) { c.PosFrac, c.SinLogSize = 8, 12 },
		func(c *Config) { c.PosFrac, c.SinLogSize = 12, 12 },
		func(c *Config) { c.PosFrac, c.SinLogSize = 13, 12 },
	} {
		c := CurrentConfig()
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
		if _, err := NewSystem(c); err == nil {
			t.Errorf("NewSystem accepted invalid config: %+v", c)
		}
	}
	// The narrowest phase the unit supports still validates and computes.
	c := CurrentConfig()
	c.PosFrac, c.SinLogSize = 14, 12
	if err := c.Validate(); err != nil {
		t.Errorf("PosFrac 14 / SinLogSize 12 rejected: %v", err)
	}
	if _, err := NewSystem(c); err != nil {
		t.Errorf("NewSystem(PosFrac 14 / SinLogSize 12): %v", err)
	}
}

// TestConfigRejectsUnrepresentableFormats: widths past the 62-bit carrier used
// to compute garbage with a nil error — an AccFrac of 40 clamped every DFT term
// to zero, a QFrac or CoefFrac of 45 or an s1.50 sine overflowed the products,
// an s1.40 sine over 38 interpolation bits overflowed the interpolant. Each is
// now an error naming the width, from every constructor; every format the
// tests and the ablations run on is still accepted. The trig rows' carrier
// term (Frac + PosFrac − SinLogSize ≤ 62) refuses an s1.29 sine over 34
// interpolation bits, which the interpolant's own product check admits.
func TestConfigRejectsUnrepresentableFormats(t *testing.T) {
	for _, c := range []struct {
		mod   func(*Config)
		width string // the offending width, as the error must name it
	}{
		{func(c *Config) { c.AccFrac = 40 }, "AccFrac 40"},
		{func(c *Config) { c.QFrac = 45 }, "QFrac 45"},
		{func(c *Config) { c.CoefFrac = 45 }, "CoefFrac 45"},
		{func(c *Config) { c.TrigFormat = fixed.F(1, 50) }, "s1.50"},
		{func(c *Config) { c.PosFrac, c.SinLogSize, c.TrigFormat = 40, 2, fixed.F(1, 40) }, "s1.40"},
		{func(c *Config) { c.IAccFrac = 60 }, "IAccFrac 60"},
		{func(c *Config) { c.PosFrac, c.SinLogSize, c.TrigFormat = 40, 6, fixed.F(1, 29) }, "63-bit interpolant"},
	} {
		cfg := CurrentConfig()
		c.mod(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.width) {
			t.Errorf("Validate with %s: error %v does not name the width", c.width, err)
		}
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("NewSystem accepted %s", c.width)
		}
		if _, err := NewLibrary(cfg); err == nil {
			t.Errorf("NewLibrary accepted %s", c.width)
		}
	}
	for _, f := range datapathFormats {
		cfg := CurrentConfig()
		f.mod(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s rejected: %v", f.name, err)
		}
	}
	for _, cfg := range []Config{CurrentConfig(), FutureConfig()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%d-cluster machine rejected: %v", cfg.Clusters, err)
		}
	}
}

func testSystem(n int, l float64, seed int64) (pos []vec.V, q []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos = make([]vec.V, n)
	q = make([]float64, n)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
		q[i] = float64(1 - 2*(i%2))
	}
	return pos, q
}

func TestDFTMatchesReference(t *testing.T) {
	sys, err := NewSystem(CurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	const l = 12.0
	pos, q := testSystem(64, l, 1)
	p := ewald.Params{L: l, Alpha: 7, RCut: 5, LKCut: 6}
	waves := ewald.Waves(p)
	sn, cn, err := sys.DFT(l, waves, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	wantS, wantC := ewald.StructureFactors(waves, pos, q)
	// Scale for errors: structure factors are O(√N q).
	scale := math.Sqrt(float64(len(pos)))
	worst := 0.0
	for w := range waves {
		if e := math.Abs(sn[w]-wantS[w]) / scale; e > worst {
			worst = e
		}
		if e := math.Abs(cn[w]-wantC[w]) / scale; e > worst {
			worst = e
		}
	}
	if worst > 1e-4 {
		t.Errorf("worst structure-factor error = %g (scaled)", worst)
	}
	if worst == 0 {
		t.Error("zero error is implausible for a fixed-point pipeline")
	}
	t.Logf("worst scaled structure-factor error = %.2e", worst)
}

func TestIDFTForceAccuracy(t *testing.T) {
	// §3.4.4: "The relative accuracy of F⃗(wn) is about 1e-4.5."
	sys, err := NewSystem(CurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	const l = 12.0
	pos, q := testSystem(64, l, 2)
	p := ewald.Params{L: l, Alpha: 7, RCut: 5, LKCut: 6}
	waves := ewald.Waves(p)
	// Use exact structure factors so the measured error isolates the IDFT
	// pipeline; then a full DFT+IDFT end-to-end check.
	wantS, wantC := ewald.StructureFactors(waves, pos, q)
	got, err := sys.IDFT(l, waves, wantS, wantC, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	want := ewald.WavenumberForces(p, waves, wantS, wantC, pos, q)
	fscale := vec.RMS(want)
	worst := 0.0
	for i := range got {
		if e := got[i].Sub(want[i]).Norm() / fscale; e > worst {
			worst = e
		}
	}
	// Paper: ~10^-4.5 ≈ 3e-5. Allow up to 10^-3.5 and require non-zero.
	if worst > 3e-4 {
		t.Errorf("worst wavenumber force error = %g of RMS, paper: ~1e-4.5", worst)
	}
	if worst < 1e-8 {
		t.Errorf("error %g implausibly small for fixed point", worst)
	}
	t.Logf("worst relative F(wn) error (IDFT only) = %.2e (paper: ~1e-4.5)", worst)

	// End to end: hardware DFT feeding hardware IDFT.
	sn, cn, err := sys.DFT(l, waves, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := sys.IDFT(l, waves, sn, cn, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	worst2 := 0.0
	for i := range got2 {
		if e := got2[i].Sub(want[i]).Norm() / fscale; e > worst2 {
			worst2 = e
		}
	}
	if worst2 > 5e-4 {
		t.Errorf("end-to-end F(wn) error = %g of RMS", worst2)
	}
	t.Logf("worst relative F(wn) error (DFT+IDFT) = %.2e", worst2)
}

func TestIDFTZeroStructureFactors(t *testing.T) {
	sys, _ := NewSystem(CurrentConfig())
	const l = 10.0
	pos, q := testSystem(8, l, 3)
	p := ewald.Params{L: l, Alpha: 6, RCut: 5, LKCut: 4}
	waves := ewald.Waves(p)
	sn := make([]float64, len(waves))
	cn := make([]float64, len(waves))
	f, err := sys.IDFT(l, waves, sn, cn, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f {
		if f[i] != vec.Zero {
			t.Errorf("zero structure factors gave force %v", f[i])
		}
	}
}

func TestDFTValidation(t *testing.T) {
	sys, _ := NewSystem(CurrentConfig())
	p := ewald.Params{L: 10, Alpha: 6, RCut: 5, LKCut: 4}
	waves := ewald.Waves(p)
	if _, _, err := sys.DFT(10, waves, make([]vec.V, 3), make([]float64, 2)); err == nil {
		t.Error("length mismatch accepted")
	}
	cfg := CurrentConfig()
	cfg.ParticleMemBytes = 5 * cfg.BytesPerParticle
	small, _ := NewSystem(cfg)
	pos, q := testSystem(6, 10, 1)
	if _, _, err := small.DFT(10, waves, pos, q); err == nil {
		t.Error("capacity overflow accepted")
	}
	if _, err := small.IDFT(10, waves, make([]float64, len(waves)), make([]float64, len(waves)), pos, q); err == nil {
		t.Error("IDFT capacity overflow accepted")
	}
	if _, err := sys.IDFT(10, waves, make([]float64, 2), make([]float64, len(waves)), pos[:2], q[:2]); err == nil {
		t.Error("structure-factor length mismatch accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	sys, _ := NewSystem(CurrentConfig())
	const l = 10.0
	pos, q := testSystem(16, l, 4)
	p := ewald.Params{L: l, Alpha: 6, RCut: 5, LKCut: 4}
	waves := ewald.Waves(p)
	sn, cn, err := sys.DFT(l, waves, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.IDFT(l, waves, sn, cn, pos, q); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	want := int64(len(waves) * len(pos))
	if st.DFTOps != want || st.IDFTOps != want {
		t.Errorf("ops = %+v, want %d each", st, want)
	}
	if st.Calls != 2 {
		t.Errorf("calls = %d", st.Calls)
	}
	dt := sys.ComputeTime(st.DFTOps)
	if wantT := float64(want) / (float64(sys.Config().Pipelines()) * 66.6e6); math.Abs(dt-wantT) > 1e-20 {
		t.Errorf("ComputeTime = %g, want %g", dt, wantT)
	}
	sys.ResetStats()
	if sys.Stats() != (Stats{}) {
		t.Error("ResetStats did not clear")
	}
}

// fakeComm is a loopback communicator pretending to be P ranks whose
// AllreduceSum multiplies by P (every rank holding identical data).
type fakeComm struct{ size int }

func (f *fakeComm) Rank() int { return 0 }
func (f *fakeComm) Size() int { return f.size }
func (f *fakeComm) AllreduceSum(vals []float64) ([]float64, error) {
	for i := range vals {
		vals[i] *= float64(f.size)
	}
	return vals, nil
}

func TestLibraryLifecycle(t *testing.T) {
	lib, err := NewLibrary(CurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := ewald.Params{L: 10, Alpha: 6, RCut: 5, LKCut: 4}
	waves := ewald.Waves(p)
	pos, q := testSystem(12, 10, 5)

	if err := lib.InitializeBoards(); err == nil {
		t.Error("initialize before allocate accepted")
	}
	if err := lib.AllocateBoards(1000); err == nil {
		t.Error("over-allocation accepted")
	}
	if err := lib.AllocateBoards(14); err != nil {
		t.Fatal(err)
	}
	if err := lib.InitializeBoards(); err != nil {
		t.Fatal(err)
	}
	if lib.System().Config().Boards() != 14 {
		t.Errorf("boards = %d, want 14", lib.System().Config().Boards())
	}
	if _, _, err := lib.CalcForceAndPotWavepart(p, waves, pos, q); err == nil {
		t.Error("force call before set_nn accepted")
	}
	if err := lib.SetNN(0); err == nil {
		t.Error("nn = 0 accepted")
	}
	if err := lib.SetNN(12); err != nil {
		t.Fatal(err)
	}
	bigPos, bigQ := testSystem(13, 10, 7)
	if _, _, err := lib.CalcForceAndPotWavepart(p, waves, bigPos, bigQ); err == nil {
		t.Error("more particles than nn accepted")
	}
	forces, pot, err := lib.CalcForceAndPotWavepart(p, waves, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(forces) != 12 {
		t.Fatalf("len(forces) = %d", len(forces))
	}
	// Potential must match the reference wavenumber energy.
	sref, cref := ewald.StructureFactors(waves, pos, q)
	wantPot := ewald.WavenumberEnergy(p, waves, sref, cref)
	if math.Abs(pot-wantPot) > 1e-3*math.Abs(wantPot) {
		t.Errorf("wavepart pot = %g, want %g", pot, wantPot)
	}
	if err := lib.FreeBoards(); err != nil {
		t.Fatal(err)
	}
	if err := lib.FreeBoards(); err == nil {
		t.Error("double free accepted")
	}
}

func TestLibraryWithCommunicator(t *testing.T) {
	// With a communicator of size 2 where both ranks hold the same
	// particles, the reduced structure factors double, and the potential
	// quadruples (|S|²).
	lib, _ := NewLibrary(CurrentConfig())
	lib.SetMPICommunity(&fakeComm{size: 2})
	if err := lib.AllocateBoards(7); err != nil {
		t.Fatal(err)
	}
	if err := lib.InitializeBoards(); err != nil {
		t.Fatal(err)
	}
	if err := lib.SetNN(12); err != nil {
		t.Fatal(err)
	}
	p := ewald.Params{L: 10, Alpha: 6, RCut: 5, LKCut: 4}
	waves := ewald.Waves(p)
	pos, q := testSystem(12, 10, 6)
	_, pot, err := lib.CalcForceAndPotWavepart(p, waves, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	sref, cref := ewald.StructureFactors(waves, pos, q)
	single := ewald.WavenumberEnergy(p, waves, sref, cref)
	if math.Abs(pot-4*single) > 1e-2*math.Abs(4*single) {
		t.Errorf("doubled-system pot = %g, want %g", pot, 4*single)
	}
}

func TestPhaseWraps(t *testing.T) {
	// A particle at u and at u + one box must give identical phases.
	sys, _ := NewSystem(CurrentConfig())
	const l = 10.0
	p := ewald.Params{L: l, Alpha: 6, RCut: 5, LKCut: 4}
	waves := ewald.Waves(p)
	pos1 := []vec.V{vec.New(1.2, 3.4, 5.6)}
	pos2 := []vec.V{vec.New(1.2+l, 3.4-l, 5.6)}
	q := []float64{1}
	s1, c1, _ := sys.DFT(l, waves, pos1, q)
	s2, c2, _ := sys.DFT(l, waves, pos2, q)
	for w := range waves {
		if s1[w] != s2[w] || c1[w] != c2[w] {
			t.Fatalf("wave %d: DFT not translation-periodic", w)
		}
	}
}

// benchShapes are the problem sizes the loop benchmarks run: the small
// 256 × 447 one of the earlier records; the 512-ion box at the balanced α a
// Config resolves to by default (182 waves in rows of about six), the short
// rows of the repo benchmark's default, decomposed and served workloads; and
// the particle·wave shape of its wave_n512 workload (α = 14: 2,472 waves),
// where these two loops are the step. Every shape but one carries ±1 e
// charges, which take the DFT's exact loop; default_n512_frac carries ±0.8 e,
// off the rounder's grid, so the rounding loop keeps a figure although no
// benchmark workload reaches it.
var benchShapes = []struct {
	name string
	n    int
	p    ewald.Params
	q    float64 // charge magnitude
}{
	{"n256", 256, ewald.Params{L: 12, Alpha: 7, RCut: 5, LKCut: 6}, 1},
	{"default_n512", 512, defaultN512, 1},
	{"default_n512_frac", 512, defaultN512, 0.8},
	{"wave_n512", 512, ewald.ParamsForAlpha(22.56, 14), 1},
}

var defaultN512 = ewald.ParamsForAlpha(22.56, math.Max(ewald.SReal/0.45,
	ewald.ConventionalCost().OptimalAlpha(22.56, 512/(22.56*22.56*22.56))))

// benchPipelines times one pipeline pass alone — pre-quantized particle
// image, reused outputs, no allocation — and reports its unit cost.
func benchPipelines(b *testing.B, pass func(sys *System, waves []ewald.Wave, pw *ParticleWords, sn, cn []float64) error) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			sys, err := NewSystem(CurrentConfig())
			if err != nil {
				b.Fatal(err)
			}
			pos, q := testSystem(shape.n, shape.p.L, 1)
			for i := range q {
				q[i] *= shape.q
			}
			waves := ewald.Waves(shape.p)
			pw, err := sys.Quantize(shape.p.L, pos, q)
			if err != nil {
				b.Fatal(err)
			}
			sn, cn, err := sys.DFTQuantizedInto(waves, pw, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pass(sys, waves, pw, sn, cn); err != nil {
					b.Fatal(err)
				}
			}
			ops := float64(b.N) * float64(shape.n) * float64(len(waves))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ops, "ns/particle·wave")
		})
	}
}

func BenchmarkDFT(b *testing.B) {
	benchPipelines(b, func(sys *System, waves []ewald.Wave, pw *ParticleWords, sn, cn []float64) error {
		_, _, err := sys.DFTQuantizedInto(waves, pw, sn, cn)
		return err
	})
}

func BenchmarkIDFT(b *testing.B) {
	var fc soa.Coords
	benchPipelines(b, func(sys *System, waves []ewald.Wave, pw *ParticleWords, sn, cn []float64) (err error) {
		fc, err = sys.IDFTQuantizedCoordsInto(waves, sn, cn, pw, fc)
		return err
	})
}

// PeakFlops returns the nominal peak speed.
func (c Config) PeakFlops() float64 {
	return float64(c.Pipelines()) * c.ClockHz * c.FlopsPerCycle
}

// ResetStats clears the work counters.
func (s *System) ResetStats() { s.stats = Stats{} }
