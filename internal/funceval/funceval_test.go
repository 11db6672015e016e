package funceval

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewTableValidation(t *testing.T) {
	g := func(x float64) float64 { return x }
	if _, err := NewTable(g, 4, 4, 1024); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewTable(g, 0, 3, 1000); err == nil {
		t.Error("nseg not multiple of octaves accepted")
	}
	if _, err := NewTable(g, 0, 3, 0); err == nil {
		t.Error("zero segments accepted")
	}
	if _, err := NewTable(func(x float64) float64 { return math.Inf(1) }, 0, 1, 8); err == nil {
		t.Error("non-finite g accepted")
	}
	// Word addressing needs 2^k segments per octave and a float32-normal domain.
	for _, c := range []struct {
		emin, emax, nseg int
		want             string
	}{
		{0, 4, 12, "power of two"},
		{0, 1, 1 << 24, "power of two"},
		{-127, -119, 256, "float32 normal range"},
		{120, 128, 256, "float32 normal range"},
	} {
		_, err := NewTable(g, c.emin, c.emax, c.nseg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewTable(%d, %d, %d) = %v, want an error mentioning %q", c.emin, c.emax, c.nseg, err, c.want)
		}
	}
	// The edges of the accepted range are usable.
	if _, err := NewTable(g, -126, -118, 256); err != nil {
		t.Errorf("domain bottom 2^-126 rejected: %v", err)
	}
	if _, err := NewTable(g, 119, 127, 256); err != nil {
		t.Errorf("domain top 2^127 rejected: %v", err)
	}
}

// TestNewTableImage: an image round-trips a fit bit for bit and shares its
// rows, and the constructor refuses what no fit stores or the domain cannot
// address.
func TestNewTableImage(t *testing.T) {
	g := func(x float64) float64 { return math.Exp(-x) / x }
	fit, err := NewTable(g, -4, 4, 256)
	if err != nil {
		t.Fatal(err)
	}
	rows := append([][Order + 1]float32(nil), fit.coeff...)
	img, err := NewTableImage(-4, 4, rows)
	if err != nil {
		t.Fatal(err)
	}
	if &img.coeff[0] != &rows[0] {
		t.Error("the image copied its rows")
	}
	for x := float32(0.07); x < 20; x *= 1.013 {
		if a, b := img.Eval(x), fit.Eval(x); math.Float32bits(a) != math.Float32bits(b) {
			t.Fatalf("Eval(%g): image %g, fit %g", x, a, b)
		}
	}
	if _, err := NewTableImage(-4, 4, rows[:255]); err == nil || !strings.Contains(err.Error(), "multiple of 8 octaves") {
		t.Errorf("255 rows over 8 octaves: %v", err)
	}
	if _, err := NewTableImage(-4, 4, rows[:24]); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Errorf("24 rows over 8 octaves: %v", err)
	}
	if _, err := NewTableImage(4, 4, rows); err == nil {
		t.Error("empty domain accepted")
	}
	for _, w := range []float32{
		math.Float32frombits(1),           // smallest subnormal
		-math.Float32frombits(0x007fffff), // largest subnormal, negative
		float32(math.NaN()),
		float32(math.Inf(1)),
		float32(math.Inf(-1)),
	} {
		bad := append([][Order + 1]float32(nil), rows...)
		bad[100][3] = w
		if _, err := NewTableImage(-4, 4, bad); err == nil || !strings.Contains(err.Error(), "segment 100") {
			t.Errorf("word %g (%#08x): %v, want a refusal naming segment 100", w, math.Float32bits(w), err)
		}
	}
	// The smallest normal word and a zero of either sign are RAM words.
	ok := append([][Order + 1]float32(nil), rows...)
	ok[7] = [Order + 1]float32{math.Float32frombits(1 << 23), -math.Float32frombits(1 << 23), 0, float32(math.Copysign(0, -1)), 1}
	if _, err := NewTableImage(-4, 4, ok); err != nil {
		t.Errorf("normal and zero words refused: %v", err)
	}
}

func TestMustNewTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewTable did not panic on invalid input")
		}
	}()
	MustNewTable(func(x float64) float64 { return x }, 4, 4, 1024)
}

func TestSegmentBoundsCoverDomain(t *testing.T) {
	tbl := MustNewTable(func(x float64) float64 { return x }, -4, 4, 256)
	lo, hi := tbl.Domain()
	if lo != 1.0/16 || hi != 16 {
		t.Fatalf("domain = [%g,%g)", lo, hi)
	}
	prevHi := lo
	for s := 0; s < tbl.Segments(); s++ {
		slo, shi := tbl.segmentBounds(s)
		if slo != prevHi {
			t.Fatalf("segment %d starts at %g, want %g (gap/overlap)", s, slo, prevHi)
		}
		if shi <= slo {
			t.Fatalf("segment %d empty: [%g,%g)", s, slo, shi)
		}
		prevHi = shi
	}
	if prevHi != hi {
		t.Fatalf("segments end at %g, want %g", prevHi, hi)
	}
}

func TestSegmentIndexRoundTrip(t *testing.T) {
	tbl := MustNewTable(func(x float64) float64 { return x }, -8, 8, 512)
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		lo, hi := tbl.Domain()
		// map raw into the domain log-uniformly
		u := math.Abs(math.Mod(raw, 1.0))
		x := float32(lo * math.Exp(u*math.Log(hi/lo)*0.999))
		seg, local := tbl.address(math.Float32bits(x))
		if int(seg) >= tbl.Segments() || local < 0 || local >= 1 {
			return false
		}
		slo, shi := tbl.segmentBounds(int(seg))
		return float64(x) >= slo && float64(x) < shi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolynomialExact(t *testing.T) {
	// A 4th-order polynomial must be reproduced to float32 precision.
	g := func(x float64) float64 { return 1 + x*(0.5+x*(0.25+x*(0.125+x*0.0625))) }
	tbl := MustNewTable(g, -2, 2, 64)
	if e := tbl.MaxRelError(g, 0.25, 4, 4096, 0); e > 5e-7 {
		t.Errorf("poly rel error = %g, want float32-level", e)
	}
}

// TestSolveVandermondeAnyOrder recovers a polynomial's own coefficients at
// every order the solver takes, on the two node sets in use — (0, 1) for the
// RAM, centred (-1, 1) for the host's float64 evaluator — and refuses a
// system past MaxFitNodes or with mismatched lengths.
func TestSolveVandermondeAnyOrder(t *testing.T) {
	for n := 1; n <= MaxFitNodes; n++ {
		for _, centred := range []bool{false, true} {
			u, v, want, c := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
			ChebyshevNodes(u)
			for j := range want {
				want[j] = 1 / float64(j+1)
			}
			for i := range u {
				if centred {
					u[i] = 2*u[i] - 1
				}
				for j := n - 1; j >= 0; j-- {
					v[i] = v[i]*u[i] + want[j]
				}
			}
			if err := SolveVandermonde(c, u, v); err != nil {
				t.Fatalf("%d nodes: %v", n, err)
			}
			// The monomial basis costs digits with the order: on (0, 1) 16
			// nodes keep six, on the centred set they keep twelve and the
			// evaluator's 11 keep fourteen.
			tol := 1e-15 * math.Pow(4, float64(n))
			if centred {
				tol = 1e-16 * math.Pow(2, float64(n))
			}
			for j := range want {
				if d := math.Abs(c[j] - want[j]); d > tol {
					t.Errorf("%d nodes, centred %v: c[%d] = %.17g, want %.17g (off %.2g, bound %.2g)", n, centred, j, c[j], want[j], d, tol)
				}
			}
		}
	}
	big := make([]float64, MaxFitNodes+1)
	ChebyshevNodes(big)
	if err := SolveVandermonde(big, big, big); err == nil {
		t.Error("a system past MaxFitNodes accepted")
	}
	if err := SolveVandermonde(big[:3], big[:4], big[:4]); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if err := SolveVandermonde(big[:2], []float64{0.5, 0.5}, big[:2]); err == nil {
		t.Error("repeated node accepted")
	}
}

func TestEwaldKernelAccuracy(t *testing.T) {
	// The real-space Ewald kernel of §3.5.4:
	// g(x) = 2 exp(-x)/(sqrt(pi) x) + erfc(sqrt(x)) / x^(3/2)
	g := func(x float64) float64 {
		return 2*math.Exp(-x)/(math.SqrtPi*x) + math.Erfc(math.Sqrt(x))/(x*math.Sqrt(x))
	}
	tbl := MustNewTable(g, -16, 16, DefaultSegments)
	// Paper quotes ~1e-7 relative accuracy for the pipeline; the evaluator
	// itself should be at that level over the physically used range.
	if e := tbl.MaxRelError(g, 1e-4, 30, 20000, 0); e > 3e-6 {
		t.Errorf("Ewald kernel rel error = %g", e)
	}
	if e := tbl.MaxRelError(g, 1e-2, 10, 20000, 0); e > 1e-6 {
		t.Errorf("Ewald kernel rel error (core range) = %g", e)
	}
}

func TestLJKernelAccuracy(t *testing.T) {
	// van der Waals kernel (eq. 4 rewritten per §3.5.4): g(x) = 2x^-7 - x^-4.
	g := func(x float64) float64 { return 2*math.Pow(x, -7) - math.Pow(x, -4) }
	tbl := MustNewTable(g, -4, 12, DefaultSegments)
	// Relative to local magnitude with a floor: near the zero crossing
	// (x = 2^(1/3)) g itself vanishes while the float32 coefficients carry
	// ~1e-7 of the O(1) repulsive scale, so the floored relative error there
	// is bounded by (float32 eps × O(1))/floor ≈ 1e-4, not 1e-7.
	if e := tbl.MaxRelError(g, 0.5, 8, 20000, 1e-3); e > 1e-4 {
		t.Errorf("LJ kernel error = %g", e)
	}
	// Away from the crossing the evaluator is at single-precision level.
	if e := tbl.MaxRelError(g, 0.5, 1.2, 20000, 0); e > 3e-6 {
		t.Errorf("LJ kernel error (repulsive branch) = %g", e)
	}
}

func TestEvalOutOfRange(t *testing.T) {
	g := func(x float64) float64 { return 1 / x }
	tbl := MustNewTable(g, -4, 4, 128)
	if got := tbl.Eval(0); got != 0 {
		t.Errorf("Eval(0) = %g, want 0", got)
	}
	if got := tbl.Eval(-1); got != 0 {
		t.Errorf("Eval(-1) = %g, want 0", got)
	}
	if got := tbl.Eval(float32(math.NaN())); got != 0 {
		t.Errorf("Eval(NaN) = %g, want 0", got)
	}
	// Beyond the high edge: implicit cutoff.
	if got := tbl.Eval(16); got != 0 {
		t.Errorf("Eval(16) = %g, want 0 (cutoff)", got)
	}
	if got := tbl.WithHighValue(7).Eval(1e9); got != 7 {
		t.Errorf("Eval(1e9) = %g, want 7 with WithHighValue", got)
	}
	if got := tbl.Eval(1e9); got != 0 {
		t.Errorf("Eval(1e9) = %g on the original after WithHighValue: the image was mutated", got)
	}
	// Below the low edge: clamp.
	lo, _ := tbl.Domain()
	want := tbl.Eval64(lo)
	if got := tbl.Eval64(lo / 1024); math.Abs(got-want) > 1e-6*math.Abs(want) {
		t.Errorf("Eval below domain = %g, want clamp to %g", got, want)
	}
}

func TestEvalContinuityAcrossSegments(t *testing.T) {
	g := func(x float64) float64 { return math.Exp(-x) / x }
	tbl := MustNewTable(g, -6, 6, 384)
	// At each segment boundary the two polynomial pieces must agree with g,
	// so their mutual jump must be tiny.
	for s := 0; s+1 < tbl.Segments(); s++ {
		_, hi := tbl.segmentBounds(s)
		x := hi
		left := tbl.Eval64(math.Nextafter(x, 0))
		right := tbl.Eval64(x)
		if d := math.Abs(left - right); d > 2e-6*(math.Abs(right)+1e-30) {
			t.Fatalf("discontinuity %g at segment %d boundary x=%g", d, s, x)
		}
	}
}

// Property: the evaluator is deterministic and finite over its domain.
func TestEvalFiniteProperty(t *testing.T) {
	g := func(x float64) float64 { return math.Erfc(math.Sqrt(x)) / (x + 1e-9) }
	tbl := MustNewTable(g, -10, 10, 640)
	f := func(x float32) bool {
		v := tbl.Eval(x)
		w := tbl.Eval(x)
		return v == w && !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultSegmentsIs1024(t *testing.T) {
	// Guard the paper-specified constant (§3.5.4).
	if DefaultSegments != 1024 {
		t.Errorf("DefaultSegments = %d, want 1024", DefaultSegments)
	}
	if Order != 4 {
		t.Errorf("Order = %d, want 4", Order)
	}
}

func BenchmarkEval(b *testing.B) {
	g := func(x float64) float64 {
		return 2*math.Exp(-x)/(math.SqrtPi*x) + math.Erfc(math.Sqrt(x))/(x*math.Sqrt(x))
	}
	tbl := MustNewTable(g, -16, 16, DefaultSegments)
	var sink float32
	for i := 0; i < b.N; i++ {
		sink = tbl.Eval(float32(i%1000)*0.01 + 0.001)
	}
	_ = sink
}

func BenchmarkEvalVsMathExact(b *testing.B) {
	g := func(x float64) float64 {
		return 2*math.Exp(-x)/(math.SqrtPi*x) + math.Erfc(math.Sqrt(x))/(x*math.Sqrt(x))
	}
	b.Run("table", func(b *testing.B) {
		tbl := MustNewTable(g, -16, 16, DefaultSegments)
		var sink float32
		for i := 0; i < b.N; i++ {
			sink = tbl.Eval(float32(i%1000)*0.01 + 0.001)
		}
		_ = sink
	})
	b.Run("exact", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink = g(float64(i%1000)*0.01 + 0.001)
		}
		_ = sink
	})
}

// frexpAddress is the general decomposition the word addressing replaced:
// octave and mantissa position from frexp, multiplied back by the segment
// count. It is the independent oracle for address and (through oracleEval)
// for Eval.
func frexpAddress(tbl *Table, x float64) (int, float64) {
	frac, exp := math.Frexp(x) // x = frac * 2^exp, frac in [0.5, 1)
	e := exp - 1               // octave exponent: x in [2^e, 2^(e+1))
	m := frac*2 - 1            // mantissa position in the octave, [0, 1)
	pos := m * float64(tbl.segPerOct)
	sub := int(pos)
	if sub >= tbl.segPerOct {
		sub = tbl.segPerOct - 1
	}
	return (e-tbl.emin)*tbl.segPerOct + sub, pos - float64(sub)
}

// oracleEval is Eval as it was before word addressing, from the point where
// the float32 argument had been widened to float64 (exactly): range-checked
// there, decomposed by frexpAddress, and the local coordinate rounded back to
// float32 for the same Horner sequence.
func oracleEval(tbl *Table, xf float64) float32 {
	if !(xf > 0) {
		return 0
	}
	lo, hi := tbl.Domain()
	if xf >= hi {
		return tbl.highValue
	}
	if xf < lo {
		xf = lo
	}
	seg, u := frexpAddress(tbl, xf)
	c := &tbl.coeff[seg]
	uu := float32(u)
	r := c[4]*uu + c[3]
	r = r*uu + c[2]
	r = r*uu + c[1]
	r = r*uu + c[0]
	return r
}

// TestSegmentIndexMatchesFrexp pins the bit-field segment addressing to the
// frexp decomposition it replaced, across octave edges, segment edges and
// values one float32 ulp either side of them.
func TestSegmentIndexMatchesFrexp(t *testing.T) {
	tbl := MustNewTable(func(x float64) float64 { return 1 / x }, -20, 12, DefaultSegments)
	probe := func(x float32) {
		t.Helper()
		lo, hi := tbl.Domain()
		if float64(x) < lo || float64(x) >= hi {
			return
		}
		gs, gu := tbl.address(math.Float32bits(x))
		ws, wu := frexpAddress(tbl, float64(x))
		if int(gs) != ws || float64(gu) != wu {
			t.Fatalf("address(%g) = (%d, %v), frexp path gives (%d, %v)", x, gs, gu, ws, wu)
		}
	}
	for s := 0; s < tbl.Segments(); s++ {
		lo64, hi64 := tbl.segmentBounds(s)
		lo, hi := float32(lo64), float32(hi64)
		for _, x := range []float32{lo, math.Nextafter32(lo, 0), math.Nextafter32(lo, hi),
			(lo + hi) / 2, math.Nextafter32(hi, lo), hi} {
			probe(x)
		}
	}
}

// TestSegmentIndexSubnormalFallback: a domain reaching below the float32
// normal range used to be served by a frexp fallback; the exponent field of
// such arguments carries no octave, so the table is now refused outright.
func TestSegmentIndexSubnormalFallback(t *testing.T) {
	one := func(float64) float64 { return 1 }
	for _, d := range [][2]int{{-1030, -1020}, {-149, -139}, {-127, -117}} {
		_, err := NewTable(one, d[0], d[1], 10*32)
		if err == nil || !strings.Contains(err.Error(), "float32 normal range") {
			t.Errorf("NewTable over [2^%d, 2^%d) = %v, want the float32-normal-range rejection", d[0], d[1], err)
		}
	}
}

// TestEvalMatchesFloat64Decomposition pins Eval to oracleEval bit for bit on
// the three production domains at 16 and 32 segments per octave: every
// segment edge and its float32 neighbours, the domain edges, subnormals,
// zeros, negatives, infinities, NaN, and a non-zero high-side tail.
func TestEvalMatchesFloat64Decomposition(t *testing.T) {
	g := func(x float64) float64 { return math.Exp(-x/64) / (1 + x) }
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	special := []float32{
		0, float32(math.Copysign(0, -1)), -1, -1e-30, -math.MaxFloat32, inf, -inf, nan, -nan,
		math.Float32frombits(0xffc00001), // negative NaN with payload
		math.Float32frombits(0x7f800001), // signalling-pattern NaN
		math.SmallestNonzeroFloat32,      // smallest subnormal
		math.Float32frombits(0x007fffff), // largest subnormal
		math.Float32frombits(0x00800000), // smallest normal
		math.Nextafter32(math.Float32frombits(0x00800000), 1),
		math.MaxFloat32,
	}
	for _, d := range [][2]int{{-20, 12}, {-8, 24}, {-4, 28}} {
		for _, segPerOct := range []int{16, 32} {
			tbl := MustNewTable(g, d[0], d[1], (d[1]-d[0])*segPerOct)
			for _, high := range []float32{0, 7.5} {
				tbl := tbl.WithHighValue(high)
				check := func(x float32) {
					t.Helper()
					got, want := tbl.Eval(x), oracleEval(tbl, float64(x))
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("domain 2^[%d,%d) %d segs/octave high=%g: Eval(%g [%#08x]) = %g, float64 path gives %g",
							d[0], d[1], segPerOct, high, x, math.Float32bits(x), got, want)
					}
				}
				for _, x := range special {
					check(x)
				}
				lo64, hi64 := tbl.Domain()
				for _, edge := range []float32{float32(lo64), float32(hi64)} {
					check(edge)
					check(math.Nextafter32(edge, 0))
					check(math.Nextafter32(edge, inf))
					check(edge / 1024)
					check(edge * 1024)
				}
				for s := 0; s < tbl.Segments(); s++ {
					slo, shi := tbl.segmentBounds(s)
					lo, hi := float32(slo), float32(shi)
					for _, x := range []float32{lo, math.Nextafter32(lo, 0), math.Nextafter32(lo, hi),
						(lo + hi) / 2, math.Nextafter32(hi, lo), hi} {
						check(x)
					}
				}
			}
		}
	}
}

// TestEvalIntoMatchesEval: the block form is Eval elementwise, at lengths
// around the sweep's 64-wide block and with out-of-domain arguments mixed in.
func TestEvalIntoMatchesEval(t *testing.T) {
	g := func(x float64) float64 {
		return 2*math.Exp(-x)/(math.SqrtPi*x) + math.Erfc(math.Sqrt(x))/(x*math.Sqrt(x))
	}
	tbl := MustNewTable(g, -20, 12, DefaultSegments).WithHighValue(3)
	odd := []float32{0, -1, float32(math.NaN()), float32(math.Inf(1)), 1e-30, 5000, math.SmallestNonzeroFloat32}
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		x := make([]float32, n)
		for i := range x {
			if i%9 == 4 {
				x[i] = odd[(i/9)%len(odd)]
			} else {
				x[i] = float32(math.Exp(float64(i%97)*0.23 - 12))
			}
		}
		dst := make([]float32, n+2)
		for i := range dst {
			dst[i] = -99
		}
		tbl.EvalInto(dst, x)
		for i := range x {
			if want := tbl.Eval(x[i]); math.Float32bits(dst[i]) != math.Float32bits(want) {
				t.Fatalf("n=%d: EvalInto[%d] = %g, Eval(%g) = %g", n, i, dst[i], x[i], want)
			}
		}
		if dst[n] != -99 || dst[n+1] != -99 {
			t.Fatalf("n=%d: EvalInto wrote past len(x)", n)
		}
	}
}

// BenchmarkEvalInto reports the block evaluator per element, beside
// BenchmarkEval's per-call figure.
func BenchmarkEvalInto(b *testing.B) {
	g := func(x float64) float64 {
		return 2*math.Exp(-x)/(math.SqrtPi*x) + math.Erfc(math.Sqrt(x))/(x*math.Sqrt(x))
	}
	tbl := MustNewTable(g, -16, 16, DefaultSegments)
	var x, dst [64]float32
	for i := range x {
		x[i] = float32(i%1000)*0.01 + 0.001
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += len(x) {
		tbl.EvalInto(dst[:], x[:])
	}
}

// MustNewTable is NewTable but panics on error; for statically valid tables.
func MustNewTable(g func(float64) float64, emin, emax, nseg int) *Table {
	t, err := NewTable(g, emin, emax, nseg)
	if err != nil {
		panic(err)
	}
	return t
}

// Eval64 is a float64 convenience wrapper around Eval. The argument is first
// rounded to float32, as the hardware interface would.
func (t *Table) Eval64(x float64) float64 { return float64(t.Eval(float32(x))) }

// MaxRelError probes the table against the exact g at n log-uniformly spaced
// points inside [lo, hi) ⊆ domain and returns the maximum relative error with
// the given floor on |g| (see units.RelativeError for the convention).
func (t *Table) MaxRelError(g func(float64) float64, lo, hi float64, n int, floor float64) float64 {
	dlo, dhi := t.Domain()
	if lo < dlo {
		lo = dlo
	}
	if hi > dhi {
		hi = dhi
	}
	maxErr := 0.0
	llo, lhi := math.Log(lo), math.Log(hi)
	for i := 0; i < n; i++ {
		x := math.Exp(llo + (lhi-llo)*(float64(i)+0.5)/float64(n))
		want := g(x)
		got := t.Eval64(x)
		d := math.Abs(got - want)
		m := math.Abs(want)
		if m < floor {
			m = floor
		}
		if m == 0 {
			continue
		}
		if e := d / m; e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

// WithHighValue returns a table that evaluates like t but returns v for
// arguments at or beyond the domain maximum (the hardware default is 0, the
// implicit cutoff). It is a copy sharing t's coefficient RAM: a Table is
// immutable once built, which is what lets sessions share one image.
func (t *Table) WithHighValue(v float32) *Table {
	c := *t
	c.highValue = v
	return &c
}
