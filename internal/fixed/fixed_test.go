package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFormatBasics(t *testing.T) {
	f := F(1, 22)
	if got := f.TotalBits(); got != 24 {
		t.Errorf("TotalBits = %d", got)
	}
	if !f.Valid() {
		t.Error("s1.22 should be valid")
	}
	if got := f.Scale(); got != 1<<22 {
		t.Errorf("Scale = %g", got)
	}
	if got := f.MaxRaw(); got != (1<<23)-1 {
		t.Errorf("MaxRaw = %d", got)
	}
	if got := f.MinRaw(); got != -(1 << 23) {
		t.Errorf("MinRaw = %d", got)
	}
	if f.String() != "s1.22" {
		t.Errorf("String = %q", f.String())
	}
}

func TestFormatValidity(t *testing.T) {
	if F(40, 40).Valid() {
		t.Error("81-bit format should be invalid")
	}
	if F(0, 0).Valid() {
		t.Error("1-bit format should be invalid")
	}
	if !F(0, 31).Valid() {
		t.Error("s0.31 should be valid")
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	f := F(3, 20)
	for _, x := range []float64{0, 0.5, -0.5, 1.25, -7.999, 3.14159} {
		raw := f.Quantize(x)
		back := f.Float(raw)
		if math.Abs(back-x) > f.Eps() {
			t.Errorf("round trip %g -> %d -> %g (eps %g)", x, raw, back, f.Eps())
		}
	}
}

func TestQuantizeSaturates(t *testing.T) {
	f := F(1, 10)
	if got := f.Quantize(100); got != f.MaxRaw() {
		t.Errorf("Quantize(100) = %d, want MaxRaw %d", got, f.MaxRaw())
	}
	if got := f.Quantize(-100); got != f.MinRaw() {
		t.Errorf("Quantize(-100) = %d, want MinRaw %d", got, f.MinRaw())
	}
	if got := f.Quantize(math.NaN()); got != 0 {
		t.Errorf("Quantize(NaN) = %d, want 0", got)
	}
}

func TestWrapTwosComplement(t *testing.T) {
	f := F(0, 7) // 8-bit
	if got := f.Wrap(128); got != -128 {
		t.Errorf("Wrap(128) = %d, want -128", got)
	}
	if got := f.Wrap(255); got != -1 {
		t.Errorf("Wrap(255) = %d, want -1", got)
	}
	if got := f.Wrap(256); got != 0 {
		t.Errorf("Wrap(256) = %d, want 0", got)
	}
	if got := f.Wrap(-129); got != 127 {
		t.Errorf("Wrap(-129) = %d, want 127", got)
	}
}

// Property: Wrap is idempotent and always lands inside the representable range.
func TestWrapProperty(t *testing.T) {
	f := F(2, 13)
	fn := func(raw int64) bool {
		w := f.Wrap(raw)
		return w >= f.MinRaw() && w <= f.MaxRaw() && f.Wrap(w) == w
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantization error is at most half an LSB inside the range.
func TestQuantizeErrorBound(t *testing.T) {
	f := F(4, 18)
	fn := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 15.9) // stay in range
		raw := f.Quantize(x)
		return math.Abs(f.Float(raw)-x) <= f.Eps()/2+1e-15
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizeWrapPhase(t *testing.T) {
	// Phase format: pure fraction (0 integer bits). Phases one whole turn
	// apart must agree on their fractional bits — that is all the SinCos
	// datapath ever reads.
	f := F(0, 30)
	mask := int64(1)<<30 - 1
	a := f.QuantizeWrap(1.25)
	b := f.QuantizeWrap(0.25)
	if a&mask != b&mask {
		t.Errorf("QuantizeWrap(1.25) = %d, want ≡ %d mod one turn", a, b)
	}
	// -0.75 turns ≡ 0.25 turns
	c := f.QuantizeWrap(-0.75)
	if c&mask != b&mask {
		t.Errorf("QuantizeWrap(-0.75) = %d, want ≡ %d mod one turn", c, b)
	}
}

func TestConvert(t *testing.T) {
	from := F(1, 20)
	to := F(1, 10)
	raw := from.Quantize(0.123456)
	conv := Convert(raw, from, to)
	if math.Abs(to.Float(conv)-0.123456) > to.Eps() {
		t.Errorf("Convert down lost too much: %g", to.Float(conv))
	}
	// Up-conversion is exact.
	up := Convert(conv, to, from)
	if from.Float(up) != to.Float(conv) {
		t.Errorf("Convert up not exact: %g vs %g", from.Float(up), to.Float(conv))
	}
}

func TestMulRound(t *testing.T) {
	// 0.5 * 0.5 = 0.25 in s1.10 * s1.10 -> s1.20 exact
	a := F(1, 10).Quantize(0.5)
	b := F(1, 10).Quantize(0.5)
	p := MulRound(a, b, 10, 10, 20)
	if got := F(1, 20).Float(p); got != 0.25 {
		t.Errorf("0.5*0.5 = %g", got)
	}
	// Rounding down to 8 fractional bits.
	p8 := MulRound(a, b, 10, 10, 8)
	if got := F(1, 8).Float(p8); got != 0.25 {
		t.Errorf("0.5*0.5 @8 = %g", got)
	}
	// Negative operand.
	n := F(1, 10).Quantize(-0.5)
	pn := MulRound(n, b, 10, 10, 20)
	if got := F(1, 20).Float(pn); got != -0.25 {
		t.Errorf("-0.5*0.5 = %g", got)
	}
}

// Property: MulRound result is within half an output LSB of the exact product.
func TestMulRoundProperty(t *testing.T) {
	opf := F(1, 14)
	fn := func(xa, xb float64) bool {
		if math.IsNaN(xa) || math.IsInf(xa, 0) || math.IsNaN(xb) || math.IsInf(xb, 0) {
			return true
		}
		xa = math.Mod(xa, 1.9)
		xb = math.Mod(xb, 1.9)
		a := opf.Quantize(xa)
		b := opf.Quantize(xb)
		p := MulRound(a, b, 14, 14, 18)
		exact := opf.Float(a) * opf.Float(b)
		return math.Abs(F(3, 18).Float(p)-exact) <= math.Ldexp(1, -19)+1e-15
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestSinCosTableAccuracy(t *testing.T) {
	tbl, err := NewSinCosTable(10, F(1, 22))
	if err != nil {
		t.Fatal(err)
	}
	maxErr := tbl.MaxAbsError(10000, 32)
	// 1024-entry linear interpolation: analytic max error (2π/1024)²/8 ≈ 4.7e-6,
	// plus output quantization 2^-23.
	if maxErr > 6e-6 {
		t.Errorf("max sin/cos error = %g, want <= 6e-6", maxErr)
	}
	if maxErr == 0 {
		t.Error("zero error is implausible for a quantized table")
	}
}

func TestSinCosQuadrature(t *testing.T) {
	tbl, err := NewSinCosTable(10, F(1, 22))
	if err != nil {
		t.Fatal(err)
	}
	const phaseFrac = 32
	f := F(0, phaseFrac)
	for _, turns := range []float64{0, 0.125, 0.25, 0.5, 0.75, 0.99} {
		p := f.QuantizeWrap(turns)
		s, c := tbl.SinCos(p, phaseFrac)
		sf, cf := tbl.out.Float(s), tbl.out.Float(c)
		if math.Abs(sf*sf+cf*cf-1) > 1e-4 {
			t.Errorf("sin²+cos² at %g turns = %g", turns, sf*sf+cf*cf)
		}
	}
}

func TestSinCosKnownValues(t *testing.T) {
	tbl, _ := NewSinCosTable(12, F(1, 24))
	const phaseFrac = 32
	pf := F(0, phaseFrac)
	cases := []struct {
		turns    float64
		sin, cos float64
	}{
		{0, 0, 1},
		{0.25, 1, 0},
		{0.5, 0, -1},
		{0.75, -1, 0},
		{1.0 / 12, 0.5, math.Sqrt(3) / 2},
	}
	for _, c := range cases {
		s, co := tbl.SinCos(pf.QuantizeWrap(c.turns), phaseFrac)
		if math.Abs(tbl.out.Float(s)-c.sin) > 1e-5 {
			t.Errorf("sin(%g turns) = %g, want %g", c.turns, tbl.out.Float(s), c.sin)
		}
		if math.Abs(tbl.out.Float(co)-c.cos) > 1e-5 {
			t.Errorf("cos(%g turns) = %g, want %g", c.turns, tbl.out.Float(co), c.cos)
		}
	}
}

func TestSinCosPeriodicity(t *testing.T) {
	tbl, _ := NewSinCosTable(10, F(1, 22))
	const phaseFrac = 30
	pf := F(0, phaseFrac)
	p1 := pf.QuantizeWrap(0.3)
	p2 := p1 + (1 << phaseFrac) // +1 full turn in raw units
	s1, c1 := tbl.SinCos(p1, phaseFrac)
	s2, c2 := tbl.SinCos(p2, phaseFrac)
	if s1 != s2 || c1 != c2 {
		t.Error("SinCos not periodic in whole turns")
	}
}

func TestNewSinCosTableErrors(t *testing.T) {
	if _, err := NewSinCosTable(1, F(1, 22)); err == nil {
		t.Error("logSize 1 should be rejected")
	}
	if _, err := NewSinCosTable(21, F(1, 22)); err == nil {
		t.Error("logSize 21 should be rejected")
	}
	if _, err := NewSinCosTable(10, F(40, 40)); err == nil {
		t.Error("invalid format should be rejected")
	}
}

func BenchmarkSinCos(b *testing.B) {
	tbl, _ := NewSinCosTable(10, F(1, 22))
	var s, c int64
	for i := 0; i < b.N; i++ {
		s, c = tbl.SinCos(int64(i)*0x9E3779B9, 32)
	}
	_, _ = s, c
}

// Eps returns the representable step 2^-Frac.
func (f Format) Eps() float64 { return math.Ldexp(1, -int(f.Frac)) }

// Out returns the output format of the unit.
func (t *SinCosTable) Out() Format { return t.out }

// MaxAbsError returns an empirically measured maximum absolute error of the
// table over n uniformly spaced probe phases, compared against math.Sin: the
// §3.4.4 accuracy the table is held to.
func (t *SinCosTable) MaxAbsError(n int, phaseFrac uint) float64 {
	maxErr := 0.0
	for i := 0; i < n; i++ {
		x := float64(i) / float64(n) // turns
		phase := int64(math.Round(x * math.Ldexp(1, int(phaseFrac))))
		s, c := t.SinCos(phase, phaseFrac)
		es := math.Abs(t.out.Float(s) - math.Sin(2*math.Pi*x))
		ec := math.Abs(t.out.Float(c) - math.Cos(2*math.Pi*x))
		if es > maxErr {
			maxErr = es
		}
		if ec > maxErr {
			maxErr = ec
		}
	}
	return maxErr
}
