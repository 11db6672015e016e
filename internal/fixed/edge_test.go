package fixed

import (
	"math"
	"testing"
)

// TestCarrierBoundaryFormats pins the 62-bit carrier limit exactly: the
// widest legal formats on either side of the boundary, at both extremes of
// the Int/Frac split.
func TestCarrierBoundaryFormats(t *testing.T) {
	cases := []struct {
		f     Format
		valid bool
	}{
		{F(30, 31), true},  // 62 bits: widest balanced format
		{F(31, 30), true},  // 62 bits, mirrored split
		{F(61, 0), true},   // 62 bits, all integer
		{F(0, 61), true},   // 62 bits, all fraction
		{F(31, 31), false}, // 63 bits: one too many
		{F(62, 0), false},
		{F(0, 62), false},
		{F(0, 1), true}, // 2 bits: narrowest legal format
		{F(1, 0), true},
		{F(0, 0), false}, // sign bit only
	}
	for _, c := range cases {
		if got := c.f.Valid(); got != c.valid {
			t.Errorf("%v (%d bits): Valid() = %v, want %v", c.f, c.f.TotalBits(), got, c.valid)
		}
	}
	// At the widest legal format the raw extremes must still fit int64.
	w := F(61, 0)
	if w.MaxRaw() != (1<<61)-1 || w.MinRaw() != -(1<<61) {
		t.Errorf("61-bit extremes: [%d, %d]", w.MinRaw(), w.MaxRaw())
	}
}

// TestWideFor checks the product-width constructor used by the WINE-2
// accumulation stages.
func TestWideFor(t *testing.T) {
	for frac := uint(0); frac <= 60; frac++ {
		f := WideFor(frac)
		if !f.Valid() {
			t.Fatalf("WideFor(%d) = %v invalid", frac, f)
		}
		if f.Frac != frac {
			t.Fatalf("WideFor(%d).Frac = %d", frac, f.Frac)
		}
		if f.TotalBits() != 62 {
			t.Fatalf("WideFor(%d) is %d bits, want the full carrier", frac, f.TotalBits())
		}
	}
	// Beyond 60 fractional bits the fraction is clamped so an integer bit
	// survives.
	if f := WideFor(64); !f.Valid() || f.Frac != 60 {
		t.Errorf("WideFor(64) = %v", f)
	}
}

// TestSaturateVsWrapAtExtremes drives the two overflow behaviours one step
// past each raw extreme: saturation must pin, wrapping must reappear at the
// opposite end, and both must be identities inside the range.
func TestSaturateVsWrapAtExtremes(t *testing.T) {
	f := F(3, 4) // 8-bit format: raw range [-128, 127]
	maxR, minR := f.MaxRaw(), f.MinRaw()
	cases := []struct {
		raw      int64
		sat, wrp int64
	}{
		{maxR, maxR, maxR},         // at the top: both identity
		{minR, minR, minR},         // at the bottom: both identity
		{maxR + 1, maxR, minR},     // one past the top: wrap goes negative
		{minR - 1, minR, maxR},     // one past the bottom: wrap goes positive
		{maxR + 5, maxR, minR + 4}, // a few past
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := f.Saturate(c.raw); got != c.sat {
			t.Errorf("Saturate(%d) = %d, want %d", c.raw, got, c.sat)
		}
		if got := f.Wrap(c.raw); got != c.wrp {
			t.Errorf("Wrap(%d) = %d, want %d", c.raw, got, c.wrp)
		}
	}
}

// TestQuantizeAtExactExtremes quantizes the exact real values of MaxRaw and
// MinRaw: the maximum representable value and the most negative one must
// round-trip, and the first value beyond each must saturate, not wrap.
func TestQuantizeAtExactExtremes(t *testing.T) {
	f := F(2, 5) // range [-4, 3.96875] in steps of 1/32
	top := f.Float(f.MaxRaw())
	bottom := f.Float(f.MinRaw())
	if got := f.Quantize(top); got != f.MaxRaw() {
		t.Errorf("Quantize(top) = %d, want %d", got, f.MaxRaw())
	}
	if got := f.Quantize(bottom); got != f.MinRaw() {
		t.Errorf("Quantize(bottom) = %d, want %d", got, f.MinRaw())
	}
	if got := f.Quantize(top + f.Eps()); got != f.MaxRaw() {
		t.Errorf("Quantize(top+eps) = %d, want saturation at %d", got, f.MaxRaw())
	}
	if got := f.Quantize(bottom - f.Eps()); got != f.MinRaw() {
		t.Errorf("Quantize(bottom-eps) = %d, want saturation at %d", got, f.MinRaw())
	}
	if got := f.Quantize(math.Inf(1)); got != f.MaxRaw() {
		t.Errorf("Quantize(+inf) = %d", got)
	}
	if got := f.Quantize(math.Inf(-1)); got != f.MinRaw() {
		t.Errorf("Quantize(-inf) = %d", got)
	}
}

// TestSinCosPhaseWraparound checks the table at the seam: phases just below
// one turn, exactly one turn, and negative phases must all agree with the
// mathematically wrapped phase, because only the fractional bits of the
// fixed-point phase word reach the lookup.
func TestSinCosPhaseWraparound(t *testing.T) {
	const phaseFrac = 24
	tab, err := NewSinCosTable(10, F(1, 22))
	if err != nil {
		t.Fatal(err)
	}
	turn := int64(1) << phaseFrac
	pairs := []struct{ a, b int64 }{
		{0, turn},                   // 0 and exactly one turn
		{1, turn + 1},               // just past the seam
		{turn - 1, 2*turn - 1},      // just before the seam, one turn apart
		{turn / 3, turn/3 - 2*turn}, // negative phases wrap too
		{turn / 2, -turn / 2},
	}
	for _, p := range pairs {
		sa, ca := tab.SinCos(p.a, phaseFrac)
		sb, cb := tab.SinCos(p.b, phaseFrac)
		if sa != sb || ca != cb {
			t.Errorf("phase %d vs %d: sin %d vs %d, cos %d vs %d", p.a, p.b, sa, sb, ca, cb)
		}
	}
	// The seam must also be continuous: the output one phase step below one
	// turn is within one table step of the output at zero.
	sSeam, _ := tab.SinCos(turn-1, phaseFrac)
	s0, _ := tab.SinCos(0, phaseFrac)
	step := 2 * math.Pi / float64(tab.Size()) // max |d sin| per segment ≈ segment width
	if d := math.Abs(tab.Out().Float(sSeam - s0)); d > step {
		t.Errorf("discontinuity at the phase seam: |Δsin| = %g", d)
	}
}
