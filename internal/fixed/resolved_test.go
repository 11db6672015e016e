package fixed

import (
	"math"
	"testing"
)

// The resolved units must be the general forms with their configuration
// hoisted — nothing else. SinCosTable.SinCos and Convert stay the oracles.

// TestTrigUnitMatchesSinCos sweeps every phase of one turn — all 2^24 for the
// shipped format — plus wrapped and negative phases, for the shipped unit and
// the formats of the wine2 ablation tests.
func TestTrigUnitMatchesSinCos(t *testing.T) {
	for _, c := range []struct {
		logSize   uint
		out       Format
		phaseFrac uint
	}{
		{10, F(1, 22), 24}, // CurrentConfig
		{10, F(1, 22), 16}, // position-bit ablation
		{10, F(1, 22), 12},
		{6, F(1, 22), 24}, // sine-table ablation
		{4, F(1, 22), 24},
		{10, F(1, 10), 24}, // trig-width ablation
		{2, F(0, 3), 4},    // smallest table, samples saturating at ±1, two interpolation bits
	} {
		if testing.Short() && c.phaseFrac > 16 {
			continue
		}
		tab, err := NewSinCosTable(c.logSize, c.out)
		if err != nil {
			t.Fatal(err)
		}
		u, err := tab.Unit(c.phaseFrac)
		if err != nil {
			t.Fatal(err)
		}
		turn := int64(1) << c.phaseFrac
		check := func(ph int64) {
			ws, wc := tab.SinCos(ph, c.phaseFrac)
			if gs, gc := u.Sin(ph), u.Cos(ph); gs != ws || gc != wc {
				t.Fatalf("table 2^%d %v, %d-bit phase %d: unit (%d, %d), SinCos (%d, %d)",
					c.logSize, c.out, c.phaseFrac, ph, gs, gc, ws, wc)
			}
		}
		for ph := int64(0); ph < turn; ph++ {
			check(ph)
		}
		for _, ph := range []int64{-1, -turn, -turn - 1, turn, turn + 1, 3*turn + turn/3, -5*turn + 7,
			math.MaxInt64, math.MinInt64, math.MaxInt64 - turn/4} {
			check(ph)
		}
	}
}

func TestTrigUnitRejectsNarrowPhase(t *testing.T) {
	tab, err := NewSinCosTable(12, F(1, 22))
	if err != nil {
		t.Fatal(err)
	}
	// 8 < 12: the index shift would underflow; 12 and 13 leave fewer than two
	// interpolation bits.
	for _, phaseFrac := range []uint{0, 8, 12, 13, 62} {
		if _, err := tab.Unit(phaseFrac); err == nil {
			t.Errorf("Unit(%d) on a 2^12 table accepted", phaseFrac)
		}
	}
	for _, phaseFrac := range []uint{14, 24, 61} {
		if _, err := tab.Unit(phaseFrac); err != nil {
			t.Errorf("Unit(%d) on a 2^12 table: %v", phaseFrac, err)
		}
	}
}

// TestRounderMatchesConvert: both shift directions, equal widths, ties either
// side of zero, and words at and beyond the target's saturation bounds.
func TestRounderMatchesConvert(t *testing.T) {
	for _, c := range []struct{ from, to Format }{
		{WideFor(42), F(30, 30)}, // DFT: q·sin product → accumulator
		{WideFor(52), F(2, 26)},  // IDFT: coefficient·trig product → accumulator
		{WideFor(30), F(30, 30)}, // equal fractional width
		{F(5, 10), F(30, 30)},    // left shift
		{F(10, 10), F(2, 26)},    // left shift into a narrow target: saturates
		{F(1, 20), F(1, 19)},     // one-bit right shift: half = 1
		{F(20, 20), F(3, 4)},     // narrow target
	} {
		r := NewRounder(c.from, c.to)
		var probes []int64
		add := func(v int64) {
			for d := int64(-2); d <= 2; d++ {
				probes = append(probes, v+d, -v+d)
			}
		}
		add(0)
		if c.from.Frac > c.to.Frac {
			shift := c.from.Frac - c.to.Frac
			half := int64(1) << (shift - 1)
			for _, k := range []int64{0, 1, 2, 3, 1000, 12345} {
				add(k<<shift + half) // ties
				add(k << shift)
			}
			// Around the target's bounds, seen from the source scale.
			add(c.to.MaxRaw() << shift)
			add(c.to.MaxRaw()<<shift + half)
			add(c.to.MinRaw() << shift)
		} else {
			shift := c.to.Frac - c.from.Frac
			add(c.to.MaxRaw() >> shift)
			add(c.to.MaxRaw()>>shift + 1)
		}
		add(c.from.MaxRaw())
		x := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < 2000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			probes = append(probes, c.from.Wrap(int64(x)))
		}
		for _, raw := range probes {
			if raw > c.from.MaxRaw() || raw < c.from.MinRaw() {
				continue // not a word of the source format
			}
			if got, want := r.Round(raw), Convert(raw, c.from, c.to); got != want {
				t.Fatalf("%v → %v: Round(%d) = %d, Convert = %d", c.from, c.to, raw, got, want)
			}
		}
	}
}

func BenchmarkTrigUnit(b *testing.B) {
	tbl, _ := NewSinCosTable(10, F(1, 22))
	u, err := tbl.Unit(32)
	if err != nil {
		b.Fatal(err)
	}
	var s, c int64
	for i := 0; i < b.N; i++ {
		ph := int64(i) * 0x9E3779B9
		s, c = u.Sin(ph), u.Cos(ph)
	}
	_, _ = s, c
}
