package fixed

import "testing"

// TestTrigUnitRejectsNarrowPhase: CheckTrigUnit sizes a trig unit without
// building its table.
func TestTrigUnitRejectsNarrowPhase(t *testing.T) {
	// 8 < 12: the index shift would underflow; 12 and 13 leave fewer than two
	// interpolation bits; at 61 the interpolant's product (a 13-bit table step
	// over 49 phase bits) is past the 62-bit carrier.
	for _, phaseFrac := range []uint{0, 8, 12, 13, 61, 62} {
		if err := CheckTrigUnit(12, F(1, 22), phaseFrac); err == nil {
			t.Errorf("CheckTrigUnit(12, s1.22, %d) accepted", phaseFrac)
		}
	}
	for _, phaseFrac := range []uint{14, 24, 60} {
		if err := CheckTrigUnit(12, F(1, 22), phaseFrac); err != nil {
			t.Errorf("CheckTrigUnit(12, s1.22, %d): %v", phaseFrac, err)
		}
	}
	// The interpolant's product — sample step × segment position — must fit
	// the carrier. On a four-entry table the step is a whole unit, 2^Frac:
	// s1.22 over 38 interpolation bits is the last that fits.
	for _, c := range []struct {
		out       Format
		phaseFrac uint
		ok        bool
	}{
		{F(1, 22), 40, true},
		{F(1, 23), 40, false},
		{F(1, 22), 41, false},
		{F(1, 40), 40, false},
		{F(1, 40), 22, true},
	} {
		err := CheckTrigUnit(2, c.out, c.phaseFrac)
		if (err == nil) != c.ok {
			t.Errorf("CheckTrigUnit(2, %v, %d) = %v, want ok = %v", c.out, c.phaseFrac, err, c.ok)
		}
	}
}

// TestTrigUnitStepBound: CheckTrigUnit sizes the interpolant from the first
// table step plus one unit without building the table; no step of a built
// table may exceed that.
func TestTrigUnitStepBound(t *testing.T) {
	for _, c := range []struct {
		logSize uint
		out     Format
	}{
		{10, F(1, 22)}, {2, F(1, 22)}, {2, F(0, 3)}, {4, F(1, 22)}, {6, F(1, 22)},
		{10, F(1, 10)}, {12, F(1, 4)}, {16, F(1, 10)}, {12, F(1, 40)}, {3, F(0, 1)},
	} {
		tab, err := NewSinCosTable(c.logSize, c.out)
		if err != nil {
			t.Fatal(err)
		}
		bound := maxTableStep(c.logSize, c.out)
		for i := 1; i < len(tab.sin); i++ {
			if d := tab.sin[i] - tab.sin[i-1]; d > bound || -d > bound {
				t.Fatalf("2^%d %v table: step %d at row %d exceeds the bound %d", c.logSize, c.out, d, i-1, bound)
			}
		}
	}
}

// TestRounderMatchesConvert: both shift directions, equal widths, ties either
// side of zero, and words up to the operand bound the unit was resolved for —
// where Convert does not saturate, which is what NewRounder checked.
func TestRounderMatchesConvert(t *testing.T) {
	for _, c := range []struct {
		from, to Format
		maxBits  uint
	}{
		{WideFor(42), F(30, 30), 47}, // DFT: q·sin product → accumulator
		{WideFor(52), F(2, 26), 53},  // IDFT: coefficient·trig product → accumulator
		{WideFor(30), F(30, 30), 35}, // equal fractional width
		{F(5, 10), F(30, 30), 14},    // left shift
		{F(10, 10), F(2, 26), 11},    // left shift into a narrow target, up to its last bit
		{F(1, 20), F(1, 19), 20},     // one-bit right shift: half = 1
		{F(20, 20), F(3, 4), 22},     // narrow target
		{WideFor(14), F(30, 30), 19}, // wine2 narrow-prod, DFT
		{WideFor(60), F(2, 8), 60},   // the carrier's widest word
		{F(20, 20), F(3, 4), 3},      // every word rounds to 0 or ±1
	} {
		r, err := NewRounder(c.from, c.to, c.maxBits)
		if err != nil {
			t.Fatalf("%v → %v, 2^%d: %v", c.from, c.to, c.maxBits, err)
		}
		bound := int64(1) << c.maxBits
		var probes []int64
		add := func(v int64) {
			for d := int64(-2); d <= 2; d++ {
				probes = append(probes, v+d, -v+d)
			}
		}
		add(0)
		add(bound)
		add(bound / 2)
		if c.from.Frac > c.to.Frac {
			shift := c.from.Frac - c.to.Frac
			half := int64(1) << (shift - 1)
			for _, k := range []int64{0, 1, 2, 3, 1000, 12345} {
				add(k<<shift + half) // ties
				add(k << shift)
			}
			add(bound - half)
		}
		x := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < 2000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			probes = append(probes, int64(x)>>(63-c.maxBits))
		}
		for _, raw := range probes {
			if raw > bound || raw < -bound {
				continue // beyond the operand bound the unit was sized for
			}
			if got, want := r.Round(r.Mul*raw), Convert(raw, c.from, c.to); got != want {
				t.Fatalf("%v → %v: Round(%d) = %d, Convert = %d", c.from, c.to, raw, got, want)
			}
		}
	}
}

// TestRounderExact: a scaled operand passes exactly when it is a multiple of
// 2^right, and then Round(scaled·x) = pre·x for every x, of either sign, that
// keeps the product inside the unit's operand bound — on a narrowing unit
// (the wine2 DFT's 12-bit shift), the one-bit shift whose half is 1, and a
// widening unit, whose Mul makes every operand pass.
func TestRounderExact(t *testing.T) {
	for _, c := range []struct {
		from, to Format
		maxBits  uint
	}{
		{WideFor(42), F(30, 30), 47},
		{F(1, 20), F(1, 19), 20},
		{F(5, 10), F(30, 30), 14},
	} {
		r, err := NewRounder(c.from, c.to, c.maxBits)
		if err != nil {
			t.Fatal(err)
		}
		grid := int64(1) << r.right
		x := uint64(0x2545F4914F6CDD1D)
		next := func(bits uint) int64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int64(x) >> (63 - bits)
		}
		for i := 0; i < 4000; i++ {
			raw := next(c.maxBits / 2)
			if i%2 == 0 && grid > r.Mul { // onto the grid; Mul puts every word of a widening unit there
				raw &^= grid/r.Mul - 1
				if raw == 0 {
					raw = grid / r.Mul
				}
			}
			scaled := r.Mul * raw
			pre, ok := r.Exact(scaled)
			if ok != (scaled%grid == 0) {
				t.Fatalf("%v → %v: Exact(%d) ok = %v, grid 2^%d", c.from, c.to, scaled, ok, r.right)
			}
			if !ok {
				continue
			}
			for _, v := range []int64{0, 1, -1, 2, -3, next(c.maxBits - c.maxBits/2 - 1), next(c.maxBits - c.maxBits/2 - 1)} {
				if got, want := r.Round(scaled*v), pre*v; got != want {
					t.Fatalf("%v → %v: Round(%d·%d) = %d, pre·x = %d", c.from, c.to, scaled, v, got, want)
				}
			}
		}
	}
}

// TestNewRounderRefusesReachableSaturator: an operand bound that does not fit
// the source format, or that rounds onto the target's saturation bound, is an
// error at construction — the unit has no clamp to fall back on.
func TestNewRounderRefusesReachableSaturator(t *testing.T) {
	for _, c := range []struct {
		from, to Format
		maxBits  uint
		ok       bool
	}{
		{WideFor(52), F(2, 26), 53, true},  // 2^27 against 2^28 - 1
		{WideFor(52), F(2, 26), 54, false}, // 2^28 is one past MaxRaw
		{WideFor(52), F(2, 26), 61, false}, // not a word of the carrier
		{WideFor(42), F(30, 30), 60, true}, // 2^48 against 2^60 - 1
		{F(10, 10), F(2, 26), 11, true},    // 2^27 after the left shift
		{F(10, 10), F(2, 26), 12, false},   // 2^28 after the left shift
		{F(10, 10), F(2, 26), 20, false},   // 2^20 is not a word of s10.10
		{F(20, 20), F(3, 4), 22, true},     // 2^6 against 2^7 - 1
		{F(20, 20), F(3, 4), 23, false},
	} {
		_, err := NewRounder(c.from, c.to, c.maxBits)
		if (err == nil) != c.ok {
			t.Errorf("NewRounder(%v, %v, 2^%d) = %v, want ok = %v", c.from, c.to, c.maxBits, err, c.ok)
		}
	}
	// A format that does not fit the carrier is refused whatever the bound.
	wide := WideFor(42)
	wide.Int += 9
	if _, err := NewRounder(WideFor(42), wide, 0); err == nil {
		t.Errorf("NewRounder accepted the %d-bit target %v", wide.TotalBits(), wide)
	}
	if _, err := NewRounder(wide, F(30, 30), 0); err == nil {
		t.Errorf("NewRounder accepted the %d-bit source %v", wide.TotalBits(), wide)
	}
}
