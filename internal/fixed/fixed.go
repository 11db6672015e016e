// Package fixed implements the parameterized fixed-point two's-complement
// arithmetic used by the WINE-2 pipeline simulator.
//
// The paper (§3.4.4) states that "fixed-point two's complement format is used
// in all the arithmetic calculations in a pipeline" and that the resulting
// relative accuracy of the wavenumber-space force is about 10^-4.5. This
// package provides the building blocks for reproducing that datapath:
//
//   - Format describes a signed fixed-point representation (integer and
//     fractional bit widths) and converts between float64 and raw integers
//     with round-to-nearest quantization, with either saturating or wrapping
//     (true two's-complement) overflow behaviour.
//   - SinCosTable is a table-lookup sine/cosine unit with linear
//     interpolation, the reference for the WINE-2 DFT/IDFT pipelines' trig
//     unit. Phase is a fixed-point number of turns; only its fractional part
//     matters, which a wrapping datapath gets for free.
//
// Raw values are carried in int64. Formats are limited to 62 total bits so
// that sums of a few terms cannot overflow the carrier type; pipeline code is
// responsible for keeping product widths (sum of operand bit widths) within
// int64 as real hardware keeps them within its adder trees.
package fixed

import (
	"fmt"
	"math"
)

// Format describes a signed fixed-point two's-complement representation with
// Int integer bits and Frac fractional bits (plus an implicit sign bit).
type Format struct {
	Int  uint // integer bits, excluding sign
	Frac uint // fractional bits
}

// F is shorthand for Format{Int: i, Frac: f}.
func F(i, f uint) Format { return Format{Int: i, Frac: f} }

// WideFor returns the widest valid Format with the given fractional width:
// all remaining carrier bits become integer bits. It is the checked
// constructor for product-width intermediates (frac = Frac_a + Frac_b after a
// multiply), where a fixed Int width on top of a variable product width could
// silently exceed the 62-bit carrier. frac must leave at least one value bit.
func WideFor(frac uint) Format {
	if frac > 60 {
		frac = 60
	}
	return Format{Int: 61 - frac, Frac: frac}
}

// TotalBits returns the total width including the sign bit.
func (f Format) TotalBits() uint { return f.Int + f.Frac + 1 }

// Valid reports whether the format fits the int64 carrier with headroom.
func (f Format) Valid() bool { return f.TotalBits() >= 2 && f.TotalBits() <= 62 }

// maxWord is the largest magnitude a word of a valid Format can have: what a
// product formed inside a pipeline must stay within.
const maxWord = int64(1)<<61 - 1

// Scale returns 2^Frac, the factor between real values and raw integers.
func (f Format) Scale() float64 { return math.Ldexp(1, int(f.Frac)) }

// MaxRaw returns the largest representable raw value (2^(Int+Frac) - 1).
func (f Format) MaxRaw() int64 { return (int64(1) << (f.Int + f.Frac)) - 1 }

// MinRaw returns the smallest representable raw value (-2^(Int+Frac)).
func (f Format) MinRaw() int64 { return -(int64(1) << (f.Int + f.Frac)) }

// String implements fmt.Stringer, e.g. "s1.22" for 1 integer and 22
// fractional bits.
func (f Format) String() string { return fmt.Sprintf("s%d.%d", f.Int, f.Frac) }

// Saturate clamps raw into the representable range of f.
func (f Format) Saturate(raw int64) int64 {
	if raw > f.MaxRaw() {
		return f.MaxRaw()
	}
	if raw < f.MinRaw() {
		return f.MinRaw()
	}
	return raw
}

// Wrap reduces raw modulo 2^TotalBits into the representable range, i.e. true
// two's-complement overflow. This is how a hardware adder with no saturation
// logic behaves, and it conveniently implements phase arithmetic modulo one
// turn when Int == 0.
func (f Format) Wrap(raw int64) int64 {
	n := f.TotalBits()
	mask := (int64(1) << n) - 1
	raw &= mask
	if raw>>(n-1) != 0 { // sign bit set
		raw -= int64(1) << n
	}
	return raw
}

// Quantize converts x to raw fixed point with round-to-nearest-even and
// saturating overflow.
func (f Format) Quantize(x float64) int64 {
	if math.IsNaN(x) {
		return 0
	}
	r := math.RoundToEven(x * f.Scale())
	if r >= float64(f.MaxRaw()) {
		return f.MaxRaw()
	}
	if r <= float64(f.MinRaw()) {
		return f.MinRaw()
	}
	return int64(r)
}

// QuantizeWrap converts x to raw fixed point with round-to-nearest-even and
// wrapping overflow.
func (f Format) QuantizeWrap(x float64) int64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	// Reduce in floating point first so the integer conversion cannot
	// overflow for huge x; the final Wrap makes the result exact for the
	// surviving low bits only, which is all hardware would keep anyway.
	period := math.Ldexp(1, int(f.Int)+1) // representable span in real units
	x = math.Mod(x, period)
	return f.Wrap(int64(math.RoundToEven(x * f.Scale())))
}

// Float converts a raw value in format f back to float64.
func (f Format) Float(raw int64) float64 { return float64(raw) / f.Scale() }

// Convert re-quantizes a raw value from format f to format g, rounding to
// nearest and saturating in g. Shifting right discards fractional bits with
// rounding; shifting left is exact.
func Convert(raw int64, from, to Format) int64 {
	switch {
	case to.Frac >= from.Frac:
		shifted := raw << (to.Frac - from.Frac)
		return to.Saturate(shifted)
	default:
		shift := from.Frac - to.Frac
		half := int64(1) << (shift - 1)
		// Round half away from zero, matching a simple hardware rounder.
		if raw >= 0 {
			raw = (raw + half) >> shift
		} else {
			raw = -((-raw + half) >> shift)
		}
		return to.Saturate(raw)
	}
}

// Rounder is Convert resolved for one format pair and one operand bound: the
// shift and the rounding half are fixed when the datapath is built — wiring,
// not per-word decisions — and there is no saturator, because NewRounder has
// shown that no word the unit can be fed reaches one, as an adder tree sized
// for its operands has none.
//
// The unit always shifts right by at least one bit, which keeps
// round-half-away-from-zero free of both the sign branch and a direction
// switch: a conversion that widens by l bits (l = 0: equal widths) multiplies
// by 2^(l+1) and then halves with rounding, which is exact. That power of two
// is Mul, and the caller folds it into one operand of the product (a
// particle's charge word, a wave's coefficient word) instead of paying a shift
// per product: Round takes Mul·raw.
type Rounder struct {
	Mul   int64 // 1 when narrowing; 2^(l+1) when widening by l bits
	half  int64 // 2^(right-1)
	right uint  // >= 1
}

// NewRounder resolves Convert(·, from, to) for words of magnitude at most
// 2^maxBits — the operand maxima of the datapath the unit sits in, budgeted in
// bits as a pipeline's word lengths are. It refuses a bound that does not fit
// from, or that Convert would have to saturate in to: the range check that
// Convert makes per word is made here once. Rounding is symmetric about zero
// and a power of two rounds to a power of two, so the check is on bit counts.
func NewRounder(from, to Format, maxBits uint) (Rounder, error) {
	for _, f := range [2]Format{from, to} {
		if !f.Valid() {
			return Rounder{}, fmt.Errorf("fixed: rounder %v -> %v: %v is %d bits wide, the carrier holds 62", from, to, f, f.TotalBits())
		}
	}
	if maxBits >= from.Int+from.Frac {
		return Rounder{}, fmt.Errorf("fixed: words up to 2^%d do not fit the %d-bit %v", maxBits, from.TotalBits(), from)
	}
	r := Rounder{Mul: 1}
	outBits := uint(0) // |Round(±2^maxBits)| = 2^outBits, or at most 1
	if to.Frac >= from.Frac {
		left := to.Frac - from.Frac
		r.Mul, r.half, r.right = int64(2)<<left, 1, 1
		outBits = maxBits + left
	} else {
		r.right = from.Frac - to.Frac
		r.half = int64(1) << (r.right - 1)
		if maxBits > r.right {
			outBits = maxBits - r.right
		}
	}
	if outBits >= to.Int+to.Frac {
		return Rounder{}, fmt.Errorf("fixed: rounder %v -> %v: a word of magnitude 2^%d reaches the saturator", from, to, maxBits)
	}
	return r, nil
}

// Round returns exactly Convert(raw, from, to) given scaled = Mul·raw, for
// every |raw| <= 2^maxBits, the bound the unit was resolved for.
// Round-half-away-from-zero without the sign branch: for a negative word
// -((-v + half) >> s) = ceil((v - half) / 2^s) = floor((v + half - 1) / 2^s),
// because 2^s - half = half; the arithmetic shift is the floor, and v>>63
// supplies the -1 only when v is negative.
func (r Rounder) Round(scaled int64) int64 {
	// The &63 tells the compiler the distance is below the carrier width
	// (Format.Valid bounds it), so the shift is one instruction.
	return (scaled + r.half + scaled>>63) >> (r.right & 63)
}

// Exact returns scaled / 2^right and true when scaled is a multiple of
// 2^right, false otherwise. Then Round(scaled·x) = pre·x for every x the
// unit may be fed: the bits the shift discards are zero, and half plus the
// sign term (half or half − 1) stays below 2^right, so neither carries into
// the result. A pipeline whose operand word passes drops the rounder from
// its products.
func (r Rounder) Exact(scaled int64) (pre int64, ok bool) {
	if scaled&(int64(1)<<(r.right&63)-1) != 0 {
		return 0, false
	}
	return scaled >> (r.right & 63), true
}

// MulRound multiplies two raw values and rounds the product down to outFrac
// fractional bits, given the operands' fractional bit counts. The caller must
// ensure the operand widths sum to < 63 bits; this mirrors a hardware
// multiplier of fixed width.
func MulRound(a, b int64, aFrac, bFrac, outFrac uint) int64 {
	p := a * b
	pf := aFrac + bFrac
	if outFrac >= pf {
		return p << (outFrac - pf)
	}
	shift := pf - outFrac
	half := int64(1) << (shift - 1)
	if p >= 0 {
		return (p + half) >> shift
	}
	return -((-p + half) >> shift)
}

// SinCosTable is a quarter-resolution sine/cosine lookup unit with linear
// interpolation, modelling the trigonometric function generator of a WINE-2
// pipeline. The table stores 2^LogSize samples of sin over one full turn.
type SinCosTable struct {
	logSize uint
	out     Format
	sin     []int64 // quantized sin(2π i / 2^logSize), length 2^logSize + 1
}

// NewSinCosTable builds a table with 2^logSize segments whose samples and
// outputs are quantized to format out. logSize must be in [2, 20].
func NewSinCosTable(logSize uint, out Format) (*SinCosTable, error) {
	if err := checkTable(logSize, out); err != nil {
		return nil, err
	}
	n := 1 << logSize
	t := &SinCosTable{logSize: logSize, out: out, sin: make([]int64, n+1)}
	for i := 0; i <= n; i++ {
		t.sin[i] = SinSample(logSize, out, i)
	}
	return t, nil
}

// SinSample is sample i of a 2^logSize-entry sine table with samples in
// format out: sin(2π i / 2^logSize), quantized. It is the word a table's
// sample RAM holds at row i; a pipeline that lays the samples out its own way
// builds them from this function, so that it reads the same words.
func SinSample(logSize uint, out Format, i int) int64 {
	n := 1 << logSize
	return out.Quantize(math.Sin(2 * math.Pi * float64(i) / float64(n)))
}

func checkTable(logSize uint, out Format) error {
	if logSize < 2 || logSize > 20 {
		return fmt.Errorf("fixed: logSize %d out of range [2,20]", logSize)
	}
	if !out.Valid() {
		return fmt.Errorf("fixed: invalid output format %v", out)
	}
	return nil
}

// Size returns the number of table segments.
func (t *SinCosTable) Size() int { return 1 << t.logSize }

// SinCos evaluates sin and cos of a phase given in fixed-point turns with
// phaseFrac fractional bits. Only the fractional part of the phase is used
// (the hardware datapath wraps modulo one turn). phaseFrac must be at least
// logSize + 1. It is the one sine reference: the WINE-2 pipelines read their
// own row layout of the same samples (SinSample) and must return exactly
// these words.
func (t *SinCosTable) SinCos(phase int64, phaseFrac uint) (sin, cos int64) {
	sin = t.lookup(phase, phaseFrac)
	// cos(x) = sin(x + 1/4 turn)
	quarter := int64(1) << (phaseFrac - 2)
	cos = t.lookup(phase+quarter, phaseFrac)
	return sin, cos
}

func (t *SinCosTable) lookup(phase int64, phaseFrac uint) int64 {
	mask := (int64(1) << phaseFrac) - 1
	p := phase & mask // fractional part of the phase, in [0, 1) turns
	idxShift := phaseFrac - t.logSize
	idx := p >> idxShift
	rem := p & ((int64(1) << idxShift) - 1) // position within the segment
	a := t.sin[idx]
	b := t.sin[idx+1]
	// Linear interpolation: a + (b-a) * rem / 2^idxShift, rounded.
	diff := b - a
	interp := a + roundShift(diff*rem, idxShift)
	return t.out.Saturate(interp)
}

// CheckTrigUnit reports whether a 2^logSize-entry sine table with samples in
// format out can be read with phaseFrac-bit phases, without building it: the
// table's own checks, at least two interpolation bits below the table index,
// and an interpolant product — a sample step times a segment position, plus
// the rounding half — inside the carrier. A configuration's Validate makes it.
func CheckTrigUnit(logSize uint, out Format, phaseFrac uint) error {
	if err := checkTable(logSize, out); err != nil {
		return err
	}
	if phaseFrac < logSize+2 || phaseFrac > 61 {
		return fmt.Errorf("fixed: phase width %d outside [%d, 61] for a 2^%d-entry sine table",
			phaseFrac, logSize+2, logSize)
	}
	// The interpolant forms step·rem + half with rem < 2^shift and
	// half = 2^(shift-1).
	shift := phaseFrac - logSize
	if maxTableStep(logSize, out) > maxWord>>shift-1 {
		return fmt.Errorf("fixed: interpolating %v samples of a 2^%d-entry sine table over %d phase bits exceeds the 62-bit carrier",
			out, logSize, shift)
	}
	return nil
}

// maxTableStep bounds the difference between neighbouring samples of a sine
// table without building it: the largest step is the first one, sin(2π/2^k)
// (the sine is steepest at its zero crossing), and the two quantizations move
// a step by at most one unit.
func maxTableStep(logSize uint, out Format) int64 {
	return out.Quantize(math.Sin(2*math.Pi/float64(int64(1)<<logSize))) + 1
}

func roundShift(v int64, shift uint) int64 {
	if shift == 0 {
		return v
	}
	half := int64(1) << (shift - 1)
	if v >= 0 {
		return (v + half) >> shift
	}
	return -((-v + half) >> shift)
}
