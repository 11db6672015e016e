// Package funceval implements the MDGRAPE-2 function evaluator: a segmented
// polynomial interpolator for an arbitrary central force g(x).
//
// The paper (§3.5.4) describes the unit as "fourth-order interpolation
// segmented by 1,024 region[s]" whose coefficients live in a RAM, so that
// "we can use any arbitrary central force by changing the contents of the
// RAM". Like the real hardware (and its MD-GRAPE predecessor), segments are
// addressed from the floating-point representation of the argument: the
// exponent selects an octave [2^e, 2^(e+1)) and the mantissa's top bits
// select an equal subdivision of that octave, giving pseudo-logarithmic
// spacing that matches the dynamic range of force kernels such as
// erfc-screened Coulomb and Lennard-Jones.
//
// Arithmetic mirrors the chip: the argument and the stored coefficients are
// IEEE-754 single precision, the polynomial is evaluated in single precision
// (Horner), and only the final force accumulation (done by the caller)
// is double precision. The resulting relative accuracy is ~1e-7, as quoted in
// the paper.
//
// The evaluator's dynamic range is cut off on both sides. Arguments at or
// beyond the domain maximum return the high-side tail value (0 by default,
// the implicit cutoff). On the low-magnitude side the RAM never holds a
// subnormal word: a segment on which |g| stays below 2^-102 is stored as an
// all-zero row and evaluates to exactly +0 (see NewTable). Gradual underflow
// is a property of an IEEE host FPU — where it costs a microcode assist per
// operation — not of this pipeline.
package funceval

import (
	"fmt"
	"math"
	"math/bits"
)

// Order is the interpolation order used by the MDGRAPE-2 evaluator.
const Order = 4

// DefaultSegments is the number of interpolation regions in the MDGRAPE-2
// function-evaluator RAM.
const DefaultSegments = 1024

// Table holds the coefficient RAM for one function g(x) together with the
// address wiring resolved for its domain.
type Table struct {
	emin, emax int // domain is [2^emin, 2^emax)
	segPerOct  int // segments per octave, 2^k
	coeff      [][Order + 1]float32
	highValue  float32 // returned for x >= 2^emax (hardware cutoff tail)

	wiring
	loBits, hiBits uint32 // float32 words of 2^emin and 2^emax
}

// wiring says which bit field of an argument's float32 word selects the
// segment and which is the local coordinate. With 2^k segments per octave,
// the exponent field and the top k mantissa bits form one integer that counts
// segments from 2^-127; the remaining 23-k mantissa bits are the position
// inside the segment.
type wiring struct {
	shift  uint    // 23 - k
	base   uint32  // word>>shift of the domain minimum
	mask   uint32  // the 23-k local-coordinate bits
	uscale float32 // 2^-(23-k): local bits → u in [0, 1)
}

// float32 exponent range of normal numbers: the argument word carries the
// octave in its exponent field only for these.
const (
	minExp32  = -126
	maxExp32  = 127
	mantBits  = 23
	expBias32 = 127
	infBits32 = 0x7f800000
)

// The pipeline's underflow rule, in the float64 the fit works in.
const (
	// minNormal32 is 2^-126, the smallest normal float32: a coefficient below
	// it would be stored as a subnormal word.
	minNormal32 = 1.0 / (1 << -minExp32)
	// flushFloor is 2^-102 = 2^-126 · 2^24, the smallest magnitude whose
	// half-ulp (2^-24 of it) is still a normal float32. Below it the Horner
	// terms of a segment leave the normal range even where its value has not.
	flushFloor = minNormal32 * (1 << (mantBits + 1))
)

// NewTable builds a coefficient table for g over the domain [2^emin, 2^emax)
// using nseg segments. nseg must be a positive multiple of (emax-emin) that
// gives a power-of-two number of segments per octave (at most 2^23), and the
// domain must lie inside the float32 normal range [2^-126, 2^127]: segments
// are addressed from bit fields of the argument's float32 word.
// Outside the domain, Eval returns g evaluated at the domain minimum for
// 0 < x < 2^emin (clamp), and highValue — normally 0, the hardware's implicit
// cutoff — for x >= 2^emax.
//
// Inside the domain the same cutoff applies on the low-magnitude side: a
// segment whose |g| is below 2^-102 at every fit node stores an all-zero
// coefficient row, and in a kept row a coefficient below 2^-126 is stored as
// zero, so no RAM word is subnormal and Eval returns exactly +0 on a zeroed
// segment. The bound follows from the float32 format alone (see flushFloor).
//
// g must be finite over the open domain; the fitter samples it only at
// interior Chebyshev nodes, so integrable endpoint singularities at exactly
// 2^emin are tolerated.
func NewTable(g func(float64) float64, emin, emax, nseg int) (*Table, error) {
	t, err := newWiredTable(emin, emax, nseg)
	if err != nil {
		return nil, err
	}
	t.coeff = make([][Order + 1]float32, nseg)
	// Every segment interpolates at the same local nodes, so one
	// factorisation of their Vandermonde matrix serves the whole table.
	var nodes [Order + 1]float64
	ChebyshevNodes(nodes[:])
	var v Vandermonde
	if err := v.Factor(nodes[:]); err != nil {
		return nil, fmt.Errorf("funceval: %w", err)
	}
	for s := 0; s < nseg; s++ {
		lo, hi := t.segmentBounds(s)
		c, err := fitSegment(g, lo, hi, &nodes, &v)
		if err != nil {
			return nil, fmt.Errorf("funceval: segment %d [%g,%g): %w", s, lo, hi, err)
		}
		t.coeff[s] = c
	}
	return t, nil
}

// NewTableImage builds a Table over [2^emin, 2^emax) from rows a fit already
// produced — a RAM image NewTable computed and a caller kept — without
// fitting. The domain and the row count pass NewTable's checks, and a
// subnormal, NaN or infinite word, none of which the fit stores, is refused.
// The rows are referenced, not copied: they must not change afterwards.
func NewTableImage(emin, emax int, rows [][Order + 1]float32) (*Table, error) {
	t, err := newWiredTable(emin, emax, len(rows))
	if err != nil {
		return nil, err
	}
	for s, r := range rows {
		for _, c := range r {
			mag := math.Float32bits(c) &^ (1 << 31)                // the word without its sign
			if mag >= infBits32 || mag != 0 && mag < 1<<mantBits { // ±Inf, NaN or subnormal
				return nil, fmt.Errorf("funceval: segment %d holds %g, not a RAM word (subnormal, NaN or Inf)", s, c)
			}
		}
	}
	t.coeff = rows
	return t, nil
}

// newWiredTable checks a domain [2^emin, 2^emax) of nseg segments and
// returns a Table wired for it, with no coefficient rows yet.
func newWiredTable(emin, emax, nseg int) (*Table, error) {
	if emax <= emin {
		return nil, fmt.Errorf("funceval: empty exponent range [%d,%d)", emin, emax)
	}
	if emin < minExp32 || emax > maxExp32 {
		return nil, fmt.Errorf("funceval: domain [2^%d, 2^%d) outside the float32 normal range [2^%d, 2^%d]",
			emin, emax, minExp32, maxExp32)
	}
	oct := emax - emin
	if nseg <= 0 || nseg%oct != 0 {
		return nil, fmt.Errorf("funceval: %d segments is not a positive multiple of %d octaves", nseg, oct)
	}
	segPerOct := nseg / oct
	k := uint(bits.TrailingZeros(uint(segPerOct)))
	if segPerOct != 1<<k || k > mantBits {
		return nil, fmt.Errorf("funceval: %d segments per octave is not a power of two up to 2^%d", segPerOct, mantBits)
	}
	shift := mantBits - k
	return &Table{
		emin:      emin,
		emax:      emax,
		segPerOct: segPerOct,
		wiring: wiring{
			shift:  shift,
			base:   uint32(emin+expBias32) << k,
			mask:   1<<shift - 1,
			uscale: float32(math.Ldexp(1, -int(shift))),
		},
		loBits: uint32(emin+expBias32) << mantBits,
		hiBits: uint32(emax+expBias32) << mantBits,
	}, nil
}

// Segments returns the number of interpolation regions.
func (t *Table) Segments() int { return len(t.coeff) }

// Row returns segment s's coefficient words, constant term first: the RAM row
// the evaluator reads for an argument in that segment.
func (t *Table) Row(s int) [Order + 1]float32 { return t.coeff[s] }

// Domain returns the representable argument range [lo, hi).
func (t *Table) Domain() (lo, hi float64) { return math.Ldexp(1, t.emin), math.Ldexp(1, t.emax) }

// segmentBounds returns the argument interval covered by segment s.
//
// Here and in ChebyshevNodes, fitSegment and Vandermonde each product
// that feeds an add is rounded by a float64(…) conversion: without it a
// compiler may fuse the two (Go spec), and the table image would differ
// between architectures.
func (t *Table) segmentBounds(s int) (lo, hi float64) {
	oct := s / t.segPerOct
	sub := s % t.segPerOct
	base := math.Ldexp(1, t.emin+oct)
	w := base / float64(t.segPerOct)
	lo = base + float64(float64(sub)*w)
	hi = lo + w
	return lo, hi
}

// address maps the float32 word of an argument inside the domain to its
// segment and the local coordinate u in [0,1) — the addressing the hardware
// performs on the argument's floating-point representation. Both results are
// exact: the segment is an integer bit field, and u is an integer below
// 2^(23-k) scaled by a power of two.
func (a wiring) address(word uint32) (seg uint32, u float32) {
	// shift <= 23; the mask lets the compiler emit a bare shift.
	return word>>(a.shift&31) - a.base, float32(int32(word&a.mask)) * a.uscale
}

// ChebyshevNodes fills u with the len(u) Chebyshev nodes of the first kind
// mapped to (0, 1), ascending — the fit nodes of a segment in its local
// coordinate, whatever the interpolation order.
func ChebyshevNodes(u []float64) {
	n := float64(len(u))
	for i := range u {
		u[i] = 0.5 - float64(0.5*math.Cos(math.Pi*(float64(i)+0.5)/n))
	}
}

// fitSegment computes interpolation coefficients for g on [lo, hi) in the
// local coordinate u = (x-lo)/(hi-lo), by exact interpolation at the Order+1
// Chebyshev nodes v is the factorisation of, and applies the underflow rule
// to the words it stores: the row is all zero when no node value reaches
// flushFloor, and a coefficient below minNormal32 is zero in a kept row.
func fitSegment(g func(float64) float64, lo, hi float64, nodes *[Order + 1]float64, v *Vandermonde) ([Order + 1]float32, error) {
	var vals [Order + 1]float64
	peak := 0.0
	for i, u := range nodes {
		x := lo + float64(u*(hi-lo))
		y := g(x)
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return [Order + 1]float32{}, fmt.Errorf("g(%g) is not finite", x)
		}
		vals[i] = y
		peak = math.Max(peak, math.Abs(y))
	}
	if peak < flushFloor {
		return [Order + 1]float32{}, nil
	}
	var c [Order + 1]float64
	if err := v.Solve(c[:], vals[:]); err != nil {
		return [Order + 1]float32{}, err
	}
	var c32 [Order + 1]float32
	for i, y := range c {
		if math.Abs(y) >= minNormal32 {
			c32[i] = float32(y)
		}
	}
	return c32, nil
}

// MaxFitNodes bounds the order SolveVandermonde accepts: past it a monomial
// basis on Chebyshev nodes loses more digits to conditioning than a further
// node gains.
const MaxFitNodes = 16

// Vandermonde is the factorisation of the matrix V_ij = u_i^j of a node set
// by Gaussian elimination with partial pivoting: the row swapped in at each
// column, the multipliers and the reduced upper triangle. Solve replays on a
// right-hand side exactly the row operations the elimination of the
// augmented matrix [V | v] performs on its last column, in the same order
// and with the same operands, so a fit factored once is bit-identical to
// one that eliminates the whole system per right-hand side: the matrix
// entries, pivots and multipliers never depend on v.
type Vandermonde struct {
	n   int
	piv [MaxFitNodes]int
	// a holds the reduced upper triangle on and above the diagonal, and
	// below it a[r][col], the multiple of pivot row col subtracted from row
	// r. A later column swaps only its own and later columns, so a
	// multiplier stays at the position its row had when it was applied.
	a [MaxFitNodes][MaxFitNodes]float64
}

// Factor factors the Vandermonde matrix of the nodes u, at most MaxFitNodes
// of them.
func (f *Vandermonde) Factor(u []float64) error {
	n := len(u)
	if n > MaxFitNodes {
		return fmt.Errorf("funceval: Vandermonde system of %d nodes (at most %d)", n, MaxFitNodes)
	}
	f.n = n
	a := &f.a
	for i := 0; i < n; i++ {
		p := 1.0
		for j := 0; j < n; j++ {
			a[i][j] = p
			p *= u[i]
		}
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if a[piv][col] == 0 {
			return fmt.Errorf("singular Vandermonde system")
		}
		f.piv[col] = piv
		for k := col; k < n; k++ {
			a[col][k], a[piv][k] = a[piv][k], a[col][k]
		}
		for r := col + 1; r < n; r++ {
			m := a[r][col] / a[col][col]
			for k := col + 1; k < n; k++ {
				a[r][k] -= float64(m * a[col][k])
			}
			a[r][col] = m
		}
	}
	return nil
}

// Solve sets c to the coefficients of the polynomial through the factored
// nodes and the values v: sum_j c_j u_i^j = v_i. c and v have the node
// count's length.
func (f *Vandermonde) Solve(c, v []float64) error {
	n := f.n
	if len(c) != n || len(v) != n {
		return fmt.Errorf("funceval: Vandermonde system of %d nodes, %d values, %d coefficients", n, len(v), len(c))
	}
	// c holds the eliminated right-hand side until back substitution
	// overwrites it from the last row up.
	copy(c, v)
	a := &f.a
	for col := 0; col < n; col++ {
		piv := f.piv[col]
		c[col], c[piv] = c[piv], c[col]
		for r := col + 1; r < n; r++ {
			c[r] -= float64(a[r][col] * c[col])
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := c[i]
		for j := i + 1; j < n; j++ {
			s -= float64(a[i][j] * c[j])
		}
		c[i] = s / a[i][i]
	}
	return nil
}

// SolveVandermonde solves sum_j c_j u_i^j = v_i for the coefficients of the
// polynomial through the points (u_i, v_i): Factor, then Solve. c, u and v
// have one length, at most MaxFitNodes. The system is tiny and
// well-conditioned for Chebyshev nodes: 5x5 on (0, 1) for the MDGRAPE-2 RAM,
// 11x11 on (-1, 1) for the host's float64 evaluator.
func SolveVandermonde(c, u, v []float64) error {
	var f Vandermonde
	if err := f.Factor(u); err != nil {
		return err
	}
	return f.Solve(c, v)
}

// Eval evaluates the table at x using single-precision arithmetic, modelling
// the hardware datapath. Arguments at or below zero return 0 (the hardware
// never produces a self-force because r⃗ = 0 there; returning 0 keeps the
// simulated pipeline free of NaNs). Arguments below the domain clamp to the
// domain minimum; arguments at or above the domain maximum return the
// high-side tail value (0 by default — the implicit cutoff). Arguments in a
// segment the fit zeroed (|g| below 2^-102 throughout, see NewTable) return
// +0: the low-magnitude cutoff.
func (t *Table) Eval(x float32) float32 {
	in, out := [1]float32{x}, [1]float32{}
	t.EvalInto(out[:], in[:])
	return out[0]
}

// EvalInto evaluates the table at every x[i] into dst[i] (len(dst) must be at
// least len(x)), with Eval's treatment of out-of-domain arguments. The block
// form keeps the address wiring in registers across the run — how a pipeline
// sees a streamed j-block.
func (t *Table) EvalInto(dst, x []float32) {
	dst = dst[:len(x)]
	coeff, wire := t.coeff, t.wiring
	loBits, hiBits, high := t.loBits, t.hiBits, t.highValue
	for i, xi := range x {
		// Positive float32 words order like the numbers they encode, and every
		// word with the sign bit set compares above all of them, so one
		// unsigned compare separates the in-domain arguments from the rest.
		w := math.Float32bits(xi)
		if w >= hiBits {
			if w <= infBits32 { // hi <= x <= +Inf
				dst[i] = high
			} else { // negative, -0 or NaN
				dst[i] = 0
			}
			continue
		}
		if w < loBits {
			if w == 0 {
				dst[i] = 0
				continue
			}
			w = loBits // below the domain, subnormals included: clamp
		}
		// The hardware's addressing on the argument word (see address), then
		// Horner in float32, unrolled over the fixed quartic order. The
		// conversions round each product as the hardware does and forbid a
		// compiler from fusing it into the add (Go spec).
		seg, u := wire.address(w)
		c := &coeff[seg]
		r := float32(c[4]*u) + c[3]
		r = float32(r*u) + c[2]
		r = float32(r*u) + c[1]
		r = float32(r*u) + c[0]
		dst[i] = r
	}
}
