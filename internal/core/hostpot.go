package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"mdm/internal/ewald"
	"mdm/internal/funceval"
	"mdm/internal/mdgrape2"
	"mdm/internal/tosifumi"
)

// The host's real-space potential through a float64 function evaluator, in
// the image of the MDGRAPE-2 unit (funceval.Table, §3.5.4) at double
// precision, fed by the fused sweep itself: on a due call the sweep hands
// every evaluated block of kept pairs to its rank's potSink
// (mdgrape2.PairSink), so the pair set is the sweep's, the r_cut sphere, and
// the pairs are enumerated once per step for force and potential alike, as
// MDGRAPE-2 returns both from one j-stream (§3.5). A pair's energy is shifted
// to vanish at the cutoff, u_ij(r) − u_ij(r_c), with
//
//	u_ij = q_i q_j E(s) + A_ij b e^((σ_i+σ_j)/ρ) B(s) − c_ij s⁻³ − d_ij s⁻⁴,  s = r²,
//	E(s) = k_e erfc(α√s/L)/√s    B(s) = e^(−√s/ρ),
//
// so U does not jump when a pair crosses r_c; the forces, which are not
// shifted, are its gradient between crossings. The charges are the species
// charges the Coulomb pass's coefficient RAM holds, so a shifted pair energy
// depends on the pair only through its kind (the two species) and s. It is
// tabulated once per engine for each kind (potTable): 2^potSegBits segments
// per octave of s, addressed from the exponent and top mantissa bits of the
// float64 word of s, each a degree-potDegree interpolant in the centred local
// coordinate u ∈ [−1, 1). A half pair costs one address and one Horner chain
// in place of a square root, a rational erfc, three exponentials and three
// divisions. Each pair's energy is rounded once to the fixed-point word
// (potWord) and the words are added as integers, so U is exact given the pair
// set: it depends on no pool width, chunk or rank boundary and no walk order.
//
// ewald.RealPairEnergyR and tosifumi.ShortEnergy stay the scalar general
// forms: the oracle the evaluator is measured against (hostpot_test.go), the
// source of the shift constants, and the value of any pair whose r² is
// outside the table's domain, so the result does not depend on the domain
// choice. The fit calls the first for E, x formed as (α·r)/L with its
// division: a pre-divided α/L is off by a fixed fraction of an ulp on every
// pair alike, and erfc turns that into a coherent shift of a Coulomb sum that
// is the small difference of terms a thousand times larger.

// numPairKinds counts the kinds of pair: the unordered species pairs of the
// two-species salt, kind i + j for species i and j (Na–Na, Na–Cl, Cl–Cl). A
// pair's energy is symmetric in its two ions, so the kinds are unordered.
const numPairKinds = 3

// The kind index i + j needs exactly two species: any other count overflows
// one of these conversions.
const _ = uint(2-tosifumi.NumSpecies) + uint(tosifumi.NumSpecies-2)

// kindSpecies returns the species of a pair of kind pr.
func kindSpecies(pr int) (tosifumi.Species, tosifumi.Species) {
	return tosifumi.Species(pr / 2), tosifumi.Species((pr + 1) / 2)
}

// The fixed-point word of U: a signed count of 2^−potFracBits eV in an int64.
//
// Resolution. One unit is 2^−32 eV ≈ 2.3·10⁻¹⁰ eV, and a pair energy is
// rounded to the nearest unit (half a unit, 1.2·10⁻¹⁰ eV, at most). The
// error of U is at most P half-units over P pairs and about √P·0.3 units in
// practice: ≈ 1.5·10⁻⁸ eV on the 48,849 half pairs of 512 ions, 10⁻¹¹ of
// their |U| ≈ 950 eV; at the 884,736-ion rung (r_cut ≈ 18 Å, ≈ 560 half
// pairs an ion, 5·10⁸ pairs) ≈ 10⁻⁶ eV of |U| ≈ 2·10⁶ eV — all far below the
// real-space stage's 10⁻⁵ (AccuracyBound). A pair below 2^−33 eV rounds to 0.
//
// Range. The word holds |U| < 2^31 eV ≈ 2.1·10⁹ eV: 19,400 eV an ion at the
// 110,592-ion rung and 2,400 at the 884,736-ion one, against ≈ 2 eV an ion in
// the melt. Inside potTable's domain (r ≥ 2 Å) no pair energy reaches 10 eV
// (TestPotTableKernelError), so the largest rung fits even with 240 pairs an
// ion at the domain's floor. Partial sums may wrap: the words add modulo 2^64,
// so a total inside the range is exact whatever the order and the excursions
// of the partial sums.
const potFracBits = 32

// potWord is pair energy u (eV) in the word's units, rounded to the nearest,
// ties to even. The scaling by a power of two is exact.
func potWord(u float64) int64 { return int64(math.RoundToEven(u * (1 << potFracBits))) }

// potEnergy is the word's value in eV. The division by a power of two is
// exact and compiles to a multiply; the conversion keeps a caller's add from
// fusing with it.
func potEnergy(w int64) float64 { return float64(float64(w) / (1 << potFracBits)) }

// potPairMax is the largest |u| of one pair the word takes, half its range.
// Inside the table's domain no pair comes near it; below the domain's floor
// only a pair closer than ≈ 0.15 Å reaches it, where the r⁻⁸ term passes
// 10⁹ eV.
const potPairMax = 1 << 30

// errPotentialRange is a due call's failure when a pair's energy is outside
// the word (potPairMax): particles so close that the potential is not
// representable, and not a fault a retry would clear.
var errPotentialRange = errors.New("core: a pair energy beyond ±2^30 eV (particles closer than ≈ 0.15 Å) is outside the potential word")

// The evaluator's geometry. Degree 9 on 2³ segments per octave from r = 2 Å
// keeps every pair energy within 1.3·10⁻¹³ eV of the scalar forms, a
// thousandth of the word's unit (TestPotTableKernelError; degree 8 reads
// 3·10⁻¹² eV, and a floor at 1 Å needs degree 10 for 1.6·10⁻¹² eV). A melt
// at 1,200 K comes no closer than 2.16 Å; a closer pair takes the scalar
// forms.
const (
	potDegree  = 9
	potSegBits = 3
	potMinExp  = 2 // the domain starts at 2^2 Å², r = 2 Å

	potLocalBits = 52 - potSegBits                 // mantissa bits below the segment field
	potLocalMask = 1<<potLocalBits - 1             // the local-coordinate bits
	potLocalHalf = 1 << (potLocalBits - 1)         // the segment's centre
	potLocalUnit = 1.0 / (1 << (potLocalBits - 1)) // local bits → u in [−1, 1)
	potExpBias   = 1023
)

// potRow is one segment's coefficients for one pair kind, constant term
// first.
type potRow [potDegree + 1]float64

// potTable is the host's function-evaluator RAM: the shifted pair energy of
// each pair kind fitted over [2^potMinExp, 2^emax) = [4 Å², 2^⌈log₂ r_c²⌉) —
// every argument the sweep hands it above the floor — with the constants of
// the scalar forms beside it. Row seg·numPairKinds + kind is a segment's
// interpolant for a kind. It is immutable once built; an engine fits one at
// construction and its real ranks share it.
type potTable struct {
	p    ewald.Params
	tf   *tosifumi.Potential
	rows []potRow
	lo   uint64 // float64 word of the domain minimum
	span uint64 // words in the domain: w − lo < span ⇔ lo ≤ s < 2^emax

	qq  [numPairKinds]float64 // q_i q_j, the species charges
	abe [numPairKinds]float64 // A_ij·b·e^((σ_i+σ_j)/ρ)
	c6  [numPairKinds]float64
	d8  [numPairKinds]float64

	// The shift, u_ij(r_c) = q_i q_j ec + uc[pair]: E at the cutoff and the
	// short-range pair energy there, both from the scalar forms.
	ec float64
	uc [numPairKinds]float64
}

// pair is the shifted energy of a pair of kind pr at s from the scalar
// kernels E(s) (ewald.RealPairEnergyR's own arithmetic at unit charges) and
// B(s) — what the table is fitted through and measured against.
func (t *potTable) pair(pr int, s float64) float64 {
	r := math.Sqrt(s)
	e, b := t.p.RealPairEnergyR(1, 1, r), math.Exp(-r/t.tf.Rho)
	i2 := 1 / s
	i6 := i2 * i2 * i2
	return float64(t.qq[pr]*(e-t.ec)) + float64(t.abe[pr]*b) - float64(t.c6[pr]*i6) - float64(t.d8[pr]*(i6*i2)) - t.uc[pr]
}

// newPotTable fits the shifted pair energies for a sweep cut at p.RCut.
func newPotTable(p ewald.Params) (*potTable, error) {
	frac, emax := math.Frexp(p.RCut * p.RCut) // r_c² = frac·2^emax, frac ∈ [½, 1)
	if frac == 0.5 {
		emax-- // r_c² = 2^(emax−1) itself bounds the pairs' r² < r_c²
	}
	emax = max(emax, potMinExp+1)
	tf := tosifumi.Default()
	segs := (emax - potMinExp) << potSegBits
	t := &potTable{
		p: p, tf: tf,
		rows: make([]potRow, segs*numPairKinds),
		lo:   uint64(potMinExp+potExpBias) << 52,
		span: uint64(emax-potMinExp) << 52,
		ec:   p.RealPairEnergyR(1, 1, p.RCut),
	}
	for pr := range numPairKinds {
		i, j := kindSpecies(pr)
		t.qq[pr] = tosifumi.Charge(i) * tosifumi.Charge(j)
		t.abe[pr] = tf.A[i][j] * tf.B * math.Exp((tf.Sigma[i]+tf.Sigma[j])/tf.Rho)
		t.c6[pr] = tf.C[i][j]
		t.d8[pr] = tf.D[i][j]
		t.uc[pr] = tf.ShortEnergy(i, j, p.RCut)
	}
	var cheb, nodes [potDegree + 1]float64
	var vals [numPairKinds][potDegree + 1]float64
	var v funceval.Vandermonde
	funceval.ChebyshevNodes(cheb[:])
	for seg := range segs {
		lo := math.Float64frombits(t.lo + uint64(seg)<<potLocalBits)
		hi := math.Float64frombits(t.lo + uint64(seg+1)<<potLocalBits)
		mid, half := (lo+hi)/2, (hi-lo)/2
		for i, u := range cheb {
			// The node is where its argument rounds to, so the fit sees the
			// abscissa the addressing will map that argument back to.
			x := lo + float64(u*(hi-lo))
			nodes[i] = (x - float64(mid)) / half
			for pr := range vals {
				vals[pr][i] = t.pair(pr, x)
			}
		}
		// The kinds share the segment's nodes, so one factorisation serves all.
		if err := v.Factor(nodes[:]); err != nil {
			return nil, fmt.Errorf("core: host potential table, segment %d: %w", seg, err)
		}
		for pr := range vals {
			if err := v.Solve(t.rows[seg*numPairKinds+pr][:], vals[pr][:]); err != nil {
				return nil, fmt.Errorf("core: host potential table, segment %d: %w", seg, err)
			}
		}
	}
	return t, nil
}

// evalInto sets u[k] to the table's shifted energy of a pair of kind kind[k]
// at squared distance r2[k]: the
// addressing of funceval.Table.EvalInto on the float64 word, then the kind's
// Horner chain in s's segment. An argument outside the domain (below 4 Å², at
// or beyond 2^emax, negative, NaN) has no table value: its u[k] is NaN, which
// no in-domain argument produces, and the caller takes the scalar forms.
func (t *potTable) evalInto(u, r2 []float64, kind []uint8) {
	rows, lo, span := t.rows, t.lo, t.span
	u, kind = u[:len(r2)], kind[:len(r2)]
	for k, s := range r2 {
		x := math.Float64bits(s) - lo
		if x >= span {
			u[k] = math.NaN()
			continue
		}
		c := &rows[int(x>>potLocalBits)*numPairKinds+int(kind[k])]
		l := float64(int64(x&potLocalMask)-potLocalHalf) * potLocalUnit
		v := c[9]
		v = float64(v*l) + c[8]
		v = float64(v*l) + c[7]
		v = float64(v*l) + c[6]
		v = float64(v*l) + c[5]
		v = float64(v*l) + c[4]
		v = float64(v*l) + c[3]
		v = float64(v*l) + c[2]
		v = float64(v*l) + c[1]
		u[k] = float64(v*l) + c[0]
	}
}

// sum is the shifted energies of up to potBlockLen pairs (evalInto's
// arguments) in the word's units: each pair rounded once (potWord), the words
// added. A pair outside the table's domain takes the scalar forms, and ok is
// false if one of those is beyond ±potPairMax eV.
func (t *potTable) sum(r2 []float64, kind []uint8) (w int64, ok bool) {
	var u [potBlockLen]float64
	t.evalInto(u[:], r2, kind)
	ok = true
	for k, v := range u[:len(r2)] {
		if math.IsNaN(v) { // outside the table
			pr := int(kind[k])
			r := math.Sqrt(r2[k])
			si, sj := kindSpecies(pr)
			v = t.p.RealPairEnergyR(t.qq[pr], 1, r) - float64(t.qq[pr]*t.ec)
			v += t.tf.ShortEnergy(si, sj, r) - t.uc[pr]
			if !(math.Abs(v) < potPairMax) {
				ok, v = false, 0
			}
		}
		w += potWord(v)
	}
	return w, ok
}

// potBlockLen is the longest block the sweep hands a sink.
const potBlockLen = len(mdgrape2.PairBlock{}.J)

// potSink is a real rank's host potential on a due call: installed as its
// MDGRAPE-2 session's mdgrape2.PairSink for the call's sweep, it keeps one
// orientation of each unordered (i, j, image) the sweep kept — the one whose
// i has the lower sorted index, or, for a particle and its own image, the
// image in the upper half-space (first non-zero shift component positive) —
// and adds its shifted energy, from the float64 r² of the layout's float64
// planes, into its chunk's word. Every layout of a session keeps the serial
// within-cell order and sorts cells by the one global grid, so two
// particles' sorted indices compare alike in every layout that holds both,
// and every layout keeps the same orientation of every pair; r = 0, the
// sweep's visit of i to itself and any coincident pair, is dropped, as the
// pipelines' zero force drops it. The per-chunk words let the lendable
// chunks of the sweep, whichever goroutine runs them, carry the potential.
type potSink struct {
	t     *potTable
	js    *mdgrape2.JSet // the layout of the sweep in progress
	words []potChunk
}

// potChunk is one chunk's word, alone on its cache line, and whether every
// pair's energy fitted it.
type potChunk struct {
	w      int64
	unheld bool
	_      [55]byte
}

// Start implements mdgrape2.PairSink.
func (p *potSink) Start(chunks int) {
	p.words = slices.Grow(p.words[:0], chunks)[:chunks]
	clear(p.words)
}

// Pairs implements mdgrape2.PairSink: the block's kept half into its
// chunk's word.
func (p *potSink) Pairs(chunk, i int, blk *mdgrape2.PairBlock) {
	var b potBlock
	p.keep(&b, i, blk)
	w, ok := p.t.sum(b.r2[:b.n], b.kind[:b.n])
	c := &p.words[chunk]
	c.w += w
	c.unheld = c.unheld || !ok
}

// potBlock is the kept half of one sweep block: each kept pair's float64 r²,
// kind and place in the sweep's block.
type potBlock struct {
	n    int
	r2   [potBlockLen]float64
	kind [potBlockLen]uint8
	at   [potBlockLen]uint8
}

// keep fills b with the pairs of i-particle i's sweep block blk that this
// orientation keeps, each r² = |(r⃗_i − shift) − r⃗_j|². A run's j ascend and,
// unless the run is i's own cell, lie on one side of i in the sorted order,
// so a run wholly below i costs one compare.
func (p *potSink) keep(b *potBlock, i int, blk *mdgrape2.PairBlock) {
	sorted, types := p.js.Sorted, p.js.Types
	k := sorted.Slot[i]
	px, py, pz := sorted.Pos.X, sorted.Pos.Y, sorted.Pos.Z
	xi, yi, zi := px[k], py[k], pz[k]
	ki := uint8(types[k])
	n := 0
	for r, e := range blk.Ent[:blk.Runs] {
		lo, hi := int(blk.At[r]), int(blk.At[r+1])
		if lo >= hi || int(blk.J[hi-1]) < k {
			continue // the pairs' lower sorted indices keep them
		}
		sh := blk.Nbrs[e].Shift
		if int(blk.J[lo]) <= k { // i's own cell: skip to the first pair it keeps
			upper := sh.X > 0 || sh.X == 0 && (sh.Y > 0 || sh.Y == 0 && sh.Z > 0)
			for lo < hi && (int(blk.J[lo]) < k || int(blk.J[lo]) == k && !upper) {
				lo++
			}
		}
		ox, oy, oz := xi-sh.X, yi-sh.Y, zi-sh.Z
		for m := lo; m < hi; m++ {
			jj := blk.J[m]
			ex, ey, ez := ox-px[jj], oy-py[jj], oz-pz[jj]
			s := float64(ex*ex) + float64(ey*ey) + float64(ez*ez)
			if s == 0 {
				continue
			}
			b.r2[n&(potBlockLen-1)], b.kind[n&(potBlockLen-1)], b.at[n&(potBlockLen-1)] = s, ki+uint8(types[jj]), uint8(m)
			n++
		}
	}
	b.n = n
}

// total is the call's real-space potential word, the chunks' words added, or
// errPotentialRange if a pair did not fit the word.
func (p *potSink) total() (int64, error) {
	var w int64
	for _, c := range p.words {
		if c.unheld {
			return 0, errPotentialRange
		}
		w += c.w
	}
	return w, nil
}
