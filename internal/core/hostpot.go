package core

import (
	"fmt"
	"math"

	"mdm/internal/cellindex"
	"mdm/internal/ewald"
	"mdm/internal/funceval"
	"mdm/internal/md"
	"mdm/internal/tosifumi"
	"mdm/internal/vec"
)

// The host's real-space potential through a float64 function evaluator, in
// the image of the MDGRAPE-2 unit (funceval.Table, §3.5.4) at double
// precision. The pair set is the machine's one real-space pair set, the r_cut
// sphere (cellindex.Sorted.ForEachHalfPair), and a pair's energy is shifted
// to vanish at the cutoff, u_ij(r) − u_ij(r_c), with
//
//	u_ij = q_i q_j E(s) + A_ij b e^((σ_i+σ_j)/ρ) B(s) − c_ij s⁻³ − d_ij s⁻⁴,  s = r²,
//
// so U does not jump when a pair crosses r_c; the forces, which are not
// shifted, are its gradient between crossings. The two kernels depend on the
// pair only through s,
//
//	E(s) = k_e erfc(α√s/L)/√s    B(s) = e^(−√s/ρ),
//
// tabulated once per engine (potTable): 2^potSegBits segments per octave of s,
// addressed from the exponent and top mantissa bits of the float64 word of s,
// each a degree-potDegree interpolant in the centred local coordinate
// u ∈ [−1, 1). A half pair costs one address, two Horner chains and one
// division in place of a square root, a rational erfc, three exponentials
// and three divisions. The walk gathers (r², q_i q_j, species pair) of every
// pair inside the cutoff into a 64-element block that fills across run and i
// boundaries; a full block is evaluated and added to one float64 sum, pairs
// in walk order.
//
// ewald.RealPairEnergyR and tosifumi.ShortEnergy stay the scalar general
// forms: the oracle the evaluator is measured against (hostpot_test.go), the
// source of the shift constants, and the value of any pair whose r² is
// outside the table's domain, so the result does not depend on the domain
// choice. The fit calls the first for E, x formed as (α·r)/L with its
// division: a pre-divided α/L is off by a fixed fraction of an ulp on every
// pair alike, and erfc turns that into a coherent shift of a Coulomb sum that
// is the small difference of terms a thousand times larger.

// potBlockLen is the block length of the potential walk.
const potBlockLen = 64

// numPairKinds counts the ordered species pairs a block's pair index spans.
const numPairKinds = tosifumi.NumSpecies * tosifumi.NumSpecies

// potGather holds the per-particle inputs of the potential walk in sorted
// order — one gather per evaluation instead of two Order lookups per pair.
// It belongs to one machine or session (concurrent machines never share
// one) and is sized once, at the first evaluation.
type potGather struct {
	q    []float64 // charge of sorted particle k
	kind []uint8   // species of sorted particle k
}

// fill loads the planes for the layout's current order. Species were range
// checked by the step's real-space sweep.
func (g *potGather) fill(order []int, s *md.System) {
	if len(g.q) != len(order) {
		g.q = make([]float64, len(order))
		g.kind = make([]uint8, len(order))
	}
	for k, o := range order {
		g.q[k] = s.Charge[o]
		g.kind[k] = uint8(s.Type[o])
	}
}

// potBlock is the evaluator's input block: n gathered pairs.
type potBlock struct {
	n    int
	r2   [potBlockLen]float64
	qq   [potBlockLen]float64 // q_i·q_j
	pair [potBlockLen]uint8   // species-pair index, s_i·NumSpecies + s_j
}

// The evaluator's geometry. Degree 10 on 2³ segments per octave puts the
// interpolation error of both kernels below float64 rounding wherever they
// carry energy (DESIGN.md has the measured table): degree 9 is 10⁻¹⁴ of Σ|u|
// off and fails one oracle fixture, degree 11 loses to the conditioning of
// the monomial basis what its extra node gains.
const (
	potDegree  = 10
	potSegBits = 3
	potMinExp  = 0 // the domain starts at 2^0 = 1 Å²

	potLocalBits = 52 - potSegBits                 // mantissa bits below the segment field
	potLocalMask = 1<<potLocalBits - 1             // the local-coordinate bits
	potLocalHalf = 1 << (potLocalBits - 1)         // the segment's centre
	potLocalUnit = 1.0 / (1 << (potLocalBits - 1)) // local bits → u in [−1, 1)
	potExpBias   = 1023
)

// potRow is one segment's coefficients, constant term first: E's then B's.
type potRow [2 * (potDegree + 1)]float64

// potTable is the host's function-evaluator RAM: the two kernels fitted over
// [2^potMinExp, 2^emax) = [1 Å², 2^⌈log₂ r_c²⌉) — every argument the cutoff
// walk hands it above the floor — with the per-species constants of the pair
// energy and its value at the cutoff beside them. It is immutable once built;
// an engine fits one at construction and a session's driver holds the only
// copy.
type potTable struct {
	p    ewald.Params
	tf   *tosifumi.Potential
	rows []potRow
	lo   uint64 // float64 word of the domain minimum
	span uint64 // words in the domain: w − lo < span ⇔ lo ≤ s < 2^emax

	abe [numPairKinds]float64 // A_ij·b·e^((σ_i+σ_j)/ρ)
	c6  [numPairKinds]float64
	d8  [numPairKinds]float64

	// The shift, u_ij(r_c) = q_i q_j ec + uc[pair]: E at the cutoff and the
	// short-range pair energy there, both from the scalar forms.
	ec float64
	uc [numPairKinds]float64
}

// kernels returns E(s) and B(s) in their scalar forms — what the table is
// fitted through and measured against. E is ewald.RealPairEnergyR's own
// arithmetic at unit charges.
func (t *potTable) kernels(s float64) (e, b float64) {
	r := math.Sqrt(s)
	return t.p.RealPairEnergyR(1, 1, r), math.Exp(-r / t.tf.Rho)
}

// newPotTable fits the two kernels and the shift for a walk cut at p.RCut.
func newPotTable(p ewald.Params) (*potTable, error) {
	frac, emax := math.Frexp(p.RCut * p.RCut) // r_c² = frac·2^emax, frac ∈ [½, 1)
	if frac == 0.5 {
		emax-- // r_c² = 2^(emax−1) itself bounds the walk's r² < r_c²
	}
	emax = max(emax, potMinExp+1)
	tf := tosifumi.Default()
	t := &potTable{
		p: p, tf: tf,
		rows: make([]potRow, (emax-potMinExp)<<potSegBits),
		lo:   uint64(potMinExp+potExpBias) << 52,
		span: uint64(emax-potMinExp) << 52,
		ec:   p.RealPairEnergyR(1, 1, p.RCut),
	}
	for i := 0; i < tosifumi.NumSpecies; i++ {
		for j := 0; j < tosifumi.NumSpecies; j++ {
			pr := i*tosifumi.NumSpecies + j
			t.abe[pr] = tf.A[i][j] * tf.B * math.Exp((tf.Sigma[i]+tf.Sigma[j])/tf.Rho)
			t.c6[pr] = tf.C[i][j]
			t.d8[pr] = tf.D[i][j]
			t.uc[pr] = tf.ShortEnergy(tosifumi.Species(i), tosifumi.Species(j), p.RCut)
		}
	}
	var cheb, nodes [potDegree + 1]float64
	var vals [2][potDegree + 1]float64
	var v funceval.Vandermonde
	funceval.ChebyshevNodes(cheb[:])
	for seg := range t.rows {
		lo := math.Float64frombits(t.lo + uint64(seg)<<potLocalBits)
		hi := math.Float64frombits(t.lo + uint64(seg+1)<<potLocalBits)
		mid, half := (lo+hi)/2, (hi-lo)/2
		for i, u := range cheb {
			// The node is where its argument rounds to, so the fit sees the
			// abscissa the addressing will map that argument back to.
			x := lo + float64(u*(hi-lo))
			nodes[i] = (x - float64(mid)) / half
			vals[0][i], vals[1][i] = t.kernels(x)
		}
		// E and B share the segment's nodes, so one factorisation serves both.
		if err := v.Factor(nodes[:]); err != nil {
			return nil, fmt.Errorf("core: host potential table, segment %d: %w", seg, err)
		}
		for k := range vals {
			if err := v.Solve(t.rows[seg][k*(potDegree+1):(k+1)*(potDegree+1)], vals[k][:]); err != nil {
				return nil, fmt.Errorf("core: host potential table, segment %d: %w", seg, err)
			}
		}
	}
	return t, nil
}

// evalInto sets e[k] = E(s[k]) and b[k] = B(s[k]) for a block of arguments —
// the addressing of funceval.Table.EvalInto on the float64 word, then the two
// Horner chains over one local coordinate. An argument outside the domain
// (below 1 Å², at or beyond 2^emax, negative, NaN) has no table value: its
// e[k] is NaN, which no in-domain argument produces, and the caller takes the
// scalar pair forms.
func (t *potTable) evalInto(e, b, s []float64) {
	rows, lo, span := t.rows, t.lo, t.span
	e, b = e[:len(s)], b[:len(s)]
	for k, sk := range s {
		w := math.Float64bits(sk) - lo
		if w >= span {
			e[k] = math.NaN()
			continue
		}
		c := &rows[w>>potLocalBits]
		u := float64(int64(w&potLocalMask)-potLocalHalf) * potLocalUnit
		ev := c[10]
		ev = float64(ev*u) + c[9]
		ev = float64(ev*u) + c[8]
		ev = float64(ev*u) + c[7]
		ev = float64(ev*u) + c[6]
		ev = float64(ev*u) + c[5]
		ev = float64(ev*u) + c[4]
		ev = float64(ev*u) + c[3]
		ev = float64(ev*u) + c[2]
		ev = float64(ev*u) + c[1]
		ev = float64(ev*u) + c[0]
		bv := c[21]
		bv = float64(bv*u) + c[20]
		bv = float64(bv*u) + c[19]
		bv = float64(bv*u) + c[18]
		bv = float64(bv*u) + c[17]
		bv = float64(bv*u) + c[16]
		bv = float64(bv*u) + c[15]
		bv = float64(bv*u) + c[14]
		bv = float64(bv*u) + c[13]
		bv = float64(bv*u) + c[12]
		bv = float64(bv*u) + c[11]
		e[k], b[k] = ev, bv
	}
}

// hostPotential evaluates the real-space Coulomb and short-range potential
// energy in float64 on the host — the one real-space potential walk of the
// serial machine and the decomposed session alike. It walks the pair set the
// MDGRAPE-2 force passes evaluate, the r_cut sphere of the layout's grid, at
// the conventional computer's half count — each unordered (i, j, image) once —
// and adds each pair's energy shifted to zero at r_c. Coincident particles
// (r = 0) contribute nothing, as in the pipelines. sorted and nbt are the
// step's shared j-set layout and neighbor table; g is the caller's gather
// planes.
func hostPotential(g *potGather, t *potTable, sorted *cellindex.Sorted, nbt *cellindex.NeighborTable, s *md.System) float64 {
	g.fill(sorted.Order, s)
	q, kind := g.q, g.kind
	var b potBlock
	pot := 0.0
	sorted.ForEachHalfPair(nbt, func(i, j int, rij vec.V) {
		r2 := rij.Norm2()
		if r2 == 0 {
			return
		}
		b.r2[b.n], b.qq[b.n], b.pair[b.n] = r2, q[i]*q[j], kind[i]*tosifumi.NumSpecies+kind[j]
		b.n++
		if b.n == potBlockLen {
			pot = t.drain(&b, pot)
		}
	})
	return t.drain(&b, pot) // the final partial block
}

// drain adds the block's shifted pair energies to pot in block order and
// empties it.
func (t *potTable) drain(b *potBlock, pot float64) float64 {
	n := b.n
	var e, bm [potBlockLen]float64
	t.evalInto(e[:n], bm[:n], b.r2[:n])
	for k := 0; k < n; k++ {
		s, pr, qq := b.r2[k], b.pair[k], b.qq[k]
		if math.IsNaN(e[k]) { // outside the table
			r := math.Sqrt(s)
			pot += t.p.RealPairEnergyR(qq, 1, r) - float64(qq*t.ec)
			pot += t.tf.ShortEnergy(tosifumi.Species(pr/tosifumi.NumSpecies), tosifumi.Species(pr%tosifumi.NumSpecies), r) - t.uc[pr]
			continue
		}
		i2 := 1 / s
		i6 := i2 * i2 * i2
		pot += float64(qq * (e[k] - t.ec))
		pot += float64(t.abe[pr]*bm[k]) - float64(t.c6[pr]*i6) - float64(t.d8[pr]*(i6*i2)) - t.uc[pr]
	}
	b.n = 0
	return pot
}
