package core

import (
	"fmt"
	"math"
	"math/bits"

	"mdm/internal/cellindex"
	"mdm/internal/ewald"
	"mdm/internal/funceval"
	"mdm/internal/md"
	"mdm/internal/soa"
	"mdm/internal/tosifumi"
	"mdm/internal/vec"
)

// The host's real-space potential through a float64 function evaluator, in
// the image of the MDGRAPE-2 unit (funceval.Table, §3.5.4) at double
// precision. The pair set is the machine's one real-space pair set, the r_cut
// sphere (hostPairs), and a pair's energy is shifted to vanish at the cutoff,
// u_ij(r) − u_ij(r_c), with
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
// and three divisions. The walk gathers (r², i, j) of every pair inside the
// cutoff into a 64-element block that fills across run and i boundaries; a
// full block is evaluated and added to one float64 sum, pairs in walk order.
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
	i, j [potBlockLen]int32 // the pair's sorted particles
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
// serial machine and the decomposed session alike: hostPairs' kept pairs,
// each pair's energy shifted to zero at r_c, added in walk order. sorted and
// nbt are the step's shared j-set layout and neighbor table; g is the
// caller's gather planes.
func hostPotential(g *potGather, t *potTable, sorted *cellindex.Sorted, nbt *cellindex.NeighborTable, s *md.System) float64 {
	g.fill(sorted.Order, s)
	var b potBlock
	pot := 0.0
	hostPairs(&b, sorted, nbt, func() { pot = t.drain(g, &b, pot) })
	return pot
}

// hostPairs is the host potential's pair walk. It walks the pair set the
// MDGRAPE-2 force passes evaluate, the r_cut sphere of the layout's grid, at
// the conventional computer's half count — each unordered (i, j, image) once,
// from the candidates of cellindex.Sorted.ForEachHalfMask — and appends each
// kept pair's (i, j, r²) to b in walk order. Coincident particles (r = 0) are
// dropped, as in the pipelines. flush, which must empty b, is called whenever
// b is full and once at the end, on the final partial block.
func hostPairs(b *potBlock, sorted *cellindex.Sorted, nbt *cellindex.NeighborTable, flush func()) {
	cut := math.Float64bits(sorted.Grid.Cutoff*sorted.Grid.Cutoff) - 1
	px, py, pz := sorted.Pos.X, sorted.Pos.Y, sorted.Pos.Z
	sorted.ForEachHalfMask(nbt, func(i, base int, m uint64, shift vec.V) {
		if m&(m+1) == 0 && b.n+bits.Len64(m) <= potBlockLen {
			// The whole group from base, as every run of an empty index
			// arrives, and room for it: stream it, storing only the pairs it
			// keeps — a fifth at 8 ions per cell, where the branch predicts.
			end := base + bits.Len64(m)
			jx := px[base:end]
			jy, jz := py[base:end:end], pz[base:end:end]
			xi, yi, zi := px[i], py[i], pz[i]
			for k, x := range jx {
				rij := vec.V{X: xi - (x + shift.X), Y: yi - (jy[k] + shift.Y), Z: zi - (jz[k] + shift.Z)}
				if r2 := rij.Norm2(); math.Float64bits(r2)-1 < cut {
					n := b.n & (potBlockLen - 1)
					b.r2[n], b.i[n], b.j[n] = r2, int32(i), int32(base+k)
					b.n++
				}
			}
			if b.n == potBlockLen {
				flush()
			}
			return
		}
		for m != 0 {
			m = b.gather(&sorted.Pos, i, base, m, shift, cut)
			if b.n == potBlockLen {
				flush()
			}
		}
	})
	flush()
}

// gather appends to the block i's pairs with the candidates m marks among the
// stored particles base … base+63 (bit t for particle base+t), in ascending
// order, until the block is full, and returns the candidates not yet taken.
// A pair is the displacement from the stored coordinates, the j side displaced
// by the run's image shift, and r² = |r⃗|² as vec.V.Norm2 rounds it; it is kept
// when 0 < r² < r_c². cut is the float64 word of r_c² less one: one unsigned
// compare of the word of r² less one drops r = 0 (whose word less one wraps
// to the largest) with the pairs at or beyond the cutoff. The compaction is
// the sweep's, without a branch: every candidate is written to the next free
// slot, which advances only past a kept one. A branch there mispredicts on the
// half of a masked run that is kept, contiguous stretches included.
func (b *potBlock) gather(pos *soa.Coords, i, base int, m uint64, shift vec.V, cut uint64) uint64 {
	n := b.n
	xi, yi, zi := pos.X[i], pos.Y[i], pos.Z[i]
	jx := pos.X[base:]
	jy, jz := pos.Y[base:], pos.Z[base:]
	for ; m != 0 && n < potBlockLen; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		r2 := vec.V{X: xi - (jx[k] + shift.X), Y: yi - (jy[k] + shift.Y), Z: zi - (jz[k] + shift.Z)}.Norm2()
		s := n & (potBlockLen - 1)
		b.r2[s], b.i[s], b.j[s] = r2, int32(i), int32(base+k)
		if math.Float64bits(r2)-1 < cut {
			n++
		}
	}
	b.n = n
	return m
}

// drain adds the block's shifted pair energies to pot in block order and
// empties it; g gives each pair's charges and species.
func (t *potTable) drain(g *potGather, b *potBlock, pot float64) float64 {
	n := b.n
	var e, bm [potBlockLen]float64
	t.evalInto(e[:n], bm[:n], b.r2[:n])
	for k := 0; k < n; k++ {
		i, j := b.i[k], b.j[k]
		s, pr, qq := b.r2[k], g.kind[i]*tosifumi.NumSpecies+g.kind[j], g.q[i]*g.q[j]
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
