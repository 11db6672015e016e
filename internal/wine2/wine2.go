// Package wine2 simulates WINE-2, the wavenumber-space force engine of the
// MDM (§3.4 of the paper).
//
// The simulated hierarchy mirrors the hardware:
//
//	System (20 clusters) → Cluster (7 boards, CompactPCI bus)
//	  → Board (16 chips + FPGA interface logic, particle-index counter,
//	           16 MB SDRAM particle memory)
//	    → Chip (8 pipelines) → Pipeline (DFT or IDFT mode)
//
// Numerics follow §3.4.4: "Fixed-point two's complement format is used in all
// the arithmetic calculations in a pipeline." The simulated datapath is:
//
//   - positions enter as box fractions u⃗ = r⃗/L quantized to PosFrac
//     fractional bits; the phase k⃗_n·r⃗ = n⃗·u⃗ is then an exact integer ×
//     fixed-point product whose wrap-around implements "mod one turn" for
//     free (two's-complement overflow);
//   - sine and cosine come from a 2^SinLogSize-entry lookup table with linear
//     interpolation, quantized to TrigFormat (package fixed);
//   - in DFT mode the pipeline accumulates q_j·sin + q_j·cos and
//     q_j·sin − q_j·cos — the hardware outputs S_n+C_n and S_n−C_n and "the
//     host computer calculates S_n and C_n" from them (§3.4.4); each product
//     is rounded to the accumulator, a rounding that is exact, and skipped,
//     when every charge word is on the rounder's grid (integer charges);
//   - in IDFT mode the per-wave coefficients a_n·S_n and a_n·C_n are
//     block-normalized by the host (a global scale factor) and quantized, and
//     the pipeline accumulates Σ a_n (C_n sin θ - S_n cos θ) n⃗ in wide
//     fixed-point accumulators.
//
// The resulting relative accuracy of F⃗(wn) is ~1e-4.5, matching the paper's
// claim, and is measured by the package tests.
package wine2

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"mdm/internal/ewald"
	"mdm/internal/fault"
	"mdm/internal/fixed"
	"mdm/internal/parallelize"
	"mdm/internal/soa"
	"mdm/internal/units"
	"mdm/internal/vec"
)

// Config describes one WINE-2 installation, including the fixed-point
// datapath geometry.
type Config struct {
	Clusters         int     // clusters in the system
	BoardsPerCluster int     // boards per CompactPCI crate
	ChipsPerBoard    int     // WINE-2 chips per board
	PipelinesPerChip int     // pipelines per chip
	ClockHz          float64 // pipeline clock
	ParticleMemBytes int     // per-board particle memory (SDRAM)
	BytesPerParticle int
	FlopsPerCycle    float64 // flop equivalence of one pipeline cycle

	PosFrac    uint         // fractional bits of box-fraction coordinates
	SinLogSize uint         // log2 of the sine table size
	TrigFormat fixed.Format // format of sine/cosine outputs
	QFrac      uint         // fractional bits of quantized charges
	AccFrac    uint         // fractional bits of DFT accumulators
	CoefFrac   uint         // fractional bits of normalized a_n·S_n, a_n·C_n
	IAccFrac   uint         // fractional bits of IDFT accumulators
}

// CurrentConfig is the machine of §3.4 / Table 5 "current": 2,240 chips,
// 45 Tflops peak ("about 20 Gflops" per chip at 66.6 MHz).
func CurrentConfig() Config {
	return Config{
		Clusters:         20,
		BoardsPerCluster: 7,
		ChipsPerBoard:    16,
		PipelinesPerChip: 8,
		ClockHz:          66.6e6,
		ParticleMemBytes: 16 << 20,
		BytesPerParticle: 16,
		FlopsPerCycle:    37.5, // 8 × 66.6 MHz × 37.5 ≈ 20 Gflops/chip
		PosFrac:          24,
		SinLogSize:       10,
		TrigFormat:       fixed.F(1, 22),
		QFrac:            20,
		AccFrac:          30,
		CoefFrac:         30,
		IAccFrac:         26,
	}
}

// FutureConfig is the Table 5 "future" machine: 2,688 chips, 54 Tflops peak.
func FutureConfig() Config {
	c := CurrentConfig()
	c.Clusters = 24 // 24 × 7 × 16 = 2,688 chips
	return c
}

// Chips returns the total chip count.
func (c Config) Chips() int { return c.Clusters * c.BoardsPerCluster * c.ChipsPerBoard }

// Boards returns the total board count.
func (c Config) Boards() int { return c.Clusters * c.BoardsPerCluster }

// Pipelines returns the total pipeline count.
func (c Config) Pipelines() int { return c.Chips() * c.PipelinesPerChip }

// ParticleCapacity returns how many particles fit in one board's memory.
func (c Config) ParticleCapacity() int { return c.ParticleMemBytes / c.BytesPerParticle }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Clusters < 1 || c.BoardsPerCluster < 1 || c.ChipsPerBoard < 1 || c.PipelinesPerChip < 1 {
		return fmt.Errorf("wine2: non-positive hierarchy in %+v", c)
	}
	if c.ClockHz <= 0 || c.ParticleMemBytes <= 0 || c.BytesPerParticle <= 0 || c.FlopsPerCycle <= 0 {
		return fmt.Errorf("wine2: non-positive rates")
	}
	if c.PosFrac < 8 || c.PosFrac > 40 {
		return fmt.Errorf("wine2: PosFrac %d outside [8, 40]", c.PosFrac)
	}
	if err := fixed.CheckTrigUnit(c.SinLogSize, c.TrigFormat, c.PosFrac); err != nil {
		// The phase has PosFrac fractional bits; the sine table consumes the
		// top SinLogSize of them and interpolates on the rest.
		return fmt.Errorf("wine2: trig unit (PosFrac %d, SinLogSize %d, TrigFormat %v): %w",
			c.PosFrac, c.SinLogSize, c.TrigFormat, err)
	}
	// The pipelines' trig rows (trigRows) form a·2^shift + d·rem, at most
	// 2^(Frac+shift) in magnitude, in one word: the interpolant's carrier term.
	if bits := c.TrigFormat.Frac + c.PosFrac - c.SinLogSize; bits > 62 {
		return fmt.Errorf("wine2: trig rows (TrigFormat %v over %d interpolation bits): a %d-bit interpolant, the carrier holds 62",
			c.TrigFormat, c.PosFrac-c.SinLogSize, bits)
	}
	if c.QFrac < 4 || c.AccFrac < 8 || c.CoefFrac < 8 || c.IAccFrac < 8 {
		return fmt.Errorf("wine2: accumulator formats too narrow")
	}
	_, _, err := c.rounders()
	return err
}

// rounders resolves the two reductions of a full-width product to the
// accumulator precision, as a fixed-width adder tree would make them: q·sin
// (QFrac + TrigFormat.Frac fractional bits) to the DFT accumulator, and
// a_n·(C sin θ − S cos θ) (CoefFrac + TrigFormat.Frac bits) to the IDFT
// accumulator. Neither unit has a saturator; this is the proof that neither
// needs one, from the operand maxima of the configuration. No sine sample or
// interpolant exceeds 2^TrigFormat.Frac in magnitude (the table stores
// Quantize(sin) and |sin| ≤ 1; the format's own range, which for s1.22 admits
// 2.0, is not the bound), so
//
//	|q·sin|           ≤ 2^(5+QFrac) · 2^TrigFrac      (charges saturate in s5.QFrac)
//	|aC·sin − aS·cos| ≤ 2 · 2^CoefFrac · 2^TrigFrac   (block normalization: |aS|, |aC| ≤ 2^CoefFrac)
//
// which round to at most 2^(5+AccFrac) against the s30.AccFrac accumulator
// term's 2^(30+AccFrac) − 1, and to at most 2^(IAccFrac+1) against the
// s2.IAccFrac term's 2^(IAccFrac+2) − 1. What a configuration can get wrong
// is the width: a product past the 62-bit carrier, or an accumulator format
// that does not fit it — those are refused here instead of computed.
func (c Config) rounders() (dft, idft fixed.Rounder, err error) {
	trigFrac := c.TrigFormat.Frac
	dft, err = fixed.NewRounder(fixed.WideFor(c.QFrac+trigFrac), fixed.F(30, c.AccFrac), 5+c.QFrac+trigFrac)
	if err != nil {
		return dft, idft, fmt.Errorf("wine2: DFT product (QFrac %d × TrigFormat %v → AccFrac %d): %w",
			c.QFrac, c.TrigFormat, c.AccFrac, err)
	}
	idft, err = fixed.NewRounder(fixed.WideFor(c.CoefFrac+trigFrac), fixed.F(2, c.IAccFrac), 1+c.CoefFrac+trigFrac)
	if err != nil {
		return dft, idft, fmt.Errorf("wine2: IDFT product (CoefFrac %d × TrigFormat %v → IAccFrac %d): %w",
			c.CoefFrac, c.TrigFormat, c.IAccFrac, err)
	}
	return dft, idft, nil
}

// Stats accumulates work counters for the timing model.
type Stats struct {
	DFTOps  int64 // particle-wave DFT evaluations
	IDFTOps int64 // particle-wave IDFT evaluations
	Calls   int64
}

// System is a simulated WINE-2 installation. Calculation calls on one System
// must not overlap (the stats counters and coefficient scratch are
// unsynchronized, as a hardware session's were); concurrent sessions use
// separate Systems.
type System struct {
	cfg   Config
	stats Stats
	hook  fault.HardwareHook
	pool  *parallelize.Pool

	// The datapath, resolved once for cfg — widths are wiring, not run-time
	// decisions: the sine table's rows for PosFrac-bit phases and the two
	// product-to-accumulator rounders of Config.rounders. The pipeline loops
	// read these words into registers once per pass.
	trig      trigRows
	dftRound  fixed.Rounder
	idftRound fixed.Rounder

	plan   rowPlan    // the last wave set's row order, checked on every call
	aS, aC []int64    // IDFT normalized-coefficient scratch in row order, reused across calls
	fc     soa.Coords // force planes behind the array-of-structs IDFT entry points
}

// NewSystem builds a simulated system. It refuses a configuration whose
// datapath does not fit the carrier (Config.Validate): the pipelines run
// without saturators on the strength of that check, whose two inequalities
// are stated on Config.rounders.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, trig: newTrigRows(cfg)}
	var err error
	if s.dftRound, s.idftRound, err = cfg.rounders(); err != nil {
		return nil, err
	}
	return s, nil
}

// trigRows is the trig unit's sine table (samples a_i = fixed.SinSample)
// resolved for PosFrac-bit phases, one row per table segment i:
// A_i = a_i·2^shift + half + (d_i >> 63) and D_i = d_i = a_{i+1} − a_i,
// with half = 2^(shift−1). The table's rounded interpolant
// a + ((d·rem + half + (d·rem)>>63) >> shift) is then exactly
// (A_i + D_i·rem) >> shift: for rem > 0 the sign of d·rem is the sign of d,
// and at rem = 0 both sign terms give 0 because half − 1 < 2^shift. So each
// sine or cosine is one multiply-add and one shift, the constant parts formed
// once per row instead of once per particle·wave. The rows run a quarter turn
// past 2^k, so the cosine reads the same index i as the sine, in an
// equal-length view 2^k/4 rows on: one bounds check covers all four loads.
// |A_i + D_i·rem| ≤ 2^(TrigFormat.Frac+shift) + half, inside int64 by
// Config.Validate's carrier term.
type trigRows struct {
	rows    []trigRow // 2^k + 2^k/4 rows
	shift   uint      // phase bits below the table index
	idxMask int64     // 2^k − 1
	remMask int64     // 2^shift − 1
}

// A trigRow is one segment's (A_i, D_i).
type trigRow [2]int64

// at is the row's interpolant rem/2^shift of the way along the segment.
func (r *trigRow) at(rem int64, shift uint) int64 {
	// shift < 62 by construction; the mask makes the shift one instruction.
	return (r[0] + r[1]*rem) >> (shift & 63)
}

// newTrigRows builds the rows for cfg, which Config.Validate has admitted,
// from the samples themselves, each computed once; row j ≥ 2^k repeats
// segment j − 2^k.
func newTrigRows(cfg Config) trigRows {
	n := 1 << cfg.SinLogSize
	shift := cfg.PosFrac - cfg.SinLogSize
	half := int64(1) << (shift - 1)
	t := trigRows{rows: make([]trigRow, n+n/4), shift: shift, idxMask: int64(n - 1), remMask: int64(1)<<shift - 1}
	a := fixed.SinSample(cfg.SinLogSize, cfg.TrigFormat, 0)
	for i := range n {
		b := fixed.SinSample(cfg.SinLogSize, cfg.TrigFormat, i+1)
		d := b - a
		t.rows[i] = trigRow{a<<shift + half + d>>63, d}
		a = b
	}
	copy(t.rows[n:], t.rows[:n/4])
	return t
}

// views returns the sine rows and the cosine rows, a quarter turn on: equal
// lengths, so one bounds check on i covers sin[i] and cos[i].
func (t *trigRows) views() (sin, cos []trigRow) {
	n := int(t.idxMask) + 1
	sin = t.rows[:n]
	return sin, t.rows[n/4:][:len(sin)]
}

// Config returns the hardware configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns the accumulated work counters.
func (s *System) Stats() Stats { return s.stats }

// SetFaultHook installs the hardware hook — a fault injector, a watchdog's
// liveness beat, or both. Every DFT/IDFT call reports to the hook (site
// fault.WINE2) at its entry and may be failed with a board or transient
// error; an armed bit flip lands in a DFT accumulator. A nil hook (the
// default) costs one nil check per call.
func (s *System) SetFaultHook(h fault.HardwareHook) { s.hook = h }

// SetPool installs the worker pool that runs DFT waves and IDFT particles on
// host cores, the host's stand-in for the hardware's chip-level concurrency.
// A nil pool (the default) runs every pipeline loop serially; any pool width
// produces bit-identical results (see ParticleWords and package
// parallelize). The pool is also used to parallelize quantization.
func (s *System) SetPool(p *parallelize.Pool) { s.pool = p }

// ParticleWords is the quantized particle image of one board's SDRAM
// particle memory: the fixed-point box-fraction position words and charge
// words for a particle block. The hardware writes this memory once per step
// and then runs both the DFT and the IDFT pass against the same image
// (§3.4.2, Fig. 6); Quantize + DFTQuantizedInto/IDFTQuantizedInto reproduce that
// flow, so the host quantization cost is paid once per image instead of once
// per pass.
// The position words are stored as one plane per component (structure of
// arrays) — the layout of the banked SDRAM itself, where the pipelines
// stream each coordinate word column-wise rather than gathering per-particle
// records.
type ParticleWords struct {
	L          float64   // box side the words were quantized against
	Ux, Uy, Uz []int64   // box-fraction position word planes, PosFrac fractional bits
	Q          []int64   // charge words, QFrac fractional bits
	q          []float64 // original charges (host side of the IDFT prefactor q_i)
}

// N returns the number of particles in the image.
func (pw *ParticleWords) N() int { return len(pw.Ux) }

// Quantize converts a particle block to the fixed-point SDRAM image shared
// by the DFT and IDFT passes. len(pos) must equal len(q) and fit the board
// particle memory.
func (s *System) Quantize(l float64, pos []vec.V, q []float64) (*ParticleWords, error) {
	return s.QuantizeInto(nil, l, pos, q)
}

// QuantizeInto is Quantize rewriting a reusable particle image: a non-nil
// pw's word buffers are reused when the particle count matches, so the
// steady-state step path allocates nothing here (the hardware, likewise,
// rewrites the same SDRAM every step).
func (s *System) QuantizeInto(pw *ParticleWords, l float64, pos []vec.V, q []float64) (*ParticleWords, error) {
	if len(pos) != len(q) {
		return nil, fmt.Errorf("wine2: %d positions vs %d charges", len(pos), len(q))
	}
	if len(pos) > s.cfg.ParticleCapacity() {
		return nil, fmt.Errorf("wine2: %d particles exceed board particle memory capacity %d",
			len(pos), s.cfg.ParticleCapacity())
	}
	if pw == nil {
		pw = &ParticleWords{}
	}
	pw.L = l
	if len(pw.Ux) != len(pos) {
		// One slab carved into the four word planes — one SDRAM image, one
		// allocation; the capped slices keep the planes independent.
		n := len(pos)
		s := make([]int64, 4*n)
		pw.Ux = s[0:n:n]
		pw.Uy = s[n : 2*n : 2*n]
		pw.Uz = s[2*n : 3*n : 3*n]
		pw.Q = s[3*n : 4*n : 4*n]
	}
	pw.q = q
	pf := fixed.F(0, s.cfg.PosFrac)
	qf := fixed.F(5, s.cfg.QFrac)
	// Each particle's words are independent, so the quantization chunks
	// trivially; every slot is written by exactly one chunk.
	_ = s.pool.Run(len(pos), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			w := pos[i].Wrap(l)
			pw.Ux[i] = pf.QuantizeWrap(w.X / l)
			pw.Uy[i] = pf.QuantizeWrap(w.Y / l)
			pw.Uz[i] = pf.QuantizeWrap(w.Z / l)
			pw.Q[i] = qf.Quantize(q[i])
		}
		return nil
	})
	return pw, nil
}

// DFT runs the pipelines in DFT mode (eqs. 9, 10): it returns the structure
// factors S_n and C_n for every wave, computed through the fixed-point
// datapath. Internally the accumulators hold S+C and S-C, and the host-side
// reconstruction S = ((S+C)+(S-C))/2 is applied before returning, exactly as
// in §3.4.4. len(pos) must equal len(q) and fit the board particle memory.
func (s *System) DFT(l float64, waves []ewald.Wave, pos []vec.V, q []float64) (sn, cn []float64, err error) {
	pw, err := s.Quantize(l, pos, q)
	if err != nil {
		return nil, nil, err
	}
	return s.DFTQuantizedInto(waves, pw, nil, nil)
}

// AccumulatorError refuses a call whose accumulator sums could leave int64.
// An accumulator sums at most Terms words of magnitude at most 2^Bits
// (Config.rounders' range proof). DFT mode: q·sin and q·cos are each at most
// 2^(AccFrac+5), and S±C adds one of each per particle, so Terms = N and
// Bits = AccFrac + 6. IDFT mode: a force component is Σ t·n with |t| at
// most 2^(IAccFrac+1), so Terms = N_wv·max|n| and Bits = IAccFrac + 1. A
// call runs only when Terms·2^Bits < 2^63: the pipelines compute in the ring
// Z/2^64, where the row walk's reordering and the IDFT's prefix-sum gather
// (n_end·T − ΣP, an identity of integer polynomials) are exact even where an
// intermediate such as ΣP wraps, and this bound on the final words makes the
// ring's result the integer sum.
type AccumulatorError struct {
	Pass  string // "DFT" or "IDFT"
	Terms int64
	Bits  uint
}

// Error implements error.
//
//mdm:hotallocok -- error rendering: reached only once a call was refused, off the clean step path
func (e *AccumulatorError) Error() string {
	return fmt.Sprintf("wine2: %s accumulators overflow int64: %d terms of up to 2^%d", e.Pass, e.Terms, e.Bits)
}

// checkSum refuses terms·2^bits ≥ 2^63.
func checkSum(pass string, terms int64, bits uint) error {
	if terms > math.MaxInt64>>bits {
		return &AccumulatorError{Pass: pass, Terms: terms, Bits: bits}
	}
	return nil
}

// A waveRow is a run of consecutive n_x at fixed (n_y, n_z). Along a row the
// phase n⃗·u⃗ steps by u_x, one add where n⃗·u⃗ costs three products; the
// pipelines walk the wave set row by row. Phases and accumulators are int64,
// the ring Z/2^64, where reordering, regrouping and distributing the sums are
// exact even through wrap-around, and a stepped phase is the same word as
// the product: the row walk returns the bits of a wave-by-wave loop.
type waveRow struct {
	lo, hi     int32 // row-order indices [lo, hi) hold n⃗ = (nx + k − lo, ny, nz)
	nx, ny, nz int64
}

// rowPlan is a wave set in row order: perm maps a row-order index to the
// caller's wave index. ewald.Waves keeps its own order (the float references
// sum in it); only the pipelines walk rows.
type rowPlan struct {
	perm []int32
	rows []waveRow
	maxN int64 // largest |n| component, for the IDFT accumulator bound
}

// fits reports whether p is the row plan of waves, in O(N_wv): a caller that
// rewrites its wave slice between calls never meets a stale plan.
func (p *rowPlan) fits(waves []ewald.Wave) bool {
	if len(p.perm) != len(waves) {
		return false
	}
	for _, r := range p.rows {
		nx := r.nx
		for _, w := range p.perm[r.lo:r.hi] {
			n := &waves[w].N
			if int64(n[0]) != nx || int64(n[1]) != r.ny || int64(n[2]) != r.nz {
				return false
			}
			nx++
		}
	}
	return true
}

// build orders waves by (n_z, n_y, n_x), equal triples in caller order, and
// cuts the order into rows, in buffers sized exactly (they stay live for the
// session). The order is three stable bucket placements, on n_x, n_y, then
// n_z: O(N_wv) for a wave set, whose components span fewer values than it
// has waves.
func (p *rowPlan) build(waves []ewald.Wave) {
	n := len(waves)
	if cap(p.perm) < n {
		p.perm = make([]int32, n)
	}
	p.perm = p.perm[:n]
	tmp, count := make([]int32, n), make([]int32, n+1)
	for w := range tmp {
		tmp[w] = int32(w)
	}
	placeBy(waves, tmp, p.perm, count, 0)
	placeBy(waves, p.perm, tmp, count, 1)
	placeBy(waves, tmp, p.perm, count, 2)
	// k starts a row unless wave k is wave k−1 one step along x.
	starts := func(k int) bool {
		if k == 0 {
			return true
		}
		a, b := &waves[p.perm[k-1]].N, &waves[p.perm[k]].N
		return b[0] != a[0]+1 || b[1] != a[1] || b[2] != a[2]
	}
	nrows := 0
	for k := range p.perm {
		if starts(k) {
			nrows++
		}
	}
	if cap(p.rows) < nrows {
		p.rows = make([]waveRow, 0, nrows)
	}
	p.rows, p.maxN = p.rows[:0], 0
	for k, w := range p.perm {
		n := waves[w].N
		for _, c := range n {
			p.maxN = max(p.maxN, int64(c), -int64(c))
		}
		if starts(k) {
			p.rows = append(p.rows, waveRow{lo: int32(k), nx: int64(n[0]), ny: int64(n[1]), nz: int64(n[2])})
		}
		p.rows[len(p.rows)-1].hi = int32(k) + 1
	}
}

// placeBy writes src to dst ordered by component c of the waves' N, equal
// components in src order: one bucket per value when the component spans at
// most len(count)-1 values, a stable sort otherwise.
func placeBy(waves []ewald.Wave, src, dst, count []int32, c int) {
	if len(src) == 0 {
		return
	}
	lo, hi := waves[src[0]].N[c], waves[src[0]].N[c]
	for _, w := range src {
		lo, hi = min(lo, waves[w].N[c]), max(hi, waves[w].N[c])
	}
	if uint(hi-lo) >= uint(len(count)-1) { // the difference as uint is exact
		copy(dst, src)
		slices.SortStableFunc(dst, func(a, b int32) int { return cmp.Compare(waves[a].N[c], waves[b].N[c]) })
		return
	}
	start := count[:hi-lo+2]
	clear(start)
	for _, w := range src {
		start[waves[w].N[c]-lo+1]++
	}
	for v := 1; v < len(start); v++ {
		start[v] += start[v-1]
	}
	for _, w := range src {
		v := waves[w].N[c] - lo
		dst[start[v]] = w
		start[v]++
	}
}

// rowsFor returns the row plan of waves, rebuilt only when the wave set
// changed since the last call.
func (s *System) rowsFor(waves []ewald.Wave) *rowPlan {
	if !s.plan.fits(waves) {
		s.plan.build(waves)
	}
	return &s.plan
}

// DFTQuantizedInto is the DFT pass over a pre-quantized particle image,
// writing into caller-provided structure factor slices (reused when their
// length matches len(waves), allocated otherwise). The hardware stripes
// waves across chips in blocks (§3.4.2: "different wavenumber vectors are
// assigned to different pipelines"; the time ComputeTime models); on the
// host the wave loop, in row order, is cut into contiguous chunks that the
// pool's workers claim, a chunk being only a scheduling unit. Each wave's
// S±C accumulator lives entirely in one chunk, so the output is
// bit-identical at any pool width. Every q·sin and q·cos product is the
// rounder's word; an image whose charge words all pass exactCharges (the
// check costs one pass over the words per call) runs dftRowExact, which
// forms the same words without rounding, any other image dftRow.
func (s *System) DFTQuantizedInto(waves []ewald.Wave, pw *ParticleWords, sn, cn []float64) ([]float64, []float64, error) {
	if err := checkSum("DFT", int64(pw.N()), s.cfg.AccFrac+6); err != nil {
		return nil, nil, err
	}
	// Fault injection: a scheduled board/transient error aborts the call; an
	// armed bit flip lands in one wave's S+C accumulator at readout, the spot
	// where a flipped SDRAM or pipeline-register bit would surface.
	flipWave, flipBit := -1, 0
	if s.hook != nil {
		if err := s.hook.HardwareCall(fault.WINE2); err != nil {
			return nil, nil, err
		}
		if word, bit, ok := s.hook.PendingFlip(fault.WINE2); ok && len(waves) > 0 {
			flipWave = word % len(waves)
			if flipWave < 0 {
				flipWave += len(waves)
			}
			flipBit = bit & 63
		}
	}
	if len(sn) != len(waves) {
		sn = make([]float64, len(waves))
	}
	if len(cn) != len(waves) {
		cn = make([]float64, len(waves))
	}
	// The chunks read the plan through s: the escaping pool closure captures
	// no new value.
	s.rowsFor(waves)
	exact := s.exactCharges(pw.Q)
	accF := fixed.F(0, s.cfg.AccFrac) // conversion scale for readout
	_ = s.pool.Run(len(waves), func(_, lo, hi int) error {
		perm, rows := s.plan.perm, s.plan.rows
		// A chunk may start inside a row: find the row holding lo.
		r := sort.Search(len(rows), func(r int) bool { return int(rows[r].hi) > lo })
		var acc [dftRun][2]int64
		for k := lo; k < hi; {
			row := rows[r]
			end := min(int(row.hi), hi, k+dftRun)
			nx := row.nx + int64(k-int(row.lo))
			a := acc[:end-k]
			if exact {
				dftRowExact(&s.trig, s.dftRound, nx, row.ny, row.nz, pw, a)
			} else {
				dftRow(&s.trig, s.dftRound, nx, row.ny, row.nz, pw, a)
			}
			for m, w := range perm[k:end] {
				w := int(w)
				plus, minus := a[m][0]+a[m][1], a[m][0]-a[m][1]
				if w == flipWave {
					plus ^= 1 << flipBit
				}
				fp, fm := accF.Float(plus), accF.Float(minus)
				sn[w] = (fp + fm) / 2
				cn[w] = (fp - fm) / 2
			}
			k = end
			if k == int(row.hi) {
				r++
			}
		}
		return nil
	})
	s.stats.DFTOps += int64(len(waves)) * int64(pw.N())
	s.stats.Calls++
	return sn, cn, nil
}

// dftRun bounds the waves of one DFT row walk: their accumulators live on
// the walking goroutine's stack.
const dftRun = 32

// exactCharges reports whether every charge word, times the DFT rounder's
// Mul, is a multiple of 2^right (fixed.Rounder.Exact): then the rounder
// discards only zero bits of every q·sin and q·cos, and dftRowExact computes
// the same words without it. The low bits of the words' OR are those of some
// word. Integer charges (±2^QFrac against a 12-bit shift in CurrentConfig),
// or any on a 1/256 e grid, pass.
func (s *System) exactCharges(q []int64) bool {
	var or int64
	for _, w := range q {
		or |= w * s.dftRound.Mul
	}
	_, ok := s.dftRound.Exact(or)
	return ok
}

// dftRow streams the particle image through the pipeline in DFT mode for the
// waves n⃗ = (n0 + m, n1, n2), m < len(acc), two particles per walk of the
// run, and writes each wave's Σ q·sin and Σ q·cos (AccFrac fractional bits)
// to acc[m]. The units' words are read into locals once, and the word planes
// are resliced to n so that the particle reads carry no bounds check.
func dftRow(trig *trigRows, round fixed.Rounder, n0, n1, n2 int64, pw *ParticleWords, acc [][2]int64) {
	sin, cos := trig.views()
	shift, idxMask, remMask := trig.shift, trig.idxMask, trig.remMask
	clear(acc)
	n := pw.N()
	ux, uy, uz, qw := pw.Ux[:n], pw.Uy[:n], pw.Uz[:n], pw.Q[:n]
	for j := uint(0); j < uint(n); j += 2 { // unsigned: the prover bounds j and jj
		jj := min(j+1, uint(n)-1)
		ux0, ux1 := ux[j], ux[jj]
		ph0 := n0*ux0 + n1*uy[j] + n2*uz[j]
		ph1 := n0*ux1 + n1*uy[jj] + n2*uz[jj]
		q0 := qw[j] * round.Mul
		q1 := qw[jj] * round.Mul
		if jj == j {
			q1 = 0 // an odd last particle walks beside a zero charge, which rounds to 0
		}
		for m := range acc {
			i, rem := ph0>>(shift&63)&idxMask, ph0&remMask
			s0 := round.Round(q0 * sin[i].at(rem, shift))
			c0 := round.Round(q0 * cos[i].at(rem, shift))
			i, rem = ph1>>(shift&63)&idxMask, ph1&remMask
			s1 := round.Round(q1 * sin[i].at(rem, shift))
			c1 := round.Round(q1 * cos[i].at(rem, shift))
			acc[m][0] += s0 + s1
			acc[m][1] += c0 + c1
			ph0 += ux0
			ph1 += ux1
		}
	}
}

// dftRowExact is dftRow for an image that passes exactCharges: each charge
// word enters pre-shifted by the rounder (fixed.Rounder.Exact), so the four
// products of a wave step are plain multiplies whose words equal the rounded
// ones of dftRow.
func dftRowExact(trig *trigRows, round fixed.Rounder, n0, n1, n2 int64, pw *ParticleWords, acc [][2]int64) {
	sin, cos := trig.views()
	shift, idxMask, remMask := trig.shift, trig.idxMask, trig.remMask
	clear(acc)
	n := pw.N()
	ux, uy, uz, qw := pw.Ux[:n], pw.Uy[:n], pw.Uz[:n], pw.Q[:n]
	for j := uint(0); j < uint(n); j += 2 { // unsigned: the prover bounds j and jj
		jj := min(j+1, uint(n)-1)
		ux0, ux1 := ux[j], ux[jj]
		ph0 := n0*ux0 + n1*uy[j] + n2*uz[j]
		ph1 := n0*ux1 + n1*uy[jj] + n2*uz[jj]
		q0, _ := round.Exact(qw[j] * round.Mul)
		q1, _ := round.Exact(qw[jj] * round.Mul)
		if jj == j {
			q1 = 0
		}
		for m := range acc {
			i, rem := ph0>>(shift&63)&idxMask, ph0&remMask
			s0 := q0 * sin[i].at(rem, shift)
			c0 := q0 * cos[i].at(rem, shift)
			i, rem = ph1>>(shift&63)&idxMask, ph1&remMask
			s1 := q1 * sin[i].at(rem, shift)
			c1 := q1 * cos[i].at(rem, shift)
			acc[m][0] += s0 + s1
			acc[m][1] += c0 + c1
			ph0 += ux0
			ph1 += ux1
		}
	}
}

// IDFT runs the pipelines in IDFT mode (eq. 11): given the structure factors,
// it returns the wavenumber-space Coulomb force on every particle, including
// the full physical prefactor q_i/(π ε0 L³) (expressed through the package
// unit system). The per-wave coefficients a_n·S_n and a_n·C_n are
// block-normalized by the host and quantized to CoefFrac bits before entering
// the pipelines.
func (s *System) IDFT(l float64, waves []ewald.Wave, sn, cn []float64, pos []vec.V, q []float64) ([]vec.V, error) {
	pw, err := s.Quantize(l, pos, q)
	if err != nil {
		return nil, err
	}
	return s.IDFTQuantizedInto(waves, sn, cn, pw, nil)
}

// idftPrepare runs the host side of an IDFT call — the accumulator bound,
// the hardware hook's call, the block normalization of a_n·S_n and a_n·C_n,
// and the coefficient quantization into session scratch, in row order. A
// zero scale return (with nil error) means every structure factor vanished
// and the force is zero.
func (s *System) idftPrepare(waves []ewald.Wave, sn, cn []float64) (aS, aC []int64, scale float64, err error) {
	if len(sn) != len(waves) || len(cn) != len(waves) {
		return nil, nil, 0, fmt.Errorf("wine2: %d waves vs %d/%d structure factors", len(waves), len(sn), len(cn))
	}
	plan := s.rowsFor(waves)
	if err := checkSum("IDFT", int64(len(waves))*plan.maxN, s.cfg.IAccFrac+1); err != nil {
		return nil, nil, 0, err
	}
	if s.hook != nil {
		if err := s.hook.HardwareCall(fault.WINE2); err != nil {
			return nil, nil, 0, err
		}
	}
	// Host-side block normalization of a_n S_n and a_n C_n.
	for w := range waves {
		as := math.Abs(waves[w].A * sn[w])
		ac := math.Abs(waves[w].A * cn[w])
		if as > scale {
			scale = as
		}
		if ac > scale {
			scale = ac
		}
	}
	if scale == 0 {
		return nil, nil, 0, nil // all structure factors vanish
	}
	cf := fixed.F(1, s.cfg.CoefFrac)
	if cap(s.aS) < len(waves) {
		s.aS = make([]int64, len(waves))
		s.aC = make([]int64, len(waves))
	}
	aS = s.aS[:len(waves)]
	aC = s.aC[:len(waves)]
	// The coefficient words carry the IDFT rounder's operand scale into the
	// pipelines: once per wave here, not once per particle·wave there.
	mul := s.idftRound.Mul
	for k, w := range plan.perm {
		aS[k] = mul * cf.Quantize(waves[w].A*sn[w]/scale)
		aC[k] = mul * cf.Quantize(waves[w].A*cn[w]/scale)
	}
	return aS, aC, scale, nil
}

// IDFTQuantizedInto is the IDFT pass over a pre-quantized particle image,
// writing the forces into dst (reused when it is large enough, allocated
// otherwise): the pipelines fill the session's force planes
// (IDFTQuantizedCoordsInto) and the host interleaves them.
func (s *System) IDFTQuantizedInto(waves []ewald.Wave, sn, cn []float64, pw *ParticleWords, dst []vec.V) ([]vec.V, error) {
	fc, err := s.IDFTQuantizedCoordsInto(waves, sn, cn, pw, s.fc)
	if err != nil {
		return nil, err
	}
	s.fc = fc
	return fc.AppendAoS(dst), nil
}

// IDFTQuantizedCoordsInto is the IDFT pass writing the force components into
// structure-of-arrays planes (dst is resized and reused when its backing
// arrays are large enough); the normalized per-wave coefficients live in
// session scratch. The board blocking of §3.4.2 stripes resident particle
// blocks across boards (the time ComputeTime models); on the host the
// particle loop is cut into contiguous chunks that the pool's workers claim,
// a chunk being only a scheduling unit. Each particle's fixed-point force
// accumulators live entirely in one chunk, so the output is bit-identical at
// any pool width.
func (s *System) IDFTQuantizedCoordsInto(waves []ewald.Wave, sn, cn []float64, pw *ParticleWords, dst soa.Coords) (soa.Coords, error) {
	aS, aC, scale, err := s.idftPrepare(waves, sn, cn)
	if err != nil {
		return soa.Coords{}, err
	}
	dst = dst.Resize(pw.N())
	fx, fy, fz := dst.X, dst.Y, dst.Z
	if scale == 0 {
		dst.Zero()
		s.stats.Calls++
		return dst, nil
	}

	iaccF := fixed.F(0, s.cfg.IAccFrac)
	l := pw.L
	// Physical prefactor: F = (q_i/(π ε0 L³)) Σ a_n [C sinθ - S cosθ] k⃗ with
	// k⃗ = n⃗/L and the block scale restored.
	pref := 4 * units.Coulomb / (l * l * l * l) * scale

	_ = s.pool.Run(pw.N(), func(_, lo, hi int) error {
		// Two particles per row walk; a chunk's odd last particle walks
		// beside itself.
		for i := lo; i < hi; i += 2 {
			j := min(i+1, hi-1)
			a := idftPair(&s.trig, s.idftRound, s.plan.rows, aS, aC, pw.Ux[i], pw.Uy[i], pw.Uz[i], pw.Ux[j], pw.Uy[j], pw.Uz[j])
			for p, k := range [2]int{i, j} {
				qp := pref * pw.q[k]
				fx[k] = iaccF.Float(a[p][0]) * qp
				fy[k] = iaccF.Float(a[p][1]) * qp
				fz[k] = iaccF.Float(a[p][2]) * qp
			}
		}
		return nil
	})
	s.stats.IDFTOps += int64(len(waves)) * int64(pw.N())
	s.stats.Calls++
	return dst, nil
}

// idftPair streams the wave coefficients, in row order, past two particles
// in IDFT mode and returns each one's three force accumulators (IAccFrac
// fractional bits). aS and aC carry the rounder's operand scale
// (idftPrepare). Per row: one phase product per particle, then one add per
// wave; a_y and a_z gather n_y·T and n_z·T once per row, T = Σt, and a_x
// gathers Σ t·n_x as n_end·T − ΣP, where n_end is one past the row's last
// n_x and P runs over the prefix sums of t (Σ_k t_k·(n_end − n_k) = Σ_k P_k):
// two adds per wave in place of a multiply, an add and a counter. The
// identity holds in Z/2^64 whether or not n_end·T and ΣP wrap
// (AccumulatorError).
func idftPair(trig *trigRows, round fixed.Rounder, rows []waveRow, aS, aC []int64, ux0, uy0, uz0, ux1, uy1, uz1 int64) (a [2][3]int64) {
	sin, cos := trig.views()
	shift, idxMask, remMask := trig.shift, trig.idxMask, trig.remMask
	for _, r := range rows {
		ph0 := r.nx*ux0 + r.ny*uy0 + r.nz*uz0
		ph1 := r.nx*ux1 + r.ny*uy1 + r.nz*uz1
		as := aS[r.lo:r.hi]
		ac := aC[r.lo:r.hi][:len(as)]
		var sum0, sum1 int64 // Σt over the row: the running prefix sum
		var pre0, pre1 int64 // Σ of the prefix sums
		for k, s := range as {
			c := ac[k]
			i, rem := ph0>>(shift&63)&idxMask, ph0&remMask
			t0 := round.Round(c*sin[i].at(rem, shift) - s*cos[i].at(rem, shift))
			i, rem = ph1>>(shift&63)&idxMask, ph1&remMask
			t1 := round.Round(c*sin[i].at(rem, shift) - s*cos[i].at(rem, shift))
			sum0 += t0
			sum1 += t1
			pre0 += sum0
			pre1 += sum1
			ph0 += ux0
			ph1 += ux1
		}
		end := r.nx + int64(len(as)) // one past the row's last n_x
		a[0][0] += end*sum0 - pre0
		a[1][0] += end*sum1 - pre1
		a[0][1] += r.ny * sum0
		a[0][2] += r.nz * sum0
		a[1][1] += r.ny * sum1
		a[1][2] += r.nz * sum1
	}
	return a
}

// ComputeTime returns the pipeline wall-clock time for the given number of
// particle-wave operations with perfect pipelining.
func (s *System) ComputeTime(ops int64) float64 {
	return float64(ops) / (float64(s.cfg.Pipelines()) * s.cfg.ClockHz)
}
