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
//     host computer calculates S_n and C_n" from them (§3.4.4);
//   - in IDFT mode the per-wave coefficients a_n·S_n and a_n·C_n are
//     block-normalized by the host (a global scale factor) and quantized, and
//     the pipeline accumulates Σ a_n (C_n sin θ - S_n cos θ) n⃗ in wide
//     fixed-point accumulators.
//
// The resulting relative accuracy of F⃗(wn) is ~1e-4.5, matching the paper's
// claim, and is measured by the package tests.
package wine2

import (
	"fmt"
	"math"

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

// PeakFlops returns the nominal peak speed.
func (c Config) PeakFlops() float64 {
	return float64(c.Pipelines()) * c.ClockHz * c.FlopsPerCycle
}

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
	// decisions: the sine table for PosFrac-bit phases and the two
	// product-to-accumulator rounders of Config.rounders. The pipeline loops
	// read these words into registers once per pass.
	trig      fixed.TrigUnit
	dftRound  fixed.Rounder
	idftRound fixed.Rounder

	aS, aC []int64    // IDFT normalized-coefficient scratch, reused across calls
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
	table, err := fixed.NewSinCosTable(cfg.SinLogSize, cfg.TrigFormat)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg}
	if s.trig, err = table.Unit(cfg.PosFrac); err != nil {
		return nil, err
	}
	if s.dftRound, s.idftRound, err = cfg.rounders(); err != nil {
		return nil, err
	}
	return s, nil
}

// Config returns the hardware configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns the accumulated work counters.
func (s *System) Stats() Stats { return s.stats }

// ResetStats clears the work counters.
func (s *System) ResetStats() { s.stats = Stats{} }

// SetFaultHook installs the hardware hook — a fault injector, a watchdog's
// liveness beat, or both. Every DFT/IDFT call reports to the hook (site
// fault.WINE2) at its entry and may be failed with a board or transient
// error; an armed bit flip lands in a DFT accumulator. A nil hook (the
// default) costs one nil check per call.
func (s *System) SetFaultHook(h fault.HardwareHook) { s.hook = h }

// SetPool installs the worker pool that stripes DFT waves and IDFT particles
// across host cores, mirroring the hardware's chip-level concurrency. A nil
// pool (the default) runs every pipeline loop serially; any pool width
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
	// Each particle's words are independent, so the quantization shards
	// trivially; every slot is written by exactly one worker.
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

// DFTQuantizedInto is the DFT pass over a pre-quantized particle image,
// writing into caller-provided structure factor slices (reused when their
// length matches len(waves), allocated otherwise). The wave loop is striped
// across the pool's workers exactly as the hardware stripes waves across chips
// (§3.4.2: "different wavenumber vectors are assigned to different
// pipelines"); each wave's S±C accumulator lives entirely in one shard, so
// the output is bit-identical at any pool width.
func (s *System) DFTQuantizedInto(waves []ewald.Wave, pw *ParticleWords, sn, cn []float64) ([]float64, []float64, error) {
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
	accF := fixed.F(0, s.cfg.AccFrac) // conversion scale for readout
	_ = s.pool.Run(len(waves), func(_, lo, hi int) error {
		for w := lo; w < hi; w++ {
			accPlus, accMinus := dftWave(&s.trig, s.dftRound, waves[w].N, pw)
			if w == flipWave {
				accPlus ^= 1 << flipBit
			}
			plus := accF.Float(accPlus)
			minus := accF.Float(accMinus)
			sn[w] = (plus + minus) / 2
			cn[w] = (plus - minus) / 2
		}
		return nil
	})
	s.stats.DFTOps += int64(len(waves)) * int64(pw.N())
	s.stats.Calls++
	return sn, cn, nil
}

// dftWave streams the particle image through one pipeline in DFT mode and
// returns the wave's S+C and S−C accumulators (AccFrac fractional bits). The
// units' words are read once and live in registers for the whole pass.
// Two's-complement sums commute, so the pass accumulates Σ q·sin and Σ q·cos
// and forms the two outputs once, at readout.
func dftWave(trig *fixed.TrigUnit, round fixed.Rounder, nv [3]int, pw *ParticleWords) (accPlus, accMinus int64) {
	lo, hi := trig.Rows()
	shift, half := trig.Shift, trig.Half
	idxMask, remMask, quarter := trig.IdxMask, trig.RemMask, trig.Quarter
	n0, n1, n2 := int64(nv[0]), int64(nv[1]), int64(nv[2])
	ux := pw.Ux
	uy, uz, qw := pw.Uy[:len(ux)], pw.Uz[:len(ux)], pw.Q[:len(ux)]
	var s, c int64
	for j := range ux {
		// n⃗·u⃗ in turns (PosFrac fractional bits): an exact integer ×
		// fixed-point product whose two's-complement overflow is the wrap
		// modulo one turn; it cannot overflow int64 for |n| below 2^20.
		ph := n0*ux[j] + n1*uy[j] + n2*uz[j]
		i, rem := ph>>(shift&63)&idxMask, ph&remMask
		sin := fixed.Lerp(lo, hi, i, rem, half, shift)
		cos := fixed.Lerp(lo, hi, (i+quarter)&idxMask, rem, half, shift)
		q := qw[j] * round.Mul
		s += round.Round(q * sin)
		c += round.Round(q * cos)
	}
	return s + c, s - c
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

// idftPrepare runs the host side of an IDFT call — the hardware hook's call,
// the block normalization of a_n·S_n and a_n·C_n, and the coefficient
// quantization into session scratch. A zero scale return (with nil error)
// means every structure factor vanished and the force is zero.
func (s *System) idftPrepare(waves []ewald.Wave, sn, cn []float64) (aS, aC []int64, scale float64, err error) {
	if len(sn) != len(waves) || len(cn) != len(waves) {
		return nil, nil, 0, fmt.Errorf("wine2: %d waves vs %d/%d structure factors", len(waves), len(sn), len(cn))
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
	for w := range waves {
		aS[w] = mul * cf.Quantize(waves[w].A*sn[w]/scale)
		aC[w] = mul * cf.Quantize(waves[w].A*cn[w]/scale)
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
// session scratch. The particle loop is striped across the pool's workers
// exactly as the board blocking of §3.4.2 stripes resident particle blocks
// across boards; each particle's fixed-point force accumulators live entirely
// in one shard, so the output is bit-identical at any pool width.
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
		for i := lo; i < hi; i++ {
			ax, ay, az := idftParticle(&s.trig, s.idftRound, waves, aS, aC, pw.Ux[i], pw.Uy[i], pw.Uz[i])
			qp := pref * pw.q[i]
			fx[i] = iaccF.Float(ax) * qp
			fy[i] = iaccF.Float(ay) * qp
			fz[i] = iaccF.Float(az) * qp
		}
		return nil
	})
	s.stats.IDFTOps += int64(len(waves)) * int64(pw.N())
	s.stats.Calls++
	return dst, nil
}

// idftParticle streams the wave coefficients past one particle in IDFT mode
// and returns its three force accumulators (IAccFrac fractional bits). aS and
// aC carry the rounder's operand scale (idftPrepare).
func idftParticle(trig *fixed.TrigUnit, round fixed.Rounder, waves []ewald.Wave, aS, aC []int64, ux, uy, uz int64) (ax, ay, az int64) {
	lo, hi := trig.Rows()
	shift, half := trig.Shift, trig.Half
	idxMask, remMask, quarter := trig.IdxMask, trig.RemMask, trig.Quarter
	aS, aC = aS[:len(waves)], aC[:len(waves)]
	for w := range waves {
		n0, n1, n2 := int64(waves[w].N[0]), int64(waves[w].N[1]), int64(waves[w].N[2])
		ph := n0*ux + n1*uy + n2*uz
		i, rem := ph>>(shift&63)&idxMask, ph&remMask
		sin := fixed.Lerp(lo, hi, i, rem, half, shift)
		cos := fixed.Lerp(lo, hi, (i+quarter)&idxMask, rem, half, shift)
		t := round.Round(aC[w]*sin - aS[w]*cos)
		ax += t * n0
		ay += t * n1
		az += t * n2
	}
	return ax, ay, az
}

// ComputeTime returns the pipeline wall-clock time for the given number of
// particle-wave operations with perfect pipelining.
func (s *System) ComputeTime(ops int64) float64 {
	return float64(ops) / (float64(s.cfg.Pipelines()) * s.cfg.ClockHz)
}
