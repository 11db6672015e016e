// Package mdgrape2 simulates the MDGRAPE-2 special-purpose computer: the
// real-space force engine of the MDM (§3.5 of the paper).
//
// The simulated hierarchy mirrors the hardware exactly:
//
//	System (16 clusters) → Cluster (2 boards, shared PCI bus)
//	  → Board (2 chips + FPGA: interface logic, cell-index counter,
//	           cell memory, particle-index counter, 8 MB particle memory)
//	    → Chip (4 pipelines + atom-coefficient RAM for 32 types)
//	      → Pipeline (f⃗_ij = b_ij · g(a_ij r²) · r⃗_ij, eq. 14)
//
// The chip's neighbor-list RAM, "which was not used in our simulation"
// (§3.5.3), is not modelled.
//
// Numerics follow §3.5.4: "most of the arithmetic units in the pipeline use
// IEEE754 single floating point format" — the displacement, squared distance,
// argument scaling, function evaluation (a 1,024-segment fourth-order
// interpolator, package funceval) and the b_ij multiply are all done in
// float32 — while "the double floating point format is used for accumulating
// the force", so per-particle accumulation is float64. The resulting pairwise
// relative accuracy is ~1e-7.
//
// The board walks particles through the cell-index method (eqs. 7, 8): every
// candidate of the 27 neighbour cells streams through the pipelines with no
// Newton's third law, so the operation count is N·N_int_g ≈ 13 N·N_int. The
// tables are zero beyond the cutoff the cell grid records, so the pairs that
// contribute are the r_cut sphere's; the simulator evaluates only those.
// Self-pairs (r⃗ = 0) pass through the pipeline and contribute exactly zero,
// as in the hardware.
//
// The user-visible entry points reproduce the library of Table 3 (MR1…).
package mdgrape2

import (
	"fmt"

	"mdm/internal/fault"
	"mdm/internal/funceval"
	"mdm/internal/parallelize"
)

// Config describes one MDGRAPE-2 installation.
type Config struct {
	Clusters         int     // clusters in the system
	BoardsPerCluster int     // boards on each cluster's PCI bus
	ChipsPerBoard    int     // MDGRAPE-2 chips per board
	PipelinesPerChip int     // pipelines per chip
	ClockHz          float64 // pipeline clock
	ParticleMemBytes int     // per-board particle memory (SSRAM)
	BytesPerParticle int     // storage per j-particle (position, charge, type)
	FlopsPerPair     float64 // flop equivalence of one pipeline cycle
}

// CurrentConfig is the machine of §3.5 / Table 5 "current": 64 chips,
// 1 Tflops peak (16 Gflops per chip at 100 MHz).
func CurrentConfig() Config {
	return Config{
		Clusters:         16,
		BoardsPerCluster: 2,
		ChipsPerBoard:    2,
		PipelinesPerChip: 4,
		ClockHz:          100e6,
		ParticleMemBytes: 8 << 20,
		BytesPerParticle: 16,
		FlopsPerPair:     40, // 4 pipes × 100 MHz × 40 = 16 Gflops/chip
	}
}

// FutureConfig is the Table 5 "future" machine: 1,536 chips, 25 Tflops peak.
func FutureConfig() Config {
	c := CurrentConfig()
	c.Clusters = 384 // 1,536 chips at 2 boards × 2 chips per cluster
	return c
}

// Chips returns the total chip count.
func (c Config) Chips() int { return c.Clusters * c.BoardsPerCluster * c.ChipsPerBoard }

// Boards returns the total board count.
func (c Config) Boards() int { return c.Clusters * c.BoardsPerCluster }

// Pipelines returns the total pipeline count.
func (c Config) Pipelines() int { return c.Chips() * c.PipelinesPerChip }

// ParticleCapacity returns how many j-particles fit in one board's memory.
func (c Config) ParticleCapacity() int { return c.ParticleMemBytes / c.BytesPerParticle }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Clusters < 1 || c.BoardsPerCluster < 1 || c.ChipsPerBoard < 1 || c.PipelinesPerChip < 1 {
		return fmt.Errorf("mdgrape2: non-positive hierarchy in %+v", c)
	}
	if c.ClockHz <= 0 || c.ParticleMemBytes <= 0 || c.BytesPerParticle <= 0 || c.FlopsPerPair <= 0 {
		return fmt.Errorf("mdgrape2: non-positive rates in %+v", c)
	}
	return nil
}

// MaxTypes is the capacity of the atom-coefficient RAM (§3.5.3).
const MaxTypes = 32

// Stats accumulates the work counters a timing model needs.
type Stats struct {
	PairsEvaluated int64 // pipeline cycles consumed (one streamed 27-cell candidate each)
	IParticles     int64 // i-particles processed
	JLoads         int64 // j-particles written to particle memories
	Calls          int64 // force-calculation calls
}

// System is a simulated MDGRAPE-2 installation. Calculation calls on one
// System must not overlap (the stats counters are unsynchronized, as the
// hardware's were per-session); concurrent sessions use separate Systems.
type System struct {
	cfg    Config
	tables map[string]*funceval.Table
	stats  Stats
	hook   fault.HardwareHook
	pool   *parallelize.Pool

	chunkPairs []int64 // per-call pair-counter scratch, reused across calls
}

// pairScratch returns a zeroed per-chunk pair-counter slice of length n,
// reusing the session's scratch buffer.
func (s *System) pairScratch(n int) []int64 {
	if cap(s.chunkPairs) < n {
		s.chunkPairs = make([]int64, n)
	}
	sp := s.chunkPairs[:n]
	for i := range sp {
		sp[i] = 0
	}
	return sp
}

// NewSystem builds a simulated system.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{cfg: cfg, tables: make(map[string]*funceval.Table)}, nil
}

// Config returns the hardware configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns a copy of the accumulated work counters.
func (s *System) Stats() Stats { return s.stats }

// ResetStats clears the work counters.
func (s *System) ResetStats() { s.stats = Stats{} }

// SetFaultHook installs the hardware hook — a fault injector, a watchdog's
// liveness beat, or both. Every ComputeForces call reports to the hook (site
// fault.MDG2) at its entry and may be failed with a board or transient error;
// an armed bit flip lands in one returned force component. A nil hook (the
// default) costs one nil check per call.
func (s *System) SetFaultHook(h fault.HardwareHook) { s.hook = h }

// SetPool installs the worker pool that runs the i-particle loops of the
// force and potential passes on host cores, the host's stand-in for the
// hardware's distribution of i-particles over pipelines (§3.5.2). A nil pool
// (the default) runs serially; every pool width is bit-identical because the
// per-particle float64 accumulation order is unchanged — chunking only moves
// whole i-particles between workers.
func (s *System) SetPool(p *parallelize.Pool) { s.pool = p }

// LoadTable fits g(x) into a 1,024-segment function-evaluator table covering
// at least [2^emin, 2^emax) and stores it in every chip's RAM under the given
// name (the MR1SetTable operation of Table 3). Because segment addressing is
// derived from the float32 bit pattern, the number of octaves must divide the
// segment count; the range is widened upward to the next power-of-two span.
// The widening can add many octaves — a table asked for [2^-8, 2^12) reaches
// 2^24 — where a decaying kernel is far below the float32 normal range: an
// argument that reaches them (a grid whose cutoff is far out) reads the
// evaluator's all-zero rows and +0 (funceval.NewTable), never the host FPU's
// gradual underflow.
func (s *System) LoadTable(name string, g func(float64) float64, emin, emax int) error {
	span := 1
	for span < emax-emin {
		span <<= 1
	}
	if span > funceval.DefaultSegments {
		return fmt.Errorf("mdgrape2: table %q: exponent span %d too wide", name, emax-emin)
	}
	emax = emin + span
	t, err := funceval.NewTable(g, emin, emax, funceval.DefaultSegments)
	if err != nil {
		return fmt.Errorf("mdgrape2: table %q: %w", name, err)
	}
	s.LoadTableImage(name, t)
	return nil
}

// LoadTableImage stores an already fitted table under the given name — the
// RAM image LoadTable writes, without the fit. A Table is immutable once
// built, so sessions that evaluate the same kernel (every rank of every
// engine, over core's committed images) load one table instead of each
// fitting its own.
func (s *System) LoadTableImage(name string, t *funceval.Table) { s.tables[name] = t }

// Table returns a loaded table by name.
func (s *System) Table(name string) (*funceval.Table, error) {
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("mdgrape2: no table %q loaded", name)
	}
	return t, nil
}

// Coeffs is the per-type-pair coefficient RAM content: a_ij scales the
// squared distance, b_ij scales the evaluated kernel (eq. 14). Mutate the
// coefficients through Set (not by writing A/B directly) so the cached
// float32 RAM image stays coherent.
type Coeffs struct {
	A [][]float64
	B [][]float64

	// Cached float32 image of the RAM (the chips store singles). Rebuilt
	// lazily after NewCoeffs/Set mark it stale, so the per-call quantization
	// loop — and its allocations — run once per coefficient load instead of
	// once per force pass.
	a32, b32 [][]float32
	stale    bool
}

// NewCoeffs builds uniform coefficient tables (a, b identical for all type
// pairs) for n types.
func NewCoeffs(n int, a, b float64) (*Coeffs, error) {
	if n < 1 || n > MaxTypes {
		return nil, fmt.Errorf("mdgrape2: %d types outside [1, %d]", n, MaxTypes)
	}
	c := &Coeffs{A: make([][]float64, n), B: make([][]float64, n), stale: true}
	for i := range c.A {
		c.A[i] = make([]float64, n)
		c.B[i] = make([]float64, n)
		for j := range c.A[i] {
			c.A[i][j] = a
			c.B[i][j] = b
		}
	}
	return c, nil
}

// Set assigns the symmetric coefficients for the type pair (i, j).
func (c *Coeffs) Set(i, j int, a, b float64) {
	c.A[i][j], c.A[j][i] = a, a
	c.B[i][j], c.B[j][i] = b, b
	c.stale = true
}

// Load materializes the float32 coefficient RAM image now, as the host
// library does when a session is configured. A Coeffs shared by boards that
// run concurrently (the domain-decomposed ranks) must be loaded before the
// first force call: the hot-path staleness check is a plain flag read,
// coherent only once the image exists — on real hardware, likewise, RAMs
// are written before particles stream, never during.
func (c *Coeffs) Load() { c.quant32() }

// quant32 returns the float32 coefficient RAM image, rebuilding it if a Set
// invalidated the cache. Coefficient RAMs are loaded during session setup, so
// on the hot path this is a flag check; concurrent readers of a coherent
// cache are safe (rebuilds must not race reads, as on real hardware).
func (c *Coeffs) quant32() (a32, b32 [][]float32) {
	if c.stale || c.a32 == nil {
		n := len(c.A)
		if len(c.a32) != n {
			c.a32 = make([][]float32, n)
			c.b32 = make([][]float32, n)
			for i := range c.a32 {
				c.a32[i] = make([]float32, n)
				c.b32[i] = make([]float32, n)
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				c.a32[i][j] = float32(c.A[i][j])
				c.b32[i][j] = float32(c.B[i][j])
			}
		}
		c.stale = false
	}
	return c.a32, c.b32
}

// ComputeTime returns the pipeline wall-clock time for evaluating the given
// number of pairs with perfect pipelining: pairs / (pipelines × clock).
func (s *System) ComputeTime(pairs int64) float64 {
	return float64(pairs) / (float64(s.cfg.Pipelines()) * s.cfg.ClockHz)
}
