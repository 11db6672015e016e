package core

import (
	"fmt"
	"math"

	"mdm/internal/ewald"
	"mdm/internal/fault"
	"mdm/internal/md"
	"mdm/internal/mdgrape2"
	"mdm/internal/soa"
	"mdm/internal/tosifumi"
	"mdm/internal/vec"
	"mdm/internal/wine2"
)

// Table names loaded into the MDGRAPE-2 function-evaluator RAM. The
// short-range Tosi–Fumi potential decomposes into three universal kernel
// shapes whose per-pair coefficients fit the a_ij/b_ij coefficient RAM:
//
//	Born–Mayer:  A b e^((σi+σj-r)/ρ) → g(x) = e^(-√x)/√x, a = 1/ρ²,
//	             b = A_ij B e^((σi+σj)/ρ)/ρ²
//	r⁻⁶ term:    g(x) = x⁻⁴, a = 1, b = -6 c_ij
//	r⁻⁸ term:    g(x) = x⁻⁵, a = 1, b = -8 d_ij
//
// so the whole force field is four MDGRAPE-2 table passes per step (one more
// for the real-space Coulomb kernel of §3.5.4), evaluated in one fused sweep.
const (
	tableCoulomb = "coulomb-real"
	tableBM      = "born-mayer"
	tableDisp6   = "dispersion-r6"
	tableDisp8   = "dispersion-r8"
)

// kernelTable is one function-evaluator RAM load: the kernel and the domain
// [2^emin, 2^emax) it is asked for (SetTable widens the top to a power-of-two
// span of octaves).
type kernelTable struct {
	name       string
	g          func(float64) float64
	emin, emax int
}

// forceTables are the four kernels of the real-space sweep, in the sweep's
// reduction order.
var forceTables = []kernelTable{
	{tableCoulomb, EwaldRealG, -20, 8},
	{tableBM, func(x float64) float64 { s := math.Sqrt(x); return math.Exp(-s) / s }, -8, 12},
	{tableDisp6, func(x float64) float64 { x2 := x * x; return 1 / (x2 * x2) }, -4, 16},
	{tableDisp8, func(x float64) float64 { x2 := x * x; return 1 / (x2 * x2 * x) }, -4, 16},
}

// EwaldRealG is the real-space Coulomb kernel of §3.5.4:
// g(x) = 2 exp(-x)/(√π x) + erfc(√x)/x^(3/2), with x = (α r/L)².
func EwaldRealG(x float64) float64 {
	return 2*math.Exp(-x)/(math.SqrtPi*x) + math.Erfc(math.Sqrt(x))/(x*math.Sqrt(x))
}

// MachineConfig selects the hardware generation and the Ewald
// discretization run on it.
type MachineConfig struct {
	Ewald ewald.Params
	Wine  wine2.Config    // every board is acquired
	MDG   mdgrape2.Config // every board is acquired

	// PotentialEvery controls how often the host evaluates the potential
	// energy (the paper computed it every 100 steps, §5). 1 evaluates it on
	// every force call; k > 1 evaluates it on the simulation steps that are
	// multiples of k (Engine.SetStep) and reports that value for the k-1
	// steps after. An engine's first call always evaluates: the value its
	// predecessor held is in no checkpoint.
	PotentialEvery int

	// FaultHook, when non-nil, is called at the entry of every hardware call
	// on both simulated backends (every rank session on the parallel path):
	// the one per-call seam for fault injection and the watchdog's beat,
	// which Resilient installs. Nil costs one nil check per call.
	FaultHook fault.HardwareHook

	// Workers is the host worker-pool width striping the simulated pipelines
	// across OS threads (package parallelize). 0 selects runtime.GOMAXPROCS(0);
	// 1 forces the serial code path. Every width is bit-identical.
	Workers int

	// Pipeline runs the WINE-2 wavenumber pass on its own goroutine while
	// the MDGRAPE-2 real-space sweep runs on the caller's — the machine-level
	// concurrency of §3.1 (the two engines are independent until the host
	// combines forces). It decides nothing else: the sweep, the wave pass
	// and the fixed-order reduction Coulomb + BM + r⁻⁶ + r⁻⁸ + wave are the
	// same code either way, so forces are bit-identical on and off.
	Pipeline bool

	// Skin widens the cells of the grid to RCut+Skin (Å) so the sorted j-set
	// can be reused across steps until some particle has moved more than
	// Skin/2 since the last rebuild — the Verlet-skin amortization of the host
	// sort. Zero rebuilds every step. Between rebuilds the layout is frozen
	// (cellindex.Sorted): the sweep's i side, its j side and the host
	// potential all read the cell, slot and periodic image a particle was
	// sorted on. The cutoff stays RCut, so forces and potential cover the
	// r_cut sphere at any skin: the skin only decides which out-of-cutoff
	// pairs the hardware streams, and changes the result at rounding level
	// (the stored coordinate words), not the physics.
	Skin float64
}

// CurrentMachineConfig returns the July-2000 MDM (45 Tflops WINE-2 +
// 1 Tflops MDGRAPE-2) with the given Ewald discretization.
func CurrentMachineConfig(p ewald.Params) MachineConfig {
	return MachineConfig{
		Ewald:          p,
		Wine:           wine2.CurrentConfig(),
		MDG:            mdgrape2.CurrentConfig(),
		PotentialEvery: 1,
	}
}

// Engine is a hardware force path as a driver holds it, whatever its process
// layout: the serial *Machine, a *ParallelRun session, or either under the
// *Resilient recovery policy.
type Engine interface {
	md.ForceField
	md.PotentialCadence
	// InvalidateGeometry drops cached position-dependent state, so the next
	// Forces call rebuilds it — required after an external position rewrite
	// (checkpoint restore).
	InvalidateGeometry()
	// JSetStats reports how many Forces calls rebuilt the sorted layout and
	// how many reused it under the Verlet-skin bound.
	JSetStats() (rebuilds, reuses int)
	// SetStep says which simulation step the next Forces call evaluates (0
	// for an engine never told), so a resumed run keeps the potential cadence
	// of the run it resumes.
	SetStep(n int)
	// Free releases the simulated boards.
	Free() error
}

// Machine is the simulated MDM evaluating the molten-NaCl force field: one
// real-space rank and one wavenumber rank of the engine body, handed the
// system's arrays directly, with no mpi.World around them. It implements
// Engine.
type Machine struct {
	engineBase
	real     realRank
	wave     waveRank
	wineDone chan wineResult // pipeline join channel, reused across steps
}

// wineResult carries the wavenumber pass result across the pipeline join.
type wineResult struct {
	fc  soa.Coords
	pot float64
	err error
}

// NewMachine acquires the simulated boards, loads the kernel tables and
// coefficient RAMs, and precomputes the wavevector set — the initialization
// sequence of Tables 2 and 3.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	base, err := newEngineBase(cfg)
	if err != nil {
		return nil, err
	}
	m := &Machine{engineBase: base, wineDone: make(chan wineResult, 1)}
	if m.real, err = m.newRealRank(1, nil); err != nil {
		return nil, err
	}
	if m.wave, err = m.newWaveRank(1); err != nil {
		return nil, err
	}
	m.realRanks, m.waveRanks = []*realRank{&m.real}, []*waveRank{&m.wave}
	return m, nil
}

// machineCoeffsSet bundles the four coefficient RAMs of the NaCl force field.
type machineCoeffsSet struct {
	coulomb, bm, d6, d8 *mdgrape2.Coeffs
}

// machineCoeffs fills the MDGRAPE-2 coefficient RAMs for the two NaCl
// species.
func machineCoeffs(p ewald.Params) (*machineCoeffsSet, error) {
	tf := tosifumi.Default()
	aC := p.Alpha * p.Alpha / (p.L * p.L)
	coulomb, err := mdgrape2.NewCoeffs(tosifumi.NumSpecies, aC, 0)
	if err != nil {
		return nil, err
	}
	bm, _ := mdgrape2.NewCoeffs(tosifumi.NumSpecies, 0, 0)
	d6, _ := mdgrape2.NewCoeffs(tosifumi.NumSpecies, 0, 0)
	d8, _ := mdgrape2.NewCoeffs(tosifumi.NumSpecies, 0, 0)
	rho2 := tf.Rho * tf.Rho
	for i := 0; i < tosifumi.NumSpecies; i++ {
		for j := i; j < tosifumi.NumSpecies; j++ {
			si, sj := tosifumi.Species(i), tosifumi.Species(j)
			coulomb.Set(i, j, aC, tosifumi.Charge(si)*tosifumi.Charge(sj))
			bm.Set(i, j, 1/rho2, tf.A[i][j]*tf.B*math.Exp((tf.Sigma[i]+tf.Sigma[j])/tf.Rho)/rho2)
			d6.Set(i, j, 1, -6*tf.C[i][j])
			d8.Set(i, j, 1, -8*tf.D[i][j])
		}
	}
	// Load the RAM images while setup is still single-threaded: the domain
	// ranks share this set and read it concurrently on the force path.
	coulomb.Load()
	bm.Load()
	d6.Load()
	d8.Load()
	return &machineCoeffsSet{coulomb: coulomb, bm: bm, d6: d6, d8: d8}, nil
}

// passes fills the pass descriptors of the fused real-space sweep, in the
// fixed reduction order Coulomb + Born–Mayer + r⁻⁶ + r⁻⁸; scale is the per-i
// Coulomb force prefactor.
func (co *machineCoeffsSet) passes(scale []float64) [4]mdgrape2.ForcePass {
	return [4]mdgrape2.ForcePass{
		{Table: tableCoulomb, Co: co.coulomb, ScaleI: scale},
		{Table: tableBM, Co: co.bm},
		{Table: tableDisp6, Co: co.d6},
		{Table: tableDisp8, Co: co.d8},
	}
}

// Waves returns the wavevector set in use.
func (m *Machine) Waves() []ewald.Wave { return m.waves }

// MDGStats returns the MDGRAPE-2 work counters.
func (m *Machine) MDGStats() mdgrape2.Stats { return m.real.mr1.System().Stats() }

// Forces implements md.ForceField: the per-step flow of §3.1 — send
// positions to both backends, real-space forces from MDGRAPE-2 (the four
// kernel tables in one fused sweep), wavenumber-space forces from WINE-2,
// host combines and adds the self-energy bookkeeping. cfg.Pipeline only
// chooses whether the wavenumber pass runs concurrently with the sweep or
// after it; the combined forces are bit-identical either way because the
// reduction order is fixed: Coulomb + BM + r⁻⁶ + r⁻⁸, then + wave.
//
//mdm:stepflow -- hot-path root: the per-step force evaluation of §3.1; everything it reaches must stay deterministic and allocation-free
func (m *Machine) Forces(s *md.System) ([]vec.V, float64, error) {
	if s.L != m.cfg.Ewald.L {
		return nil, 0, fmt.Errorf("core: system box %g differs from machine box %g", s.L, m.cfg.Ewald.L)
	}
	n := s.N()
	// The j-side memory image is all particles, sorted by cell: re-sorted when
	// the skin clock says the last rebuild's layout no longer holds, otherwise
	// that layout refreshed to the current positions. The clock books the
	// update before any hardware call, so a failed call leaves the two in
	// agreement and a retry at the same positions reuses the layout.
	rebuild, _ := m.clock.due(s.Pos)
	if err := m.real.update(s.Pos, s.Type, rebuild, m.real.pool); err != nil {
		return nil, 0, err
	}
	m.clock.advance(s.Pos, rebuild)

	// Declare the wavenumber block size before launching anything: SetNN
	// mutates the wine session, so it stays on the calling goroutine.
	if err := m.wave.lib.SetNN(n); err != nil {
		return nil, 0, err
	}
	if m.cfg.Pipeline {
		// Overlap the two engines, §3.1: WINE-2 works the wavenumber sum
		// while MDGRAPE-2 (and its host loops) work the real-space sweep.
		// The join below is unconditional — no return path may leave the pass
		// in flight (the recovery layer retries on the same machine).
		//mdm:hotallocok -- one pipeline launch per step by design; the closure capture is the overlap mechanism and fits the ~10 allocs/step budget
		go func() { m.wineDone <- m.wavePass(s) }()
	}
	fc, mdgErr := m.real.sweep(s.Pos, s.Type, n)
	var res wineResult
	if m.cfg.Pipeline {
		res = <-m.wineDone
	} else if mdgErr == nil {
		res = m.wavePass(s)
	}
	if mdgErr != nil {
		// Real-space error wins when both engines fail: the serial order
		// never reaches the wavenumber pass after a failed sweep, and the
		// recovery ladder keys on that ordering.
		return nil, 0, fmt.Errorf("core: real-space sweep: %w", mdgErr)
	}
	if res.err != nil {
		return nil, 0, fmt.Errorf("core: wavenumber pass: %w", res.err)
	}
	// Combine on the planes in the fixed reduction order (real + wave) —
	// componentwise float64 adds — then interleave once into the AoS []vec.V
	// the md boundary expects.
	wx, wy, wz := res.fc.X, res.fc.Y, res.fc.Z
	for i := range fc.X {
		fc.X[i] += wx[i]
		fc.Y[i] += wy[i]
		fc.Z[i] += wz[i]
	}
	// The one fresh output slice per step the md.ForceField contract
	// requires; every intermediate buffer is reused.
	forces := fc.AppendAoS(make([]vec.V, 0, n))

	// Potential-energy bookkeeping on the host in float64, every
	// PotentialEvery steps (like the paper's every-100-steps evaluation),
	// over the layout the sweep just read.
	pot, err := m.pot.eval(&m.real.jsetLayout, nil, res.pot, s)
	if err != nil {
		return nil, 0, err
	}
	return forces, pot, nil
}

// wavePass runs the wavenumber rank over all particles. It touches no state
// the real-space sweep touches, so with cfg.Pipeline it runs on its own
// goroutine beside the sweep.
func (m *Machine) wavePass(s *md.System) wineResult {
	fc, pot, err := m.wave.pass(s.Pos, s.Charge)
	return wineResult{fc: fc, pot: pot, err: err}
}
