package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"mdm/internal/ewald"
	"mdm/internal/fault"
	"mdm/internal/funceval"
	"mdm/internal/md"
	"mdm/internal/mdgrape2"
	"mdm/internal/mpi"
	"mdm/internal/tosifumi"
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

// kernelTable is one function-evaluator RAM load: the kernel, the domain
// [2^emin, 2^emax) of its table — a power-of-two span of octaves, so
// mdgrape2.LoadTable fits g over it as given — and the table's committed
// image, the 1,024 rows that fit produces (kernelimages.go, generated by
// TestTableImagesPinned).
type kernelTable struct {
	name       string
	g          func(float64) float64
	emin, emax int
	image      *tableImage
}

// tableImage is one function-evaluator RAM: a row of polynomial coefficients
// per segment.
type tableImage [funceval.DefaultSegments][funceval.Order + 1]float32

// forceTables are the four kernels of the real-space sweep, in the sweep's
// reduction order. The domains needed, [2^-20, 2^8) for Coulomb, [2^-8,
// 2^12) for Born–Mayer and [2^-4, 2^16) for the dispersion terms, are each
// widened to 32 octaves.
var forceTables = []kernelTable{
	{tableCoulomb, EwaldRealG, -20, 12, &coulombRealImage},
	{tableBM, func(x float64) float64 { s := math.Sqrt(x); return math.Exp(-s) / s }, -8, 24, &bornMayerImage},
	{tableDisp6, func(x float64) float64 { x2 := x * x; return 1 / (x2 * x2) }, -4, 28, &dispersionR6Image},
	{tableDisp8, func(x float64) float64 { x2 := x * x; return 1 / (x2 * x2 * x) }, -4, 28, &dispersionR8Image},
}

// kernelImages are the four force tables over their committed images, in
// forceTables' order: built once per process and loaded by every rank of
// every engine. A Table is immutable and references its image, which lives
// in the binary's data, so an engine start neither fits nor copies a table.
var kernelImages = sync.OnceValues(func() ([]*funceval.Table, error) {
	tables := make([]*funceval.Table, len(forceTables))
	for i, k := range forceTables {
		t, err := funceval.NewTableImage(k.emin, k.emax, k.image[:])
		if err != nil {
			return nil, fmt.Errorf("core: table %q: %w", k.name, err)
		}
		tables[i] = t
	}
	return tables, nil
})

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

	// Phases, when non-nil, books the step-phase spine of every Forces call
	// (spine.go): real rank 0 books the caller lane, wave rank 0 the wave
	// lane. Nil costs one nil check per phase.
	Phases *PhaseSink

	// Workers is the host worker-pool width striping the simulated pipelines
	// across OS threads (package parallelize). 0 selects runtime.GOMAXPROCS(0);
	// 1 spawns no pool goroutine. The WINE-2 pass runs beside the MDGRAPE-2
	// sweep at every width, and at the 1 + 1 layout the lane that finishes
	// first claims chunks of the other's pass (ParallelRun.lending), so a
	// width-1 pass may still run on two threads. Every width is
	// bit-identical.
	Workers int

	// Pipeline is ignored: every engine runs the WINE-2 pass beside the
	// MDGRAPE-2 sweep (§3.1).
	//
	// Deprecated: nothing reads it; the field goes with ROADMAP item 3 (b).
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
// layout: a *ParallelRun session (the serial Machine is its 1 + 1 case), or
// one under the *Resilient recovery policy.
type Engine interface {
	md.ForceFieldInto
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

// Machine is the serial engine: the §4 layout's 1 + 1 case, one
// real-space and one wavenumber rank of a ParallelRun on a private two-rank
// world (NewMachine). The name stays for the callers that build the serial
// engine; there is one session driver.
type Machine = ParallelRun

// SessionTimeout is the receive deadline of a production world: the serial
// engine's own and, without a fault scenario, mdm's. mpi's 30 s default is
// sized for tests; a legitimate 10^5-particle wavenumber pass runs longer
// than that on one host core. A session's stall detection is the
// supervision watchdog, so the wire deadline only has to catch a truly
// wedged run.
const SessionTimeout = time.Hour

// NewMachine acquires the simulated boards, loads the kernel tables and
// coefficient RAMs, and precomputes the wavevector set — the initialization
// sequence of Tables 2 and 3 — for one real-space and one wavenumber rank on
// a world of their own. That world carries no message-layer faults, and its
// receive deadline is SessionTimeout: a long serial wave pass is no stall.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	world, err := mpi.NewWorld(2)
	if err != nil {
		return nil, err
	}
	world.SetTimeout(SessionTimeout)
	return NewParallelRun(world, cfg, 1, 1)
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
