package core

import (
	"fmt"
	"math"

	"mdm/internal/cellindex"
	"mdm/internal/ewald"
	"mdm/internal/fault"
	"mdm/internal/md"
	"mdm/internal/mdgrape2"
	"mdm/internal/parallelize"
	"mdm/internal/soa"
	"mdm/internal/tosifumi"
	"mdm/internal/units"
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
	Ewald      ewald.Params
	Wine       wine2.Config
	MDG        mdgrape2.Config
	WineBoards int // boards to acquire (0 = all)
	MDGBoards  int // boards to acquire (0 = all)

	// PotentialEvery controls how often the host evaluates the potential
	// energy (the paper computed it every 100 steps, §5). 1 evaluates it on
	// every force call; k > 1 evaluates it on the simulation steps that are
	// multiples of k (Engine.SetStep) and reports that value for the k-1
	// steps after. An engine's first call always evaluates: the value its
	// predecessor held is in no checkpoint.
	PotentialEvery int

	// FaultHook, when non-nil, is installed on both simulated backends (and
	// on every per-rank session of the parallel path) so a fault.Injector can
	// fail or corrupt hardware calls. Nil disables injection.
	FaultHook fault.HardwareHook

	// Heartbeat, when non-nil, is invoked with a scope name ("wine2", "mdg",
	// or a per-rank scope on the parallel path) at the entry of every
	// hardware call — the watchdog's view of board progress. Nil (the
	// default) costs one nil check per call.
	Heartbeat func(scope string)

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

// potCadence is when an engine evaluates the potential and the value it
// reports in between: MachineConfig.PotentialEvery against the simulation
// step, not against the engine's own call count, which restarts at 0 whenever
// the engine is rebuilt — a resume, a re-stripe.
type potCadence struct {
	every int
	step  int     // simulation step the next Forces call evaluates
	valid bool    // last holds a value
	last  float64 // the potential of the latest evaluation
}

func newPotCadence(every int) potCadence { return potCadence{every: max(every, 1)} }

// due reports whether this call evaluates the potential.
func (c *potCadence) due() bool { return !c.valid || c.step%c.every == 0 }

// set records an evaluation.
func (c *potCadence) set(pot float64) { c.last, c.valid = pot, true }

// Machine is the simulated MDM evaluating the molten-NaCl force field. It
// implements Engine.
type Machine struct {
	cfg   MachineConfig
	waves []ewald.Wave
	grid  *cellindex.Grid

	mr1  *mdgrape2.MR1
	wine *wine2.Library
	pool *parallelize.Pool

	co *machineCoeffsSet

	potWhen potCadence

	// Step-path state, reused across Forces calls (the zero-alloc step path).
	jsb       *mdgrape2.JSetBuilder // amortized j-set construction
	clock     skinClock             // when jsb re-sorts and when it only refreshes
	scale     []float64             // hoisted per-i Coulomb force prefactor
	potTable  *potTable             // the host potential's two kernels, fitted at construction
	potGather potGather             // sorted-order charge/species planes of the host potential walk
	passes    [4]mdgrape2.ForcePass
	realFC    soa.Coords      // fused-sweep force planes
	wineFC    soa.Coords      // wavenumber force planes
	wineDone  chan wineResult // pipeline join channel, reused across steps
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
	if err := cfg.Ewald.Validate(); err != nil {
		return nil, err
	}
	if cfg.Skin < 0 {
		return nil, fmt.Errorf("core: negative Verlet skin %g", cfg.Skin)
	}
	grid, err := cellindex.NewSkinGrid(cfg.Ewald.L, cfg.Ewald.RCut, cfg.Skin)
	if err != nil {
		return nil, err
	}
	co, err := machineCoeffs(cfg.Ewald)
	if err != nil {
		return nil, err
	}
	potTable, err := newPotTable(cfg.Ewald)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:      cfg,
		potWhen:  newPotCadence(cfg.PotentialEvery),
		potTable: potTable,
		waves:    ewald.Waves(cfg.Ewald),
		grid:     grid,
		pool:     parallelize.New(cfg.Workers),
		co:       co,
		clock:    newSkinClock(cfg.Ewald.L, cfg.Skin),
		wineDone: make(chan wineResult, 1),
	}
	m.jsb = mdgrape2.NewJSetBuilder(grid, m.pool)
	if m.mr1, err = newMDGSession(cfg, 1, "mdg", nil); err != nil {
		return nil, err
	}
	m.mr1.SetPool(m.pool)
	if m.wine, err = newWineSession(cfg, 1, "wine2"); err != nil {
		return nil, err
	}
	m.wine.SetPool(m.pool)
	return m, nil
}

// newMDGSession runs the Table 3 sequence — allocate, init, load the four
// kernel tables — over a 1/share slice of the MDGRAPE-2 boards
// (cfg.MDGBoards when set, so a re-stripe after a dropout shrinks every
// share; at least one board). The serial machine is share 1; each rank of a
// decomposed session takes 1/nReal. scope names the session to cfg.Heartbeat.
// The kernels are universal functions of x, so one fit serves an engine: with
// images nil the session fits the tables, otherwise it loads the images
// another session of the same engine already holds.
func newMDGSession(cfg MachineConfig, share int, scope string, images *mdgrape2.System) (*mdgrape2.MR1, error) {
	m, err := mdgrape2.NewMR1(cfg.MDG)
	if err != nil {
		return nil, err
	}
	m.SetFaultHook(cfg.FaultHook)
	if beat := cfg.Heartbeat; beat != nil {
		m.SetHeartbeat(func() { beat(scope) })
	}
	total := cfg.MDGBoards
	if total == 0 {
		total = cfg.MDG.Boards()
	}
	if err := m.AllocateBoards(max(total/share, 1)); err != nil {
		return nil, err
	}
	if err := m.Init(); err != nil {
		return nil, err
	}
	for _, k := range forceTables {
		if images == nil {
			if err := m.SetTable(k.name, k.g, k.emin, k.emax); err != nil {
				return nil, err
			}
			continue
		}
		t, err := images.Table(k.name)
		if err != nil {
			return nil, err
		}
		m.System().LoadTableImage(k.name, t)
	}
	return m, nil
}

// newWineSession runs the Table 2 sequence — allocate, initialize — over a
// 1/share slice of the WINE-2 boards, like newMDGSession.
func newWineSession(cfg MachineConfig, share int, scope string) (*wine2.Library, error) {
	lib, err := wine2.NewLibrary(cfg.Wine)
	if err != nil {
		return nil, err
	}
	lib.SetFaultHook(cfg.FaultHook)
	if beat := cfg.Heartbeat; beat != nil {
		lib.SetHeartbeat(func() { beat(scope) })
	}
	total := cfg.WineBoards
	if total == 0 {
		total = cfg.Wine.Boards()
	}
	if err := lib.AllocateBoards(max(total/share, 1)); err != nil {
		return nil, err
	}
	if err := lib.InitializeBoards(); err != nil {
		return nil, err
	}
	return lib, nil
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
func (m *Machine) MDGStats() mdgrape2.Stats { return m.mr1.System().Stats() }

// WineStats returns the WINE-2 work counters.
func (m *Machine) WineStats() wine2.Stats { return m.wine.System().Stats() }

// Free releases both backend sessions.
func (m *Machine) Free() error {
	if err := m.mr1.Free(); err != nil {
		return err
	}
	return m.wine.FreeBoards()
}

// InvalidateGeometry drops the cached j-set so the next Forces call rebuilds
// it — the hook for external position rewrites (checkpoint restore).
func (m *Machine) InvalidateGeometry() { m.clock.invalidate() }

// SetStep implements Engine.
func (m *Machine) SetStep(n int) { m.potWhen.step = n }

// JSetStats returns how many Forces calls rebuilt the sorted j-set and how
// many reused it under the Verlet-skin bound.
func (m *Machine) JSetStats() (rebuilds, reuses int) { return m.clock.rebuilds, m.clock.reuses }

// ensureScale keeps the per-i Coulomb force prefactor slice sized to n. The
// prefactor depends only on the Ewald parameters, so it is built once and
// reused every step.
func (m *Machine) ensureScale(n int) {
	if len(m.scale) == n {
		return
	}
	p := m.cfg.Ewald
	m.scale = make([]float64, n)
	pref := units.Coulomb * math.Pow(p.Alpha/p.L, 3)
	for i := range m.scale {
		m.scale[i] = pref
	}
}

// jset returns the step's particle memory image: re-sorted when the skin
// clock says the layout of the last rebuild no longer holds, otherwise that
// layout with its stored coordinates moved to the current positions. With
// Skin = 0 every step that moves a particle re-sorts.
func (m *Machine) jset(s *md.System) (*mdgrape2.JSet, error) {
	rebuild, _ := m.clock.due(s.Pos)
	var js *mdgrape2.JSet
	var err error
	if rebuild {
		js, err = m.jsb.Build(s.Pos, s.Type, m.pool)
	} else {
		js, err = m.jsb.Refresh(s.Pos)
	}
	if err != nil {
		return nil, err
	}
	m.clock.advance(s.Pos, rebuild)
	return js, nil
}

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
	p := m.cfg.Ewald
	if s.L != p.L {
		return nil, 0, fmt.Errorf("core: system box %g differs from machine box %g", s.L, p.L)
	}
	n := s.N()

	// The j-side memory image: all particles, sorted by cell (reused across
	// steps under the Verlet-skin bound).
	js, err := m.jset(s)
	if err != nil {
		return nil, 0, err
	}
	m.ensureScale(n)

	// Declare the wavenumber block size before launching anything: SetNN
	// mutates the wine session, so it stays on the calling goroutine.
	if err := m.wine.SetNN(n); err != nil {
		return nil, 0, err
	}

	if m.cfg.Pipeline {
		// Overlap the two engines, §3.1: WINE-2 works the wavenumber sum
		// while MDGRAPE-2 (and its host loops) work the real-space sweep.
		// The join below is unconditional — no return path may leave the pass
		// in flight (the recovery layer tears the machine down on failure).
		//mdm:hotallocok -- one pipeline launch per step by design; the closure capture is the overlap mechanism and fits the ~10 allocs/step budget
		go func() { m.wineDone <- m.wavePass(s) }()
	}
	m.passes = m.co.passes(m.scale)
	fc, mdgErr := m.mr1.CalcVDWFusedInto(m.passes[:], s.Pos, s.Type, js, m.realFC)
	var res wineResult
	if m.cfg.Pipeline {
		res = <-m.wineDone
	} else if mdgErr == nil {
		res = m.wavePass(s)
	}
	if res.fc.Len() != 0 {
		m.wineFC = res.fc // keep the planes even on an error path
	}
	if fc.Len() != 0 {
		m.realFC = fc
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
	//mdm:hotallocok -- the one fresh output slice per step the md.ForceField contract requires; every intermediate buffer is reused
	forces := fc.AppendAoS(make([]vec.V, 0, n))

	// Potential-energy bookkeeping on the host in float64, every
	// PotentialEvery steps (like the paper's every-100-steps evaluation).
	if m.potWhen.due() {
		realPot := hostPotential(&m.potGather, m.potTable, js.Sorted, m.jsb.NeighborTable(), s)
		m.potWhen.set(realPot + res.pot + ewald.SelfEnergy(p, s.Charge))
	}
	m.potWhen.step++
	return forces, m.potWhen.last, nil
}

// wavePass runs the WINE-2 wavenumber-space pass into the machine's wave
// force planes. It touches no state the real-space sweep touches, so with
// cfg.Pipeline it runs on its own goroutine beside the sweep.
func (m *Machine) wavePass(s *md.System) wineResult {
	fc, pot, err := m.wine.CalcForceAndPotWavepartCoordsInto(m.cfg.Ewald, m.waves, s.Pos, s.Charge, m.wineFC)
	return wineResult{fc: fc, pot: pot, err: err}
}
