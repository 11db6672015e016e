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

	// Potential-mode tables (φ rather than g = -φ'/r).
	tableCoulombPot = "coulomb-real-pot"
	tableBMPot      = "born-mayer-pot"
	tableDisp6Pot   = "dispersion-r6-pot"
	tableDisp8Pot   = "dispersion-r8-pot"
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
// reduction order; potentialTables are their potential-mode counterparts.
var (
	forceTables = []kernelTable{
		{tableCoulomb, EwaldRealG, -20, 8},
		{tableBM, func(x float64) float64 { s := math.Sqrt(x); return math.Exp(-s) / s }, -8, 12},
		{tableDisp6, func(x float64) float64 { x2 := x * x; return 1 / (x2 * x2) }, -4, 16},
		{tableDisp8, func(x float64) float64 { x2 := x * x; return 1 / (x2 * x2 * x) }, -4, 16},
	}
	potentialTables = []kernelTable{
		{tableCoulombPot, func(x float64) float64 { s := math.Sqrt(x); return math.Erfc(s) / s }, -20, 8},
		{tableBMPot, func(x float64) float64 { return math.Exp(-math.Sqrt(x)) }, -8, 12},
		{tableDisp6Pot, func(x float64) float64 { return 1 / (x * x * x) }, -4, 16},
		{tableDisp8Pot, func(x float64) float64 { x2 := x * x; return 1 / (x2 * x2) }, -4, 16},
	}
)

// loadTables fits each kernel into the session's function-evaluator RAM.
func loadTables(m *mdgrape2.MR1, tables []kernelTable) error {
	for _, k := range tables {
		if err := m.SetTable(k.name, k.g, k.emin, k.emax); err != nil {
			return err
		}
	}
	return nil
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
	// every force call; k > 1 reuses the last value for k-1 calls.
	PotentialEvery int

	// HardwarePotential computes the real-space potential energy on the
	// MDGRAPE-2 potential mode (four φ-table passes) instead of the host
	// float64 path.
	HardwarePotential bool

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

	// Skin widens the cell grid to RCut+Skin (Å) so the sorted j-set can be
	// reused across steps until some particle has moved more than Skin/2
	// since the last rebuild — the Verlet-skin amortization of the host sort.
	// Zero rebuilds every step. A non-zero skin changes which far pairs the
	// cutoff-free 27-cell walk sees, so it is a different (equally valid)
	// discretization, not a bit-identical one; forces and potential stay
	// mutually consistent.
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

// Machine is the simulated MDM evaluating the molten-NaCl force field. It
// implements md.ForceField.
type Machine struct {
	cfg   MachineConfig
	pot   *tosifumi.Potential
	waves []ewald.Wave
	grid  *cellindex.Grid

	mr1  *mdgrape2.MR1
	wine *wine2.Library
	pool *parallelize.Pool

	coCoulomb *mdgrape2.Coeffs
	coBM      *mdgrape2.Coeffs
	coD6      *mdgrape2.Coeffs
	coD8      *mdgrape2.Coeffs

	// Potential-mode coefficient RAMs (HardwarePotential only).
	coBMPot *mdgrape2.Coeffs
	coD6Pot *mdgrape2.Coeffs
	coD8Pot *mdgrape2.Coeffs

	potCalls int
	lastPot  float64

	// Step-path state, reused across Forces calls (the zero-alloc step path).
	jsb          *mdgrape2.JSetBuilder // amortized j-set construction
	js           *mdgrape2.JSet        // current j-set (owned by jsb)
	refPos       []vec.V               // positions at the last j-set rebuild
	haveJSet     bool
	jsetRebuilds int
	jsetReuses   int
	scale        []float64 // hoisted per-i Coulomb force prefactor
	potScale     []float64 // hoisted per-i Coulomb potential prefactor (HardwarePotential only)
	potGather    potGather // sorted-order charge/species planes of the host potential walk
	passes       [4]mdgrape2.ForcePass
	realFC       soa.Coords      // fused-sweep force planes
	wineFC       soa.Coords      // wavenumber force planes
	wineDone     chan wineResult // pipeline join channel, reused across steps
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
	if cfg.PotentialEvery < 1 {
		cfg.PotentialEvery = 1
	}
	if cfg.Skin < 0 {
		return nil, fmt.Errorf("core: negative Verlet skin %g", cfg.Skin)
	}
	grid, err := cellindex.NewGrid(cfg.Ewald.L, cfg.Ewald.RCut+cfg.Skin)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:      cfg,
		pot:      tosifumi.Default(),
		waves:    ewald.Waves(cfg.Ewald),
		grid:     grid,
		pool:     parallelize.New(cfg.Workers),
		wineDone: make(chan wineResult, 1),
	}
	m.jsb = mdgrape2.NewJSetBuilder(grid, m.pool)

	// MDGRAPE-2 session (Table 3 sequence).
	mr1, err := mdgrape2.NewMR1(cfg.MDG)
	if err != nil {
		return nil, err
	}
	mr1.SetFaultHook(cfg.FaultHook)
	if cfg.Heartbeat != nil {
		mr1.SetHeartbeat(func() { cfg.Heartbeat("mdg") })
	}
	mr1.SetPool(m.pool)
	boards := cfg.MDGBoards
	if boards == 0 {
		boards = cfg.MDG.Boards()
	}
	if err := mr1.AllocateBoards(boards); err != nil {
		return nil, err
	}
	if err := mr1.Init(); err != nil {
		return nil, err
	}
	if err := loadTables(mr1, forceTables); err != nil {
		return nil, err
	}
	if cfg.HardwarePotential {
		if err := loadTables(mr1, potentialTables); err != nil {
			return nil, err
		}
	}
	m.mr1 = mr1

	// WINE-2 session (Table 2 sequence).
	lib, err := wine2.NewLibrary(cfg.Wine)
	if err != nil {
		return nil, err
	}
	lib.SetFaultHook(cfg.FaultHook)
	if cfg.Heartbeat != nil {
		lib.SetHeartbeat(func() { cfg.Heartbeat("wine2") })
	}
	lib.SetPool(m.pool)
	wboards := cfg.WineBoards
	if wboards == 0 {
		wboards = cfg.Wine.Boards()
	}
	if err := lib.AllocateBoards(wboards); err != nil {
		return nil, err
	}
	if err := lib.InitializeBoards(); err != nil {
		return nil, err
	}
	m.wine = lib

	if err := m.loadCoefficients(); err != nil {
		return nil, err
	}
	return m, nil
}

// loadCoefficients fills the MDGRAPE-2 coefficient RAMs for the two NaCl
// species.
func (m *Machine) loadCoefficients() error {
	p := m.cfg.Ewald
	aC := p.Alpha * p.Alpha / (p.L * p.L)
	var err error
	m.coCoulomb, err = mdgrape2.NewCoeffs(tosifumi.NumSpecies, aC, 0)
	if err != nil {
		return err
	}
	m.coBM, _ = mdgrape2.NewCoeffs(tosifumi.NumSpecies, 0, 0)
	m.coD6, _ = mdgrape2.NewCoeffs(tosifumi.NumSpecies, 0, 0)
	m.coD8, _ = mdgrape2.NewCoeffs(tosifumi.NumSpecies, 0, 0)
	m.coBMPot, _ = mdgrape2.NewCoeffs(tosifumi.NumSpecies, 0, 0)
	m.coD6Pot, _ = mdgrape2.NewCoeffs(tosifumi.NumSpecies, 0, 0)
	m.coD8Pot, _ = mdgrape2.NewCoeffs(tosifumi.NumSpecies, 0, 0)
	tf := m.pot
	rho2 := tf.Rho * tf.Rho
	for i := 0; i < tosifumi.NumSpecies; i++ {
		for j := i; j < tosifumi.NumSpecies; j++ {
			si, sj := tosifumi.Species(i), tosifumi.Species(j)
			qq := tosifumi.Charge(si) * tosifumi.Charge(sj)
			m.coCoulomb.Set(i, j, aC, qq)
			bm := tf.A[i][j] * tf.B * math.Exp((tf.Sigma[i]+tf.Sigma[j])/tf.Rho)
			m.coBM.Set(i, j, 1/rho2, bm/rho2)
			m.coD6.Set(i, j, 1, -6*tf.C[i][j])
			m.coD8.Set(i, j, 1, -8*tf.D[i][j])
			m.coBMPot.Set(i, j, 1/rho2, bm)
			m.coD6Pot.Set(i, j, 1, -tf.C[i][j])
			m.coD8Pot.Set(i, j, 1, -tf.D[i][j])
		}
	}
	return nil
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
// it — the hook for external position rewrites (checkpoint restore) that the
// Verlet-skin displacement test cannot be trusted to catch (a particle moved
// by a near-multiple of the box looks stationary under minimum image).
func (m *Machine) InvalidateGeometry() { m.haveJSet = false }

// JSetStats returns how many Forces calls rebuilt the sorted j-set and how
// many reused it under the Verlet-skin bound.
func (m *Machine) JSetStats() (rebuilds, reuses int) { return m.jsetRebuilds, m.jsetReuses }

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

// jset returns the j-side memory image, rebuilding the cell sort only when
// the Verlet-skin bound has been violated: the grid covers RCut+Skin, so the
// cell assignment (and hence the candidate pair walk) stays valid until some
// particle has moved more than Skin/2 from its position at the last rebuild.
// Within that bound only the stored positions are refreshed. With Skin = 0
// every call rebuilds and the layout is bit-identical to a fresh sort.
func (m *Machine) jset(s *md.System) (*mdgrape2.JSet, error) {
	if m.haveJSet && len(m.refPos) == s.N() && m.maxDisp2(s.Pos) <= (m.cfg.Skin/2)*(m.cfg.Skin/2) {
		js, err := m.jsb.Refresh(s.Pos)
		if err != nil {
			return nil, err
		}
		m.jsetReuses++
		m.js = js
		return js, nil
	}
	js, err := m.jsb.Build(s.Pos, s.Type, m.pool)
	if err != nil {
		return nil, err
	}
	if len(m.refPos) != s.N() {
		m.refPos = make([]vec.V, s.N())
	}
	copy(m.refPos, s.Pos)
	m.haveJSet = true
	m.jsetRebuilds++
	m.js = js
	return js, nil
}

// maxDisp2 returns the largest squared minimum-image displacement of any
// particle from the reference positions of the last j-set rebuild (shared
// with the decomposed session, which applies the same rule driver-side).
func (m *Machine) maxDisp2(pos []vec.V) float64 {
	return maxDisp2(m.cfg.Ewald.L, pos, m.refPos)
}

// realPasses fills the per-step pass descriptors of the fused real-space
// sweep, in the fixed reduction order Coulomb + Born–Mayer + r⁻⁶ + r⁻⁸.
func (m *Machine) realPasses() []mdgrape2.ForcePass {
	m.passes = [4]mdgrape2.ForcePass{
		{Table: tableCoulomb, Co: m.coCoulomb, ScaleI: m.scale},
		{Table: tableBM, Co: m.coBM},
		{Table: tableDisp6, Co: m.coD6},
		{Table: tableDisp8, Co: m.coD8},
	}
	return m.passes[:]
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
	fc, mdgErr := m.mr1.CalcVDWFusedInto(m.realPasses(), s.Pos, s.Type, js, m.realFC)
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

	// Potential-energy bookkeeping (every PotentialEvery calls, like the
	// paper's every-100-steps evaluation), either on the host in float64 or
	// through the MDGRAPE-2 potential mode.
	if m.potCalls%m.cfg.PotentialEvery == 0 {
		var realPot float64
		if m.cfg.HardwarePotential {
			realPot, err = m.hardwarePotential(s, js)
			if err != nil {
				return nil, 0, fmt.Errorf("core: hardware potential: %w", err)
			}
		} else {
			realPot = hostPotential(&m.potGather, p, m.pot, js.Sorted, m.jsb.NeighborTable(), s)
		}
		m.lastPot = realPot + res.pot + ewald.SelfEnergy(p, s.Charge)
	}
	m.potCalls++
	return forces, m.lastPot, nil
}

// hardwarePotential evaluates the real-space potential on the MDGRAPE-2
// potential mode: four φ-table passes over the same 27-cell pair set as the
// force passes, halved because every unordered pair is visited twice.
func (m *Machine) hardwarePotential(s *md.System, js *mdgrape2.JSet) (float64, error) {
	if len(m.potScale) != s.N() {
		p := m.cfg.Ewald
		m.potScale = make([]float64, s.N())
		ppref := units.Coulomb * p.Alpha / p.L
		for i := range m.potScale {
			m.potScale[i] = ppref
		}
	}
	total := 0.0
	for _, pass := range []struct {
		table string
		co    *mdgrape2.Coeffs
		scale []float64
	}{
		{tableCoulombPot, m.coCoulomb, m.potScale},
		{tableBMPot, m.coBMPot, nil},
		{tableDisp6Pot, m.coD6Pot, nil},
		{tableDisp8Pot, m.coD8Pot, nil},
	} {
		pots, err := m.mr1.System().ComputePotentials(pass.table, pass.co, s.Pos, s.Type, pass.scale, js)
		if err != nil {
			return 0, fmt.Errorf("%s pass: %w", pass.table, err)
		}
		for _, pe := range pots {
			total += pe
		}
	}
	return total / 2, nil
}

// wavePass runs the WINE-2 wavenumber-space pass into the machine's wave
// force planes. It touches no state the real-space sweep touches, so with
// cfg.Pipeline it runs on its own goroutine beside the sweep.
func (m *Machine) wavePass(s *md.System) wineResult {
	fc, pot, err := m.wine.CalcForceAndPotWavepartCoordsInto(m.cfg.Ewald, m.waves, s.Pos, s.Charge, m.wineFC)
	return wineResult{fc: fc, pot: pot, err: err}
}
