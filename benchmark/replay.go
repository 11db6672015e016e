package main

import (
	"fmt"
	"math"
	"time"

	"mdm"
	"mdm/internal/cellindex"
	"mdm/internal/core"
	"mdm/internal/ewald"
	"mdm/internal/md"
	"mdm/internal/mdgrape2"
	"mdm/internal/parallelize"
	"mdm/internal/soa"
	"mdm/internal/tosifumi"
	"mdm/internal/units"
	"mdm/internal/vec"
	"mdm/internal/wine2"
)

// The four kernel tables of the Tosi–Fumi step, named as core names them.
// core keeps its table and coefficient set-up unexported, so the standalone
// MDGRAPE-2 session below repeats it (same kernels, same ranges, same
// coefficient RAMs) to replay the sweep through mdgrape2's public API.
const (
	tableCoulomb = "coulomb-real"
	tableBM      = "born-mayer"
	tableDisp6   = "dispersion-r6"
	tableDisp8   = "dispersion-r8"
)

// replayer holds standalone layer instances built with the layers' public
// constructors and one workload's parameters. After a traced step the
// harness hands it the live state and it replays that step's call sequence
// under child spans, so each layer's time is measured at its own boundary
// without touching the program.
type replayer struct {
	tr  *tracer
	cfg mdm.Config
	p   ewald.Params

	primary, alt *core.Machine // at the workload's PotentialEvery, and the other setting
	potInPrimary bool

	pool   *parallelize.Pool
	jsb    *mdgrape2.JSetBuilder
	mr1    *mdgrape2.MR1
	passes []mdgrape2.ForcePass
	realFC soa.Coords

	wine       *wine2.System
	waves      []ewald.Wave
	pw         *wine2.ParticleWords
	sn, cn     []float64
	waveForces []vec.V
	waveFC     soa.Coords

	newMachineMs, tableLoadMs float64
	replays                   int
	pairs, mdgCalls, wineOps  int64 // work counters summed over replays

	// pieceErr is the relative RMS difference, at the first replay, between
	// the machine's forces and the sum of the standalone sessions' sweep and
	// wave forces at the same positions: 0 while loadTables repeats core's
	// tables and coefficients faithfully.
	pieceErr float64
}

// newReplayer builds the instances, timing the two construction costs that
// feed setup_s: core.NewMachine and the MDGRAPE-2 table load. One force
// evaluation on sys warms both machines and spends the potential evaluation
// the never-again machine owes on its first call.
func newReplayer(tr *tracer, cfg mdm.Config, sys *md.System) (*replayer, error) {
	p, err := cfg.EwaldParams()
	if err != nil {
		return nil, err
	}
	r := &replayer{tr: tr, cfg: cfg, p: p, waves: ewald.Waves(p)}
	mcfg := core.CurrentMachineConfig(p)
	mcfg.Workers, mcfg.Pipeline, mcfg.Skin = cfg.Workers, cfg.Pipeline, cfg.Skin

	// Potential on every call, and (after the first call) never.
	withPot, noPot := mcfg, mcfg
	withPot.PotentialEvery = 1
	noPot.PotentialEvery = 1 << 30
	t0 := time.Now()
	mPot, err := core.NewMachine(withPot)
	if err != nil {
		return nil, err
	}
	r.newMachineMs = ms(time.Since(t0))
	mNoPot, err := core.NewMachine(noPot)
	if err != nil {
		return nil, err
	}
	for _, m := range []*core.Machine{mPot, mNoPot} {
		if _, _, err := m.Forces(sys); err != nil {
			return nil, err
		}
	}
	r.potInPrimary = cfg.PotentialEvery <= 1
	r.primary, r.alt = mNoPot, mPot
	if r.potInPrimary {
		r.primary, r.alt = mPot, mNoPot
	}

	grid, err := cellindex.NewGrid(p.L, p.RCut+cfg.Skin)
	if err != nil {
		return nil, err
	}
	r.pool = parallelize.New(cfg.Workers)
	r.jsb = mdgrape2.NewJSetBuilder(grid, r.pool)

	mdg := mdgrape2.CurrentConfig()
	if r.mr1, err = mdgrape2.NewMR1(mdg); err != nil {
		return nil, err
	}
	r.mr1.SetPool(r.pool)
	if err := r.mr1.AllocateBoards(mdg.Boards()); err != nil {
		return nil, err
	}
	if err := r.mr1.Init(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if err := r.loadTables(sys.N()); err != nil {
		return nil, err
	}
	r.tableLoadMs = ms(time.Since(t0))

	if r.wine, err = wine2.NewSystem(wine2.CurrentConfig()); err != nil {
		return nil, err
	}
	r.wine.SetPool(r.pool)
	return r, nil
}

// loadTables loads the four g(x) tables and fills the coefficient RAMs and
// the per-particle Coulomb prefactor for n particles, as core.Machine does.
func (r *replayer) loadTables(n int) error {
	tables := []struct {
		name       string
		g          func(float64) float64
		emin, emax int
	}{
		{tableCoulomb, core.EwaldRealG, -20, 8},
		{tableBM, func(x float64) float64 { s := math.Sqrt(x); return math.Exp(-s) / s }, -8, 12},
		{tableDisp6, func(x float64) float64 { return 1 / (x * x * x * x) }, -4, 16},
		{tableDisp8, func(x float64) float64 { return 1 / (x * x * x * x * x) }, -4, 16},
	}
	for _, t := range tables {
		if err := r.mr1.SetTable(t.name, t.g, t.emin, t.emax); err != nil {
			return err
		}
	}
	p, tf := r.p, tosifumi.Default()
	aC := p.Alpha * p.Alpha / (p.L * p.L)
	var co [4]*mdgrape2.Coeffs
	for k := range co {
		c, err := mdgrape2.NewCoeffs(tosifumi.NumSpecies, 0, 0)
		if err != nil {
			return err
		}
		co[k] = c
	}
	rho2 := tf.Rho * tf.Rho
	for i := 0; i < tosifumi.NumSpecies; i++ {
		for j := i; j < tosifumi.NumSpecies; j++ {
			si, sj := tosifumi.Species(i), tosifumi.Species(j)
			co[0].Set(i, j, aC, tosifumi.Charge(si)*tosifumi.Charge(sj))
			co[1].Set(i, j, 1/rho2, tf.A[i][j]*tf.B*math.Exp((tf.Sigma[i]+tf.Sigma[j])/tf.Rho)/rho2)
			co[2].Set(i, j, 1, -6*tf.C[i][j])
			co[3].Set(i, j, 1, -8*tf.D[i][j])
		}
	}
	for _, c := range co {
		c.Load()
	}
	scale := make([]float64, n)
	for i := range scale {
		scale[i] = units.Coulomb * math.Pow(p.Alpha/p.L, 3)
	}
	r.passes = []mdgrape2.ForcePass{
		{Table: tableCoulomb, Co: co[0], ScaleI: scale},
		{Table: tableBM, Co: co[1]},
		{Table: tableDisp6, Co: co[2]},
		{Table: tableDisp8, Co: co[3]},
	}
	return nil
}

func (r *replayer) free() {
	_ = r.primary.Free()
	_ = r.alt.Free()
	_ = r.mr1.Free()
}

// constFF hands md.NewIntegrator the forces the live run already holds for
// the current positions, so building the replay integrator costs no force
// evaluation.
type constFF struct {
	forces []vec.V
	pot    float64
}

func (c constFF) Forces(*md.System) ([]vec.V, float64, error) { return c.forces, c.pot, nil }

// tracedFF records a core.forces span around the force field the replay
// integrator calls, making it a child of md.step.
type tracedFF struct {
	r    *replayer
	step int
}

func (t tracedFF) Forces(s *md.System) ([]vec.V, float64, error) {
	id := t.r.tr.begin("core.forces", "core", t.step)
	f, pot, err := t.r.primary.Forces(s)
	t.r.tr.end(id)
	return f, pot, err
}

// replay re-runs one step's layer calls on a copy of the live state: the
// integrator step (with the machine's force evaluation as its child), the
// same force evaluation at the other PotentialEvery setting, and then the
// pieces the machine is made of — j-set build, the real-space sweep, WINE-2
// quantize, DFT and IDFT — each through its own public API. (No workload
// sets a skin, so no step refreshes a j-set and Refresh is not replayed.)
func (r *replayer) replay(sys *md.System, forces []vec.V, pot, dt float64, step int) error {
	tr := r.tr
	c := *sys
	c.Pos = append([]vec.V(nil), sys.Pos...)
	c.Vel = append([]vec.V(nil), sys.Vel...)
	it, err := md.NewIntegrator(&c, constFF{forces, pot}, dt)
	if err != nil {
		return err
	}
	it.FF = tracedFF{r, step}

	root := tr.begin("replay", "mdm", step)
	defer tr.end(root)

	id := tr.begin("md.step", "md", step)
	err = it.Step()
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("core.forces_alt", "core", step)
	_, _, err = r.alt.Forces(&c)
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("mdgrape2.jset_build", "mdgrape2", step)
	js, err := r.jsb.Build(c.Pos, c.Type, r.pool)
	tr.end(id)
	if err != nil {
		return err
	}

	before := r.mr1.System().Stats()
	fused := r.cfg.Pipeline || r.cfg.Ranks > 0 // the pipeline and the decomposed ranks run the fused sweep
	var passForces [4][]vec.V
	id = tr.begin("mdgrape2.sweep", "mdgrape2", step)
	if fused {
		r.realFC, err = r.mr1.CalcVDWFusedInto(r.passes, c.Pos, c.Type, js, r.realFC)
	} else {
		for k, ps := range r.passes {
			if passForces[k], err = r.mr1.CalcVDWBlock2(ps.Table, ps.Co, c.Pos, c.Type, ps.ScaleI, js); err != nil {
				break
			}
		}
	}
	tr.end(id)
	if err != nil {
		return err
	}
	after := r.mr1.System().Stats()
	r.pairs += after.PairsEvaluated - before.PairsEvaluated
	r.mdgCalls += after.Calls - before.Calls

	wbefore := r.wine.Stats()
	id = tr.begin("wine2.quantize", "wine2", step)
	r.pw, err = r.wine.QuantizeInto(r.pw, r.p.L, c.Pos, c.Charge)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("wine2.dft", "wine2", step)
	r.sn, r.cn, err = r.wine.DFTQuantizedInto(r.waves, r.pw, r.sn, r.cn)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("wine2.idft", "wine2", step)
	if r.cfg.Pipeline {
		r.waveFC, err = r.wine.IDFTQuantizedCoordsInto(r.waves, r.sn, r.cn, r.pw, r.waveFC)
	} else {
		r.waveForces, err = r.wine.IDFTQuantizedInto(r.waves, r.sn, r.cn, r.pw, r.waveForces)
	}
	tr.end(id)
	if err != nil {
		return err
	}
	wafter := r.wine.Stats()
	r.wineOps += (wafter.DFTOps - wbefore.DFTOps) + (wafter.IDFTOps - wbefore.IDFTOps)
	if r.replays == 0 {
		// The pieces, summed in the machine's order (Coulomb + Born–Mayer +
		// r⁻⁶ + r⁻⁸, then + wave), against the forces the machine returned
		// for the same positions inside md.step above.
		var num, den float64
		for i, want := range it.Forces() {
			var got vec.V
			if fused {
				got = vec.V{X: r.realFC.X[i], Y: r.realFC.Y[i], Z: r.realFC.Z[i]}
			} else {
				got = passForces[0][i].Add(passForces[1][i]).Add(passForces[2][i]).Add(passForces[3][i])
			}
			if r.cfg.Pipeline {
				got = got.Add(vec.V{X: r.waveFC.X[i], Y: r.waveFC.Y[i], Z: r.waveFC.Z[i]})
			} else {
				got = got.Add(r.waveForces[i])
			}
			num += got.Sub(want).Norm2()
			den += want.Norm2()
		}
		r.pieceErr = math.Sqrt(num / den)
	}
	r.replays++
	return nil
}

// dispatchUs times an empty parallelize.Pool.Run at width 2: the fixed cost
// every striped kernel call pays before any work.
func dispatchUs() (float64, error) {
	const calls = 2000
	pool := parallelize.New(2)
	nop := func(shard, lo, hi int) error { return nil }
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		if err := pool.Run(2, nop); err != nil {
			return 0, fmt.Errorf("parallelize: %w", err)
		}
	}
	return float64(time.Since(t0)) / 1e3 / calls, nil
}
