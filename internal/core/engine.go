package core

import (
	"errors"
	"math"

	"mdm/internal/cellindex"
	"mdm/internal/ewald"
	"mdm/internal/fault"
	"mdm/internal/md"
	"mdm/internal/mdgrape2"
	"mdm/internal/parallelize"
	"mdm/internal/soa"
	"mdm/internal/units"
	"mdm/internal/vec"
	"mdm/internal/wine2"
)

// engineBase is the one engine body. §4 lays the machine out as real-space
// processes plus wavenumber processes; a ParallelRun is the p + w case and
// the serial Machine its 1 + 1 case. It holds this — the configuration, the
// global cell grid, the coefficient RAMs, the wave set, the Verlet-skin
// rebuild schedule and the potential on its cadence — and its ranks step
// through the realRank / waveRank methods inside its wire protocol
// (ownership, migration, halo and ghost exchange, ship and assemble).
type engineBase struct {
	cfg   MachineConfig
	grid  *cellindex.Grid
	co    *machineCoeffsSet
	waves []ewald.Wave
	clock skinClock
	pot   potCadence

	// The ranks restripe and Free walk: every rank of the session.
	realRanks []*realRank
	waveRanks []*waveRank

	// The boards still in service: every board of cfg.Wine / cfg.MDG at
	// the start, one fewer per restripe at that site.
	wineBoards, mdgBoards int
}

// newEngineBase is NewParallelRun's layout-independent prefix.
func newEngineBase(cfg MachineConfig) (engineBase, error) {
	p := cfg.Ewald
	if err := p.Validate(); err != nil {
		return engineBase{}, err
	}
	// Cell side ≥ r_cut + skin, so a frozen layout stays valid until some
	// displacement exceeds skin/2; the cutoff stays r_cut. Every rank of a
	// session shares this one grid — the keystone of its bit-identity to the
	// serial machine.
	grid, err := cellindex.NewSkinGrid(p.L, p.RCut, cfg.Skin)
	if err != nil {
		return engineBase{}, err
	}
	co, err := machineCoeffs(p)
	if err != nil {
		return engineBase{}, err
	}
	table, err := newPotTable(p)
	if err != nil {
		return engineBase{}, err
	}
	return engineBase{
		cfg:        cfg,
		wineBoards: cfg.Wine.Boards(),
		mdgBoards:  cfg.MDG.Boards(),
		grid:       grid,
		co:         co,
		waves:      ewald.Waves(p),
		clock:      newSkinClock(p.L, cfg.Skin),
		pot:        potCadence{every: max(cfg.PotentialEvery, 1), table: table},
	}, nil
}

// InvalidateGeometry drops the skin clock's reference, so the next Forces
// call rebuilds every layout from scratch (and a session re-derives
// ownership) — the hook for external position rewrites (checkpoint restore).
func (e *engineBase) InvalidateGeometry() { e.clock.invalidate() }

// SetStep implements Engine.
func (e *engineBase) SetStep(n int) { e.pot.step = n }

// PotentialFresh implements md.PotentialCadence.
func (e *engineBase) PotentialFresh() bool { return e.pot.fresh }

// JSetStats returns how many Forces calls, retries included, rebuilt the
// sorted layout (on a session: migration plus full ghost exchange) and how
// many reused it under the Verlet-skin bound (ghost position streaming).
func (e *engineBase) JSetStats() (rebuilds, reuses int) { return e.clock.rebuilds, e.clock.reuses }

// restripe drops one board at site and re-runs the library board cycle of
// every rank of that kind over its share of the survivors; the grid,
// coefficients, wave set, skin clock, layouts, pools and potential cadence
// stay. It reports false, touching nothing, when that would leave fewer
// boards than ranks of that kind — at the 1 + 1 layout, its last board.
func (e *engineBase) restripe(site fault.Site) (bool, error) {
	switch {
	case site == fault.MDG2 && e.mdgBoards > len(e.realRanks):
		e.mdgBoards--
		for _, r := range e.realRanks {
			if err := r.mr1.Free(); err != nil {
				return true, err
			}
			if err := acquireMDG(r.mr1, e.mdgBoards/len(e.realRanks)); err != nil {
				return true, err
			}
		}
	case site == fault.WINE2 && e.wineBoards > len(e.waveRanks):
		e.wineBoards--
		for _, w := range e.waveRanks {
			if err := w.lib.FreeBoards(); err != nil {
				return true, err
			}
			if err := acquireWine(w.lib, e.wineBoards/len(e.waveRanks)); err != nil {
				return true, err
			}
		}
	default:
		return false, nil
	}
	return true, nil
}

// Free releases every rank's boards; a second call reports them released.
func (e *engineBase) Free() error {
	var errs []error
	for _, r := range e.realRanks {
		errs = append(errs, r.mr1.Free())
	}
	for _, w := range e.waveRanks {
		errs = append(errs, w.lib.FreeBoards())
	}
	return errors.Join(errs...)
}

// jsetLayout is a j-set builder and the layout it last produced.
type jsetLayout struct {
	jsb      *mdgrape2.JSetBuilder
	js       *mdgrape2.JSet
	sortedAt int // the skin clock's rebuild count at the last sort, where the driver keeps its potential layout
}

// update re-sorts the layout from pos (rebuild) or moves its stored
// coordinates to pos, keeping every cell, slot and image.
func (l *jsetLayout) update(pos []vec.V, types []int, rebuild bool, pool *parallelize.Pool) (err error) {
	if rebuild {
		l.js, err = l.jsb.Build(pos, types, pool)
	} else {
		l.js, err = l.jsb.Refresh(pos)
	}
	return err
}

// realRank is one real-space process: an MDGRAPE-2 session over its share of
// the boards, the j-set layout of the particles it is handed, and the reused
// state of the fused sweep.
type realRank struct {
	jsetLayout
	mr1    *mdgrape2.MR1
	pool   *parallelize.Pool
	co     *machineCoeffsSet
	pref   float64   // the per-i Coulomb force prefactor, k_e (α/L)³
	scale  []float64 // pref per i-particle, reused across steps
	passes [4]mdgrape2.ForcePass
	fc     soa.Coords
}

// newRealRank runs the Table 3 sequence (acquireMDG) over a 1/share slice of
// the MDGRAPE-2 boards, 1/nReal on each real rank of a session, with pool
// striping its sweep and j-set sort.
func (e *engineBase) newRealRank(share int, pool *parallelize.Pool) (realRank, error) {
	cfg := e.cfg
	mr1, err := mdgrape2.NewMR1(cfg.MDG)
	if err != nil {
		return realRank{}, err
	}
	mr1.SetFaultHook(cfg.FaultHook)
	if err := acquireMDG(mr1, max(e.mdgBoards/share, 1)); err != nil {
		return realRank{}, err
	}
	mr1.SetPool(pool)
	return realRank{
		jsetLayout: jsetLayout{jsb: mdgrape2.NewJSetBuilder(e.grid, pool)},
		mr1:        mr1,
		pool:       pool,
		co:         e.co,
		pref:       units.Coulomb * math.Pow(cfg.Ewald.Alpha/cfg.Ewald.L, 3),
	}, nil
}

// acquireMDG is the board cycle of Table 3 on an MDGRAPE-2 session: allocate,
// init, load the four kernel tables' committed images (kernelImages).
func acquireMDG(mr1 *mdgrape2.MR1, boards int) error {
	if err := mr1.AllocateBoards(boards); err != nil {
		return err
	}
	if err := mr1.Init(); err != nil {
		return err
	}
	tables, err := kernelImages()
	if err != nil {
		return err
	}
	for i, k := range forceTables {
		mr1.System().LoadTableImage(k.name, tables[i])
	}
	return nil
}

// sweep is the rank's step once its caller has updated the j-set to pos /
// types: the fused four-pass sweep, in the fixed reduction order Coulomb +
// BM + r⁻⁶ + r⁻⁸, over the first nOwn particles (all of them at one real
// rank; the rank's owned block ahead of its ghosts at several), into the
// rank's reused force planes.
func (r *realRank) sweep(pos []vec.V, types []int, nOwn int) (soa.Coords, error) {
	if cap(r.scale) < nOwn {
		r.scale = make([]float64, nOwn)
		for i := range r.scale {
			r.scale[i] = r.pref
		}
	}
	r.scale = r.scale[:nOwn] // every word up to cap holds pref
	r.passes = r.co.passes(r.scale)
	fc, err := r.mr1.CalcVDWFusedInto(r.passes[:], pos[:nOwn], types[:nOwn], r.js, r.fc)
	if err != nil {
		return soa.Coords{}, err
	}
	r.fc = fc
	return fc, nil
}

// waveRank is one wavenumber process: a WINE-2 library session over its
// share of the boards and its reused force planes.
type waveRank struct {
	lib   *wine2.Library
	p     ewald.Params
	waves []ewald.Wave
	fc    soa.Coords
}

// newWaveRank runs the Table 2 sequence (acquireWine) over a 1/share slice
// of the WINE-2 boards, with pool striping its pass, like newRealRank.
func (e *engineBase) newWaveRank(share int, pool *parallelize.Pool) (waveRank, error) {
	cfg := e.cfg
	lib, err := wine2.NewLibrary(cfg.Wine)
	if err != nil {
		return waveRank{}, err
	}
	lib.SetFaultHook(cfg.FaultHook)
	if err := acquireWine(lib, max(e.wineBoards/share, 1)); err != nil {
		return waveRank{}, err
	}
	lib.SetPool(pool)
	return waveRank{lib: lib, p: cfg.Ewald, waves: e.waves}, nil
}

// acquireWine is the board cycle of Table 2 on a WINE-2 session: allocate,
// initialize. The rank's next step declares its block size (set_nn).
func acquireWine(lib *wine2.Library, boards int) error {
	if err := lib.AllocateBoards(boards); err != nil {
		return err
	}
	return lib.InitializeBoards()
}

// pass is the rank's step: the WINE-2 wavenumber pass over the particles it
// is handed, into the rank's reused force planes, and the wavenumber
// potential. It touches nothing a real rank touches, so it may run beside a
// sweep.
func (w *waveRank) pass(pos []vec.V, q []float64) (soa.Coords, float64, error) {
	fc, pot, err := w.lib.CalcForceAndPotWavepartCoordsInto(w.p, w.waves, pos, q, w.fc)
	if err != nil {
		return soa.Coords{}, 0, err
	}
	w.fc = fc
	return fc, pot, nil
}

// potCadence is when an engine evaluates the potential, the value it reports
// in between, and the host walk that evaluates it. The cadence is
// MachineConfig.PotentialEvery against the simulation step, not against the
// engine's own call count, which starts at 0 in every engine a run builds (a
// resume, a restart) and skips the steps the host path serves.
type potCadence struct {
	every  int
	step   int     // simulation step the next Forces call evaluates
	valid  bool    // last holds a value
	fresh  bool    // the latest call evaluated last
	last   float64 // the potential of the latest evaluation
	table  *potTable
	gather potGather
}

// due reports whether this call evaluates the potential. An engine's first
// call always does: the value its predecessor held is in no checkpoint.
func (c *potCadence) due() bool { return !c.valid || c.step%c.every == 0 }

// walk is the host potential's real-space sum over layout l at s.Pos.
func (c *potCadence) walk(l *jsetLayout, s *md.System) float64 {
	return hostPotential(&c.gather, c.table, l.js.Sorted, l.jsb.NeighborTable(), s)
}

// book closes a completed force call on s and returns the potential it
// reports. On a due call realPot is the call's real-space walk, and the sum
// with the wavenumber potential wavePot and the self term is held; otherwise
// both are ignored and the held value is reported. It advances the cadence,
// so it runs once per successful call and never on a failed one.
func (c *potCadence) book(realPot, wavePot float64, s *md.System) float64 {
	if c.fresh = c.due(); c.fresh {
		c.last, c.valid = realPot+wavePot+ewald.SelfEnergy(c.table.p, s.Charge), true
	}
	c.step++
	return c.last
}
