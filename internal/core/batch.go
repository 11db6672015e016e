package core

import (
	"fmt"

	"mdm/internal/md"
	"mdm/internal/mdgrape2"
	"mdm/internal/vec"
)

// BatchMachine steps K independent small-N systems through ONE simulated MDM.
//
// The paper's machine amortized its fixed costs — table RAM loads, coefficient
// RAMs, the wavevector enumeration, the cell-grid geometry — over a long run
// of one large system. For parameter sweeps over many small systems the same
// amortization applies across systems instead of across steps: every slot of a
// batch shares the Machine's function-evaluator tables, coefficient RAMs,
// wavevector set, cell grid, worker pool, and every per-call scratch buffer
// (force planes, quantized particle image, structure factors, sort buckets).
// Only the trajectory-dependent state — the sorted j-set, the Verlet-skin
// reference positions, the potential-energy schedule — is per-slot.
//
// Slots step serially in slot order within each round, so results are
// throughput-amortized, not parallelized: slot i's trajectory is bit-identical
// to running it alone on a fresh Machine with the same MachineConfig,
// independent of K and of the other slots' contents. That holds because every
// shared buffer is value-independent between calls (fully overwritten before
// it is read), while all value-carrying state is swapped in and out around
// each slot's force call.
type BatchMachine struct {
	m     *Machine
	slots []batchSlot
}

// batchSlot is the trajectory-dependent Machine state of one batched system,
// swapped into the shared Machine around each force call.
type batchSlot struct {
	it *md.Integrator

	jsb      *mdgrape2.JSetBuilder // clone: own j-set, shared neighbor table + sorter
	js       *mdgrape2.JSet
	refPos   []vec.V
	haveJSet bool
	rebuilds int
	reuses   int

	potCalls int
	lastPot  float64
}

// slotField adapts one batch slot to md.ForceField: it swaps the slot's
// trajectory state into the shared Machine, delegates to Machine.Forces, and
// swaps the (possibly updated) state back out.
type slotField struct {
	b *BatchMachine
	i int
}

// Forces implements md.ForceField for one slot of the batch.
func (f slotField) Forces(s *md.System) ([]vec.V, float64, error) {
	b, m := f.b, f.b.m
	sl := &b.slots[f.i]

	// Adopt the slot's trajectory state.
	m.jsb, m.js = sl.jsb, sl.js
	m.refPos, m.haveJSet = sl.refPos, sl.haveJSet
	m.jsetRebuilds, m.jsetReuses = sl.rebuilds, sl.reuses
	m.potCalls, m.lastPot = sl.potCalls, sl.lastPot

	forces, pot, err := m.Forces(s)

	// Stash it back (the j-set or reference positions may have been rebuilt,
	// and the potential schedule advanced) — unconditionally, so a failed call
	// leaves the slot observing exactly what the Machine observed.
	sl.jsb, sl.js = m.jsb, m.js
	sl.refPos, sl.haveJSet = m.refPos, m.haveJSet
	sl.rebuilds, sl.reuses = m.jsetRebuilds, m.jsetReuses
	sl.potCalls, sl.lastPot = m.potCalls, m.lastPot

	return forces, pot, err
}

// InvalidateGeometry implements core recovery/restore hooks per slot: the next
// force call on this slot rebuilds its j-set.
func (f slotField) InvalidateGeometry() { f.b.slots[f.i].haveJSet = false }

// NewBatchMachine builds one Machine from cfg and wires every system in the
// batch to it through its own integrator (timestep dt, femtoseconds). All
// systems must share the machine's box edge cfg.Ewald.L; they may differ in
// everything else a System carries (positions, velocities, even N, since the
// per-call buffers resize by length).
func NewBatchMachine(cfg MachineConfig, systems []*md.System, dt float64) (*BatchMachine, error) {
	if len(systems) == 0 {
		return nil, fmt.Errorf("core: batch of zero systems")
	}
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	b := &BatchMachine{m: m, slots: make([]batchSlot, len(systems))}
	for i, s := range systems {
		if s.L != cfg.Ewald.L {
			m.Free()
			return nil, fmt.Errorf("core: batch slot %d box %g differs from machine box %g", i, s.L, cfg.Ewald.L)
		}
		// Each slot owns a j-set builder clone: private sorted layout, shared
		// (value-independent) neighbor table and sort scratch.
		b.slots[i].jsb = m.jsb.Clone()
		// NewIntegrator performs the initial force call, which runs through
		// the slot swap — it seeds the slot's j-set and potential.
		it, err := md.NewIntegrator(s, slotField{b: b, i: i}, dt)
		if err != nil {
			m.Free()
			return nil, fmt.Errorf("core: batch slot %d: %w", i, err)
		}
		b.slots[i].it = it
	}
	return b, nil
}

// K returns the number of batched systems.
func (b *BatchMachine) K() int { return len(b.slots) }

// Integrator returns slot i's integrator, for setting the thermostat mode or
// reading per-slot energies.
func (b *BatchMachine) Integrator(i int) *md.Integrator { return b.slots[i].it }

// Machine exposes the shared underlying machine (work counters, wave set).
func (b *BatchMachine) Machine() *Machine { return b.m }

// JSetStats returns slot i's j-set rebuild/reuse counters.
func (b *BatchMachine) JSetStats(i int) (rebuilds, reuses int) {
	return b.slots[i].rebuilds, b.slots[i].reuses
}

// Step advances every slot by one velocity-Verlet step, serially in slot
// order. The first error aborts the round (later slots keep their pre-round
// state for that round).
//
//mdm:stepflow -- hot-path root: the batched per-step flow — K swapped trajectories through one machine's step path
func (b *BatchMachine) Step() error {
	for i := range b.slots {
		if err := b.slots[i].it.Step(); err != nil {
			return fmt.Errorf("core: batch slot %d: %w", i, err)
		}
	}
	return nil
}

// Run advances the whole batch n rounds, invoking observe (if non-nil) after
// each round with the 1-based round number.
func (b *BatchMachine) Run(n int, observe func(round int) error) error {
	for r := 1; r <= n; r++ {
		if err := b.Step(); err != nil {
			return err
		}
		if observe != nil {
			if err := observe(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// Free releases the shared machine's backend sessions.
func (b *BatchMachine) Free() error { return b.m.Free() }
