// Package md implements the host-side molecular dynamics engine of the MDM
// software (§4, §5 of the paper): particle state, the rock-salt initial
// configuration, Maxwell–Boltzmann velocities, velocity-Verlet time
// integration, the NVT (velocity-scaling) and NVE ensembles used in the
// paper's runs, and the observables plotted in Figure 2 (instantaneous
// temperature) and quoted in §5 (total-energy conservation).
//
// Forces come from a ForceField — either the simulated MDM machine or the
// float64 "conventional computer" reference (package core provides both).
// Units follow package units: Å, fs, eV, amu, K.
package md

import (
	"fmt"
	"math"
	"math/rand"

	"mdm/internal/tosifumi"
	"mdm/internal/units"
	"mdm/internal/vec"
)

// System is the particle state of one simulation.
type System struct {
	L      float64   // cubic box side (Å)
	Pos    []vec.V   // positions (Å)
	Vel    []vec.V   // velocities (Å/fs)
	Mass   []float64 // masses (amu)
	Charge []float64 // charges (e)
	Type   []int     // particle types (species index)
}

// N returns the particle count.
func (s *System) N() int { return len(s.Pos) }

// Validate reports state inconsistencies.
func (s *System) Validate() error {
	n := len(s.Pos)
	if s.L <= 0 {
		return fmt.Errorf("md: box side %g must be positive", s.L)
	}
	if len(s.Vel) != n || len(s.Mass) != n || len(s.Charge) != n || len(s.Type) != n {
		return fmt.Errorf("md: inconsistent state lengths (%d pos, %d vel, %d mass, %d charge, %d type)",
			n, len(s.Vel), len(s.Mass), len(s.Charge), len(s.Type))
	}
	for i, m := range s.Mass {
		if m <= 0 {
			return fmt.Errorf("md: particle %d has non-positive mass %g", i, m)
		}
	}
	return nil
}

// NewRockSalt builds a cells×cells×cells block of NaCl conventional unit
// cells with lattice constant a (Å): 8 ions per cell, alternating Na⁺/Cl⁻ on
// a simple-cubic sublattice of spacing a/2. The box side is cells·a and the
// system is charge-neutral with equal numbers of both species.
func NewRockSalt(cells int, a float64) (*System, error) {
	if cells < 1 {
		return nil, fmt.Errorf("md: cells %d must be positive", cells)
	}
	if a <= 0 {
		return nil, fmt.Errorf("md: lattice constant %g must be positive", a)
	}
	n := 8 * cells * cells * cells
	s := &System{
		L:      float64(cells) * a,
		Pos:    make([]vec.V, n),
		Vel:    make([]vec.V, n),
		Mass:   make([]float64, n),
		Charge: make([]float64, n),
		Type:   make([]int, n),
	}
	d := a / 2
	i := 0
	for cz := 0; cz < 2*cells; cz++ {
		for cy := 0; cy < 2*cells; cy++ {
			for cx := 0; cx < 2*cells; cx++ {
				s.Pos[i] = vec.New(float64(cx)*d, float64(cy)*d, float64(cz)*d)
				var sp tosifumi.Species
				if (cx+cy+cz)%2 == 0 {
					sp = tosifumi.Na
				} else {
					sp = tosifumi.Cl
				}
				s.Type[i] = int(sp)
				s.Charge[i] = tosifumi.Charge(sp)
				s.Mass[i] = tosifumi.Mass(sp)
				i++
			}
		}
	}
	return s, nil
}

// SetMaxwellVelocities draws velocities from the Maxwell–Boltzmann
// distribution at temperature tK, removes the net momentum, and rescales to
// hit tK exactly. The given seed makes runs reproducible.
func (s *System) SetMaxwellVelocities(tK float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range s.Vel {
		// σ² = k_B T / m in (Å/fs)² via the eV→(Å/fs)² conversion.
		sigma := math.Sqrt(units.Boltzmann * tK / s.Mass[i] * units.ForceToAccel)
		s.Vel[i] = vec.New(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	s.RemoveNetMomentum()
	if t := s.Temperature(); t > 0 && tK > 0 {
		s.ScaleVelocities(math.Sqrt(tK / t))
	}
}

// RemoveNetMomentum shifts velocities so that total momentum vanishes.
func (s *System) RemoveNetMomentum() {
	var p vec.V
	mTot := 0.0
	for i := range s.Vel {
		p = p.Add(s.Vel[i].Scale(s.Mass[i]))
		mTot += s.Mass[i]
	}
	if mTot == 0 {
		return
	}
	drift := p.Scale(1 / mTot)
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Sub(drift)
	}
}

// ScaleVelocities multiplies every velocity by f (the paper's NVT
// velocity-scaling thermostat applies f = sqrt(T_target/T)).
func (s *System) ScaleVelocities(f float64) {
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Scale(f)
	}
}

// KineticEnergy returns the total kinetic energy in eV:
// KE = Σ ½ m v² / ForceToAccel (v in Å/fs, m in amu).
func (s *System) KineticEnergy() float64 {
	ke := 0.0
	for i := range s.Vel {
		ke += float64(0.5 * s.Mass[i] * s.Vel[i].Norm2())
	}
	return ke / units.ForceToAccel
}

// Temperature returns the instantaneous temperature in K.
func (s *System) Temperature() float64 {
	return units.KineticToKelvin(s.KineticEnergy(), len(s.Pos))
}

// ForceField computes forces and total potential energy for a configuration.
// Implementations: the simulated MDM machine and the float64 conventional
// reference (package core). The slice Forces returns is the caller's: the
// force field keeps no reference to it.
type ForceField interface {
	Forces(s *System) (forces []vec.V, potential float64, err error)
}

// ForceFieldInto is implemented by force fields that can write their forces
// into a slice the caller owns (the machine's engines), so a step allocates
// no force vector: the paper's host rewrote the same arrays every step.
// ForcesInto is Forces writing into dst when dst holds s.N() vectors, and
// into a fresh slice otherwise (dst nil); the slice returned is the caller's,
// as Forces's is. On an error dst may hold a partial write. The integrator
// hands back only a slice the same force field returned from ForcesInto, and
// recognizes the force field by ==, so an implementation is a comparable
// type (both engines are pointers).
type ForceFieldInto interface {
	ForceField
	ForcesInto(s *System, dst []vec.V) (forces []vec.V, potential float64, err error)
}

// PotentialCadence is implemented by force fields that evaluate the
// potential on some calls only and report the latest value in between (the
// machine's PotentialEvery). A force field without it evaluates on every
// call.
type PotentialCadence interface {
	// PotentialFresh reports whether the latest Forces call evaluated the
	// potential it returned.
	PotentialFresh() bool
}

// GeometryInvalidator is implemented by force fields that cache
// position-dependent geometry between calls (the machine's Verlet-skin
// j-set). The integrator's own steps move particles gradually — the cache
// validates itself against a displacement bound — but an external rewrite of
// the positions (checkpoint restore) must announce itself through this hook.
type GeometryInvalidator interface {
	InvalidateGeometry()
}

// Ensemble selects the integration mode of one segment of a run.
type Ensemble int

// The two ensembles used in the paper's §5 run: 2,000 steps of NVT by
// velocity scaling followed by 1,000 steps of NVE.
const (
	NVE Ensemble = iota
	NVT
)

// String implements fmt.Stringer.
func (e Ensemble) String() string {
	if e == NVT {
		return "NVT"
	}
	return "NVE"
}

// Integrator advances a System with the velocity-Verlet scheme.
type Integrator struct {
	Sys    *System
	FF     ForceField
	Dt     float64 // time step (fs); the paper uses 2 fs
	Target float64 // NVT target temperature (K)
	Mode   Ensemble

	forces []vec.V
	pot    float64
	fresh  bool // pot was evaluated at the current positions
	step   int

	// into is the force field whose ForcesInto returned forces, nil when a
	// plain Forces call did: only into may write forces in place, since a
	// Forces slice can alias a slice someone else holds.
	into ForceField
}

// NewIntegrator validates the state and computes the initial forces.
func NewIntegrator(s *System, ff ForceField, dt float64) (*Integrator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if dt <= 0 {
		return nil, fmt.Errorf("md: time step %g must be positive", dt)
	}
	if ff == nil {
		return nil, fmt.Errorf("md: nil force field")
	}
	it := &Integrator{Sys: s, FF: ff, Dt: dt, Mode: NVE}
	if err := it.evaluate(); err != nil {
		return nil, fmt.Errorf("md: initial force evaluation: %w", err)
	}
	return it, nil
}

// evaluate replaces the forces, potential and freshness with FF's at the
// current positions. A ForceFieldInto writes into the forces it returned
// last; on its first call, and on the first call after FF is replaced, it
// is handed nil.
func (it *Integrator) evaluate() error {
	s := it.Sys
	fi, into := it.FF.(ForceFieldInto)
	var dst []vec.V
	if into && it.into == it.FF {
		dst = it.forces
	}
	it.into = nil // set again once this call has returned a whole slice
	var f []vec.V
	var pot float64
	var err error
	if into {
		f, pot, err = fi.ForcesInto(s, dst)
	} else {
		f, pot, err = it.FF.Forces(s)
	}
	if err != nil {
		return err
	}
	if len(f) != s.N() {
		return fmt.Errorf("md: force field returned %d forces for %d particles", len(f), s.N())
	}
	if into {
		it.into = it.FF
	}
	it.forces = f
	it.pot, it.fresh = pot, potentialFresh(it.FF)
	return nil
}

// potentialFresh reports whether ff's latest Forces call evaluated its
// potential.
func potentialFresh(ff ForceField) bool {
	c, ok := ff.(PotentialCadence)
	return !ok || c.PotentialFresh()
}

// Step advances one velocity-Verlet time step. In NVT mode the velocities
// are rescaled to the target temperature after the update (the paper's
// velocity-scaling thermostat).
//
//mdm:stepflow -- hot-path root: one velocity-Verlet step, incl. every md.ForceField implementation it dispatches to
func (it *Integrator) Step() error {
	s := it.Sys
	dt := it.Dt
	half := 0.5 * dt * units.ForceToAccel
	// Half kick + drift.
	for i := range s.Pos {
		s.Vel[i] = s.Vel[i].Add(it.forces[i].Scale(half / s.Mass[i]))
		s.Pos[i] = s.Pos[i].Add(s.Vel[i].Scale(dt)).Wrap(s.L)
	}
	// New forces.
	if err := it.evaluate(); err != nil {
		return fmt.Errorf("md: force evaluation at step %d: %w", it.step+1, err)
	}
	// Second half kick.
	for i := range s.Pos {
		s.Vel[i] = s.Vel[i].Add(it.forces[i].Scale(half / s.Mass[i]))
	}
	if it.Mode == NVT && it.Target > 0 {
		if t := s.Temperature(); t > 0 {
			s.ScaleVelocities(math.Sqrt(it.Target / t))
		}
	}
	it.step++
	return nil
}

// Run advances n steps, invoking observe (if non-nil) after each step.
//
//mdm:stepflow -- hot-path root: the step loop; per-step observe callbacks passed to it (journal commit, sampling) run between steps
func (it *Integrator) Run(n int, observe func(step int) error) error {
	for i := 0; i < n; i++ {
		if err := it.Step(); err != nil {
			return err
		}
		if observe != nil {
			if err := observe(it.step); err != nil {
				return err
			}
		}
	}
	return nil
}

// StepCount returns the number of completed steps.
func (it *Integrator) StepCount() int { return it.step }

// SetStepCount positions the step counter, so a run resumed from a
// checkpoint keeps the original step numbering and time axis. Restoring a
// checkpoint rewrites the positions out from under the force field, so any
// cached geometry is invalidated here.
func (it *Integrator) SetStepCount(n int) {
	it.step = n
	it.InvalidateGeometry()
}

// InvalidateGeometry forwards an external position rewrite to the force
// field's geometry cache, when it keeps one.
func (it *Integrator) InvalidateGeometry() {
	if gi, ok := it.FF.(GeometryInvalidator); ok {
		gi.InvalidateGeometry()
	}
}

// Potential returns the potential energy at the current positions (eV), or,
// between a force field's evaluations (PotentialCadence), the latest one.
func (it *Integrator) Potential() float64 { return it.pot }

// PotentialFresh reports whether Potential was evaluated at the current
// positions.
func (it *Integrator) PotentialFresh() bool { return it.fresh }

// Forces returns the cached forces at the current positions. A force field
// that implements ForceFieldInto rewrites this slice in place at the next
// Step: copy it to keep it.
func (it *Integrator) Forces() []vec.V { return it.forces }

// TotalEnergy returns KE + PE at the current state (eV).
func (it *Integrator) TotalEnergy() float64 {
	return it.Sys.KineticEnergy() + it.pot
}

// Record is one observable sample, the quantities behind Figure 2. PE, and
// with it E, is fresh only on the steps the force field evaluated the
// potential (PotentialCadence); in between it repeats the latest evaluation.
type Record struct {
	Step    int
	Time    float64 // ps
	T       float64 // K
	KE      float64 // eV
	PE      float64 // eV
	E       float64 // eV
	PEFresh bool    // PE was evaluated at this step
}

// Recorder samples an Integrator.
type Recorder struct {
	Records []Record
}

// Sample appends the current observables.
func (r *Recorder) Sample(it *Integrator) {
	r.Records = append(r.Records, Record{
		Step:    it.StepCount(),
		Time:    float64(it.StepCount()) * it.Dt / 1000.0,
		T:       it.Sys.Temperature(),
		KE:      it.Sys.KineticEnergy(),
		PE:      it.Potential(),
		E:       it.TotalEnergy(),
		PEFresh: it.PotentialFresh(),
	})
}

// TemperatureStats returns the mean and standard deviation of the sampled
// temperature — the fluctuation measure of Figure 2.
func (r *Recorder) TemperatureStats() (mean, std float64) {
	if len(r.Records) == 0 {
		return 0, 0
	}
	for _, rec := range r.Records {
		mean += rec.T
	}
	mean /= float64(len(r.Records))
	for _, rec := range r.Records {
		d := rec.T - mean
		std += float64(d * d)
	}
	std = math.Sqrt(std / float64(len(r.Records)))
	return mean, std
}

// EnergyDrift returns the maximum relative deviation of the total energy
// from its first fresh sample, over the fresh samples only (PEFresh: a stale
// PE would mix one step's KE with another's PE): max |E(t)-E(0)| / |E(0)|.
// With fewer than two fresh samples there is no drift to report, and it
// returns NaN. The paper quotes a relative error below 5×10⁻⁵ percent for
// the NVE segment.
func (r *Recorder) EnergyDrift() float64 {
	fresh, e0, worst := 0, 0.0, 0.0
	for _, rec := range r.Records {
		if !rec.PEFresh {
			continue
		}
		if fresh++; fresh == 1 {
			e0 = rec.E
		} else if d := math.Abs(rec.E-e0) / math.Abs(e0); d > worst {
			worst = d
		}
	}
	if fresh < 2 {
		return math.NaN()
	}
	return worst
}
