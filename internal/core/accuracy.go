package core

import (
	"math"

	"mdm/internal/ewald"
	"mdm/internal/md"
	"mdm/internal/tosifumi"
	"mdm/internal/vec"
)

// StageError is one stage's force error: the RMS and the worst over particles
// of |F − F_float64|, both relative to the RMS of that stage's float64 force.
type StageError struct {
	RMS   float64 `json:"rms"`
	Worst float64 `json:"worst"`
}

func stageError(got, want []vec.V) StageError {
	worst, scale := 0.0, vec.RMS(want)
	for i, w := range want {
		worst = max(worst, got[i].Sub(w).Norm())
	}
	if worst == 0 && scale == 0 {
		return StageError{} // an empty stage: no pair inside the cutoff
	}
	return StageError{RMS: vec.RelRMSDiff(got, want), Worst: worst / scale}
}

// Accuracy is the assembled machine judged stage by stage against float64
// over its own pair set and wave set: Real is the MDGRAPE-2 sweep (all four
// tables) against float64 over the r_cut sphere of its own layout, Wave the
// WINE-2 pass (§3.4.4's convention), Total the combined forces, Potential
// |ΔU|/|U| of the energy-shifted potential. Truncation is no pipeline error
// but the discretization's: the float64 sum over those pair and wave sets
// against a converged Ewald of the same α (r_cut = L, 1.7·Lk_cut), forces.
type Accuracy struct {
	N          int        `json:"n"`
	Real       StageError `json:"real"`
	Wave       StageError `json:"wave"`
	Total      StageError `json:"total"`
	Potential  float64    `json:"potential"`
	Truncation StageError `json:"truncation"`
}

// AccuracyBound is the RMS error each stage of the assembled machine must stay
// within (Potential: |ΔU|/|U|), 2–8× above the largest reading on 64–512-ion
// melts at the default α and at α = 14: a datapath regression far too small
// to show through the 10⁻³ Truncation fails it. Only the RMS fields and
// Potential are bounds; Truncation is reported, not bounded.
var AccuracyBound = Accuracy{
	Real:      StageError{RMS: 1e-5},
	Wave:      StageError{RMS: 1e-4},
	Total:     StageError{RMS: 3e-5},
	Potential: 1e-5,
}

// convergedParams is p's splitting with both sums taken far past their
// cutoffs: the real-space sphere out to the box side (erfc(α) ≤ 10⁻¹⁵ at
// every α mdm picks) and the wavenumber ball to 1.7·Lk_cut, where the
// e^(−π²|n|²/α²) factor is 10⁻⁷ of its value at Lk_cut.
func convergedParams(p ewald.Params) ewald.Params {
	return ewald.Params{L: p.L, Alpha: p.Alpha, RCut: p.L, LKCut: 1.7 * p.LKCut}
}

// MeasureAccuracy builds the production machine for cfg, makes one Forces
// call on s, and judges it against the Reference's float64 pair body walked
// over the machine's own j-set layout and neighbor table (the r_cut sphere,
// cellindex.Sorted.ForEachHalfPair), with the machine's energy shift, and
// against ewald.WavenumberForces over the machine's own waves. The machine
// combines real + wave in a fixed order, so its real stage is combined −
// wave, exact to ~10⁻¹⁶ of |F|.
func MeasureAccuracy(cfg MachineConfig, s *md.System) (Accuracy, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return Accuracy{}, err
	}
	defer func() { _ = m.Free() }() // a release error changes nothing measured
	p := cfg.Ewald
	ref, err := NewReference(p)
	if err != nil {
		return Accuracy{}, err
	}
	conv, err := NewReference(convergedParams(p))
	if err != nil {
		return Accuracy{}, err
	}
	total, pot, err := m.Forces(s)
	if err != nil {
		return Accuracy{}, err
	}
	js := m.real[0].js // the layout the sweep just read
	sphere, body := ref.pairSum(s, js.Sorted)
	shift := 0.0 // Σ u_ij(r_c) over the walk's pairs
	js.Sorted.ForEachHalfPair(m.real[0].jsb.NeighborTable(), func(i, j int, rij vec.V) {
		body(i, j, rij)
		oi, oj := js.Sorted.Order[i], js.Sorted.Order[j]
		shift += p.RealPairEnergyR(s.Charge[oi], s.Charge[oj], p.RCut)
		shift += ref.Pot.ShortEnergy(tosifumi.Species(s.Type[oi]), tosifumi.Species(s.Type[oj]), p.RCut)
	})
	converged, _, err := conv.Forces(s)
	if err != nil {
		return Accuracy{}, err
	}

	sn, cn := ewald.StructureFactors(m.waves, s.Pos, s.Charge)
	wave64 := ewald.WavenumberForces(p, m.waves, sn, cn, s.Pos, s.Charge)
	pot64 := sphere.pot - shift + ewald.WavenumberEnergy(p, m.waves, sn, cn) + ewald.SelfEnergy(p, s.Charge)
	wave, real64 := m.wave[0].fc.AppendAoS(nil), sphere.forces
	sweep, total64 := make([]vec.V, s.N()), make([]vec.V, s.N())
	for i := range total {
		sweep[i] = total[i].Sub(wave[i])
		total64[i] = real64[i].Add(wave64[i])
	}
	return Accuracy{
		N:          s.N(),
		Real:       stageError(sweep, real64),
		Wave:       stageError(wave, wave64),
		Total:      stageError(total, total64),
		Potential:  math.Abs(pot-pot64) / math.Abs(pot64),
		Truncation: stageError(total64, converged),
	}, nil
}
