package core

import (
	"math"

	"mdm/internal/ewald"
	"mdm/internal/md"
	"mdm/internal/vec"
)

// StageError is one stage's force error: the RMS and the worst over particles
// of |F − F_float64|, both relative to the RMS of that stage's float64 force.
type StageError struct {
	RMS   float64 `json:"rms"`
	Worst float64 `json:"worst"`
}

func stageError(got, want []vec.V) StageError {
	worst := 0.0
	for i, w := range want {
		worst = max(worst, got[i].Sub(w).Norm())
	}
	return StageError{RMS: vec.RelRMSDiff(got, want), Worst: worst / vec.RMS(want)}
}

// Accuracy is the assembled machine judged stage by stage against float64
// over its own pair set and wave set: Real is the MDGRAPE-2 sweep (all four
// tables), Wave the WINE-2 pass (§3.4.4's convention), Total the combined
// forces, Potential |ΔU|/|U|. Truncation is no pipeline error but the float64
// 27-cell cube against the Reference's r_cut sphere: the difference of two
// discretizations that dominates any machine-vs-Reference figure.
type Accuracy struct {
	N          int        `json:"n"`
	Real       StageError `json:"real"`
	Wave       StageError `json:"wave"`
	Total      StageError `json:"total"`
	Potential  float64    `json:"potential"`
	Truncation StageError `json:"truncation"`
}

// MeasureAccuracy builds the production machine for cfg, makes one Forces
// call on s, and judges it against the Reference's float64 pair body walked
// over the machine's own j-set layout and neighbor table, and against
// ewald.WavenumberForces over the machine's own waves. The machine combines
// real + wave in a fixed order, so its real stage is combined − wave, exact
// to ~10⁻¹⁶ of |F|.
func MeasureAccuracy(cfg MachineConfig, s *md.System) (Accuracy, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return Accuracy{}, err
	}
	defer func() { _ = m.Free() }() // a release error changes nothing measured
	ref, err := NewReference(cfg.Ewald)
	if err != nil {
		return Accuracy{}, err
	}
	total, pot, err := m.Forces(s)
	if err != nil {
		return Accuracy{}, err
	}
	// The layout the sweep just read: a refresh at the positions it was built
	// from keeps every cell, slot, image and stored word.
	js, err := m.jsb.Refresh(s.Pos)
	if err != nil {
		return Accuracy{}, err
	}
	cube, body := ref.pairSum(s, js.Sorted)
	js.Sorted.ForEachHalfPairTable(m.jsb.NeighborTable(), body)

	p := cfg.Ewald
	sn, cn := ewald.StructureFactors(m.waves, s.Pos, s.Charge)
	wave64 := ewald.WavenumberForces(p, m.waves, sn, cn, s.Pos, s.Charge)
	pot64 := cube.pot + ewald.WavenumberEnergy(p, m.waves, sn, cn) + ewald.SelfEnergy(p, s.Charge)
	wave, real64, sphere := m.wineFC.AppendAoS(nil), cube.forces, ref.sphereSum(s).forces
	sweep, total64 := make([]vec.V, s.N()), make([]vec.V, s.N())
	for i := range total {
		sweep[i] = total[i].Sub(wave[i])
		total64[i] = real64[i].Add(wave64[i])
		sphere[i] = sphere[i].Add(wave64[i]) // Reference.Forces, bit for bit
	}
	return Accuracy{
		N:          s.N(),
		Real:       stageError(sweep, real64),
		Wave:       stageError(wave, wave64),
		Total:      stageError(total, total64),
		Potential:  math.Abs(pot-pot64) / math.Abs(pot64),
		Truncation: stageError(total64, sphere),
	}, nil
}
