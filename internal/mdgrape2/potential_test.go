package mdgrape2

import (
	"math"
	"testing"

	"mdm/internal/cellindex"
	"mdm/internal/ewald"
	"mdm/internal/units"
)

func TestComputePotentialsCoulomb(t *testing.T) {
	// Potential mode vs float64 oracle over the same pair walk (27-cell
	// candidates inside r_cut):
	// φ(x) = erfc(√x)/√x with a = α²/L², b = q_i q_j, scale = k_e α/L gives
	// the real-space Ewald energy per particle.
	const l, rcut = 12.0, 4.0
	pos, types, q := naclSystem(100, l, 26)
	p := ewald.Params{L: l, Alpha: 2.633 * l / rcut, RCut: rcut, LKCut: 3}
	sys, _ := NewSystem(CurrentConfig())
	phi := func(x float64) float64 { return math.Erfc(math.Sqrt(x)) / math.Sqrt(x) }
	if err := sys.LoadTable("ewaldpot", phi, -20, 8); err != nil {
		t.Fatal(err)
	}
	grid, _ := cellindex.NewGrid(l, rcut)
	js, _ := NewJSet(grid, pos, types)
	scale := make([]float64, len(pos))
	pref := units.Coulomb * p.Alpha / p.L
	for i := range scale {
		scale[i] = pref
	}
	got, err := sys.ComputePotentials("ewaldpot", coulombCoeffs(p), pos, types, scale, js)
	if err != nil {
		t.Fatal(err)
	}
	aC := p.Alpha * p.Alpha / (p.L * p.L)
	var total, wantTotal float64
	for i := range pos {
		total += got[i]
		ci := grid.CellOf(pos[i])
		for _, nb := range grid.Neighbors(ci) {
			jstart, jend := js.Sorted.CellRange(nb.Cell)
			for j := jstart; j < jend; j++ {
				rij := pos[i].Sub(js.Sorted.At(j).Add(nb.Shift))
				r2 := rij.Norm2()
				if r2 == 0 || r2 >= rcut*rcut {
					continue
				}
				qj := q[js.Sorted.Order[j]]
				wantTotal += pref * q[i] * qj * phi(aC*r2)
			}
		}
	}
	if math.Abs(total-wantTotal) > 1e-4*(1+math.Abs(wantTotal)) {
		t.Errorf("hardware potential sum %g vs oracle %g", total, wantTotal)
	}
	// Each pair is counted twice; E = Σ/2. Cross-check against the
	// reference half-pair energy over the same sphere.
	var ref float64
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			rij := pos[i].Sub(pos[j]).MinImage(l)
			if rij.Norm() < rcut {
				ref += p.RealPairEnergy(q[i], q[j], rij)
			}
		}
	}
	if math.Abs(total/2-ref) > 2e-2*(1+math.Abs(ref)) {
		t.Errorf("E = Σp/2 = %g vs reference cutoff sum %g", total/2, ref)
	}
}

func TestComputePotentialsValidation(t *testing.T) {
	sys, _ := NewSystem(CurrentConfig())
	pos, types, _ := naclSystem(10, 10, 27)
	grid, _ := cellindex.NewGrid(10, 3)
	js, _ := NewJSet(grid, pos, types)
	co, _ := NewCoeffs(2, 1, 1)
	if _, err := sys.ComputePotentials("missing", co, pos, types, nil, js); err == nil {
		t.Error("missing table accepted")
	}
	if err := sys.LoadTable("g", func(x float64) float64 { return 1 / x }, -4, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ComputePotentials("g", co, pos, types[:5], nil, js); err == nil {
		t.Error("length mismatch accepted")
	}
}
