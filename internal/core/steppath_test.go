package core

import (
	"math"
	"reflect"
	"testing"

	"mdm/internal/cellindex"
	"mdm/internal/ewald"
	"mdm/internal/md"
	"mdm/internal/tosifumi"
	"mdm/internal/vec"
)

// The machine has one step path — fused sweep, wave pass, half-pair host
// potential. These tests retire two reasons the four-pass, ordered-walk path
// had been kept: its potential value and its injector-visible call geometry.

// orderedRealPotential is the oracle hostPotential is checked against: every
// ordered 27-cell visit inside r_cut (each unordered pair twice, each kernel
// taking its own square root, each energy shifted by its value at r_c),
// halved — the walk the host potential made before it moved to the half
// count.
func orderedRealPotential(p ewald.Params, tf *tosifumi.Potential, sorted *cellindex.Sorted, s *md.System) float64 {
	pot := 0.0
	sorted.ForEachOrderedPair(func(i, j int, rij vec.V) {
		if r2 := rij.Norm2(); r2 == 0 || r2 >= p.RCut*p.RCut {
			return
		}
		oi, oj := sorted.Order[i], sorted.Order[j]
		qi, qj := s.Charge[oi], s.Charge[oj]
		si, sj := tosifumi.Species(s.Type[oi]), tosifumi.Species(s.Type[oj])
		pot += p.RealPairEnergy(qi, qj, rij) - p.RealPairEnergyR(qi, qj, p.RCut)
		pot += tf.ShortEnergy(si, sj, rij.Norm()) - tf.ShortEnergy(si, sj, p.RCut)
	})
	return pot / 2
}

func TestRealPotentialHalfWalkMatchesOrderedWalk(t *testing.T) {
	tf := tosifumi.Default()
	for _, cells := range []int{2, 3, 4} {
		s := meltLike(t, cells, 5.64, 1200, int64(cells))
		for _, alpha := range []float64{0, 9, 14} { // 0: the suite's default splitting
			p := smallParams(s.L)
			if alpha != 0 {
				p = ewald.ParamsForAlpha(s.L, alpha)
			}
			grid, err := cellindex.NewGrid(p.L, p.RCut)
			if err != nil {
				t.Fatal(err)
			}
			sorted := cellindex.Sort(grid, s.Pos)
			got := hostPotential(new(potGather), mustPotTable(t, p), sorted, cellindex.BuildNeighborTable(grid, nil), s)
			want := orderedRealPotential(p, tf, sorted, s)
			if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-12 {
				t.Errorf("cells=%d alpha=%g (grid %d³): half walk %.17g vs ordered walk %.17g (rel %.2g)",
					cells, p.Alpha, grid.N, got, want, rel)
			}
		}
	}
}

// TestPlainMachineFaultGeometry retires the last reason the four-pass branch
// had been kept as the default: call-indexed MDGRAPE-2 faults on the plain
// machine. The fused sweep books its four table passes as four hardware calls
// in pass order, so a scenario keyed on mdg call numbers lands on the same
// pass of the same step, the wavenumber pass is (not) reached exactly as
// before, and the recovery report — the four-pass machine's events, with the
// flipped word's magnitude — is pinned, as are the recovered forces.
func TestPlainMachineFaultGeometry(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 37)
	p := smallParams(s.L)
	// The first force call: mdg call 3 fails its r⁻⁶ pass (the wavenumber
	// pass is never reached); the retry issues mdg calls 4–7, then WINE-2's
	// DFT and IDFT, whose call 2 fails; the second retry dies at mdg call 9,
	// the Born–Mayer pass; the third (mdg 10–13, wine2 3–4) succeeds. The
	// second force call is mdg 14–17: the bit flip corrupts the r⁻⁶ pass's
	// contribution to one force component, the spike guard rejects the step,
	// and its retry is clean.
	in := injector(t, "mdg:transient@call=3; wine2:transient@call=2; mdg:transient@call=9; mdg:bitflip@call=16,word=5,bit=62")
	r := newResilientT(t, CurrentMachineConfig(p), RecoveryConfig{
		Guards:   Guards{MaxForce: 100}, // eV/Å; honest forces are ~1
		Injector: in,
	}, nil, 0)
	clean := newTestMachine(t, p)
	defer func() { _ = clean.Free() }()
	for step := 0; step < 3; step++ {
		got, gotPot, err := r.Forces(s)
		if err != nil {
			t.Fatal(err)
		}
		want, wantPot, err := clean.Forces(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || gotPot != wantPot {
			t.Fatalf("step %d: recovered forces/potential differ from the fault-free machine", step)
		}
	}
	if in.Remaining() != 0 {
		t.Fatalf("%d scheduled faults never fired", in.Remaining())
	}
	want := RunReport{
		Steps: 3, Retries: 4, SuspectSteps: 1,
		Events: []string{
			"step 1: retry 1 after mdg transient error",
			"step 1: retry 2 after wine2 transient error",
			"step 1: retry 3 after mdg transient error",
			"step 2: retry 1 after core: suspect step: force spike 9e+306 > 100",
		},
	}
	if rep := r.Report(); !reflect.DeepEqual(rep, want) {
		t.Errorf("recovery report moved:\n got %#v\nwant %#v", rep, want)
	}
}
