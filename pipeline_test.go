package mdm

import (
	"math"
	"testing"
)

// The concurrent WINE-2/MDGRAPE-2 pipeline and the Verlet skin are opt-in
// Config knobs on the public API. The pipeline reorders nothing — every
// engine keeps its own accumulators and the join applies them in the fixed
// serial order — so a protocol run must be byte-identical with the pipeline
// on and off at any pool width.

func runProtocolPipeline(t *testing.T, pipeline bool, workers int, skin float64) *Simulation {
	t.Helper()
	return runProtocol(t, Config{
		Cells:    2,
		Backend:  BackendMDM,
		Workers:  workers,
		Pipeline: pipeline,
		Skin:     skin,
	}, 5, 25)
}

func runProtocol(t *testing.T, cfg Config, nvt, nve int) *Simulation {
	t.Helper()
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunNVT(nvt); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunNVE(nve); err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestPipelineConfigBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine protocol comparison in -short mode")
	}
	serial := runProtocolPipeline(t, false, 1, 0)
	defer func() { _ = serial.Free() }()
	for _, w := range []int{1, 4} {
		piped := runProtocolPipeline(t, true, w, 0)
		for i := range serial.System.Pos {
			a, b := serial.System.Pos[i], piped.System.Pos[i]
			if math.Float64bits(a.X) != math.Float64bits(b.X) ||
				math.Float64bits(a.Y) != math.Float64bits(b.Y) ||
				math.Float64bits(a.Z) != math.Float64bits(b.Z) {
				t.Fatalf("pipeline workers=%d: position %d differs after 25-step NVE: %v vs %v", w, i, b, a)
			}
		}
		sa, pa := serial.Records(), piped.Records()
		if len(sa) != len(pa) {
			t.Fatalf("pipeline workers=%d: %d records vs %d", w, len(pa), len(sa))
		}
		for k := range sa {
			if math.Float64bits(sa[k].E) != math.Float64bits(pa[k].E) ||
				math.Float64bits(sa[k].PE) != math.Float64bits(pa[k].PE) {
				t.Fatalf("pipeline workers=%d: record %d energies differ: %+v vs %+v", w, k, pa[k], sa[k])
			}
		}
		_ = piped.Free()
	}
}

func TestPipelineSkinConservesEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine protocol run in -short mode")
	}
	// A positive skin widens the cells, not the r_cut sphere: it moves the
	// sweep's visit order and stored words, so it is not bit-compared against
	// skin=0 (TestSkinLeavesThePhysics holds it to rounding). It must still
	// conserve energy over the NVE stretch, which fails if stale neighbor sets
	// ever leak through.
	sim := runProtocolPipeline(t, true, 2, 0.6)
	defer func() { _ = sim.Free() }()
	if drift := sim.EnergyDrift(); !(drift < 2e-4) {
		t.Fatalf("pipeline+skin NVE energy drift %.3g (want < 2e-4)", drift)
	}
	// The 2-cell grid above walks every image of every cell whatever cell a
	// particle is filed under. On 3 cells a side a reuse step is right only if
	// both sides of a pair — forces and potential alike — read the layout
	// frozen at the last rebuild, and the run must be long enough for particles
	// to cross the box faces between rebuilds. Both skins read 1.3e-5 here.
	long := runProtocol(t, Config{Cells: 3, Backend: BackendMDM, Skin: 0.5}, 100, 200)
	defer func() { _ = long.Free() }()
	if drift := long.EnergyDrift(); !(drift < 2e-5) {
		t.Fatalf("cells=3 skin=0.5 NVE energy drift %.3g over 200 steps (want < 2e-5)", drift)
	}
}

func TestSkinValidation(t *testing.T) {
	if _, err := NewSimulation(Config{Cells: 2, Backend: BackendMDM, Skin: -0.1}); err == nil {
		t.Fatal("negative skin accepted")
	}
}
