package mdm

import "testing"

// TestSkinConservesEnergy holds the Verlet skin to energy conservation over a
// long run; TestBitIdentityLattice holds it to the golden trajectories. A positive skin widens the cells, not the
// r_cut sphere: it moves the sweep's visit order and stored words, so it is
// not bit-compared against skin=0 (TestSkinLeavesThePhysics holds it to
// rounding). A 2-cell grid walks every image of every cell whatever cell a
// particle is filed under. On 3 cells a side a reuse step is right only if
// both sides of a pair — forces and potential alike — read the layout frozen
// at the last rebuild, and the run must be long enough for particles to cross
// the box faces between rebuilds. Both skins read 1.3e-5 here.
func TestSkinConservesEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine protocol run in -short mode")
	}
	sim, err := NewSimulation(Config{Cells: 3, Backend: BackendMDM, Skin: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sim.Free() }()
	if err := sim.RunNVT(100); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunNVE(200); err != nil {
		t.Fatal(err)
	}
	if drift := sim.EnergyDrift(); !(drift < 2e-5) {
		t.Fatalf("cells=3 skin=0.5 NVE energy drift %.3g over 200 steps (want < 2e-5)", drift)
	}
}

func TestSkinValidation(t *testing.T) {
	if _, err := NewSimulation(Config{Cells: 2, Backend: BackendMDM, Skin: -0.1}); err == nil {
		t.Fatal("negative skin accepted")
	}
}
