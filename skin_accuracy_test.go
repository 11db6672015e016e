package mdm

import (
	"fmt"
	"slices"
	"testing"

	"mdm/internal/core"
	"mdm/internal/vec"
)

// TestSkinReuseStepsMatchRebuildSteps gates the Verlet-skin reuse path on
// accuracy, not on bit-identity between execution modes (every mode can be
// bit-identical to the same wrong answer): per NVE step, the machine's forces
// against the float64 reference Ewald, split by whether the step rebuilt the
// j-set layout or reused it. A reuse step evaluates the pair set frozen at the
// last rebuild on current coordinates, so it must read what a rebuild step
// reads. The grid needs ≥ 3 cells per side — on a 2-cell grid every image is
// walked whatever cell a particle is filed under — and a warm-up long enough
// that particles cross the periodic boundary between rebuilds. Both step
// shapes are held to 5·10⁻⁵ relative RMS: they read ≈ 8·10⁻⁶, the
// pipelines' rounding, while a particle read on the wrong periodic image
// reads 10⁻³ and up.
func TestSkinReuseStepsMatchRebuildSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("512-ion protocol runs in -short mode")
	}
	for _, ranks := range []int{0, 1, 2, 8} { // 0: the serial Machine
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			sim, err := NewSimulation(Config{Cells: 4, Alpha: 9, Skin: 0.5, Ranks: ranks})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = sim.Free() }()
			ref, err := core.NewReference(sim.Params())
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.RunNVT(50); err != nil {
				t.Fatal(err)
			}
			var rebuildErr, reuseErr []float64
			rebuilds, _ := sim.engine.JSetStats()
			for step := 0; step < 14; step++ {
				if err := sim.RunNVE(1); err != nil {
					t.Fatal(err)
				}
				want, _, err := ref.Forces(sim.System)
				if err != nil {
					t.Fatal(err)
				}
				rel := vec.RelRMSDiff(sim.Integrator.Forces(), want)
				now, _ := sim.engine.JSetStats()
				if now > rebuilds {
					rebuildErr = append(rebuildErr, rel)
				} else {
					reuseErr = append(reuseErr, rel)
				}
				rebuilds = now
			}
			if len(rebuildErr) < 2 || len(reuseErr) < 8 {
				t.Fatalf("%d rebuild and %d reuse steps: the stretch must hold ≥ 2 and ≥ 8", len(rebuildErr), len(reuseErr))
			}
			worstRebuild := slices.Max(rebuildErr)
			t.Logf("force error vs the reference Ewald: rebuild steps ≤ %.3g, reuse steps ≤ %.3g", worstRebuild, slices.Max(reuseErr))
			if worstRebuild > 5e-5 {
				t.Errorf("rebuild step force error %.3g, want ≤ 5e-5\nrebuild %.3g", worstRebuild, rebuildErr)
			}
			for _, e := range reuseErr {
				if e > 1.1*worstRebuild || e > 5e-5 {
					t.Errorf("reuse step force error %.3g (rebuild steps read ≤ %.3g; want ≤ 1.1× that and ≤ 5e-5)\nrebuild %.3g\nreuse   %.3g",
						e, worstRebuild, rebuildErr, reuseErr)
					break
				}
			}
		})
	}
}
