package core

import (
	"fmt"
	"runtime"
	"testing"

	"mdm/internal/md"
)

// TestSkinAmortizesRebuilds checks the Verlet-skin bound actually skips cell
// sorts on a quiet system, and that the skinned discretization still
// conserves energy (forces and potential walk the same widened pair set).
func TestSkinAmortizesRebuilds(t *testing.T) {
	s := meltLike(t, 2, 5.64, 80, 23)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)
	cfg.Skin = 0.8
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Free() }()
	it, err := md.NewIntegrator(s, m, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &md.Recorder{}
	rec.Sample(it)
	if err := it.Run(40, func(int) error { rec.Sample(it); return nil }); err != nil {
		t.Fatal(err)
	}
	rebuilds, reuses := m.JSetStats()
	if reuses == 0 {
		t.Errorf("skin=%g never reused the j-set (%d rebuilds)", cfg.Skin, rebuilds)
	}
	if rebuilds+reuses != 41 {
		t.Errorf("j-set stats %d+%d don't cover 41 force calls", rebuilds, reuses)
	}
	if drift := rec.EnergyDrift(); drift > 2e-4 {
		t.Errorf("NVE drift %.3g with skin reuse exceeds 2e-4", drift)
	}
	// An external position rewrite must force a rebuild.
	before, _ := m.JSetStats()
	it.InvalidateGeometry()
	if _, _, err := m.Forces(s); err != nil {
		t.Fatal(err)
	}
	if after, _ := m.JSetStats(); after != before+1 {
		t.Errorf("InvalidateGeometry did not force a rebuild (%d → %d)", before, after)
	}
}

// TestStepAllocs pins the steady-state heap allocations of one machine Forces
// call (potential every call, skin 0.6) over worker width, with the
// deprecated Pipeline field set both ways: it selects nothing, so both rows
// hold the one schedule's budget until the field is deleted. By design only the
// returned force slice (md.ForceField gives it to the caller) and the pool.Run
// and pair-walk closures allocate; the wave pass starts on its own goroutine
// through a method value bound once, and every scratch buffer and the pooled
// dispatch records are reused. So the count is flat in N, steps and width
// (BENCH_2 read 11 → 144 allocs/op between widths 1 and 8 before the records
// were pooled): 7 per call at every width — the exact count, so a
// one-allocation leak fails — and the bytes are little beyond the one force
// slice. This test is the allocation verdict; no benchmark record holds one.
func TestStepAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates per goroutine handoff; the pinned counts only hold in uninstrumented builds")
	}
	s := meltLike(t, 2, 5.64, 300, 31)
	bytesLimit := float64(s.N()*24 + 2048) // one N-vector force slice + closures
	const budget = 7.0
	for _, pipeline := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("pipeline=%v/workers=%d", pipeline, workers), func(t *testing.T) {
				cfg := CurrentMachineConfig(smallParams(s.L))
				cfg.Pipeline, cfg.Workers, cfg.Skin = pipeline, workers, 0.6
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = m.Free() }()
				step := func() {
					if _, _, err := m.Forces(s); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 5; i++ { // warm the arena and the dispatch records
					step()
				}
				const runs = 10
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				allocs := testing.AllocsPerRun(runs, step)
				runtime.ReadMemStats(&after)
				bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
				t.Logf("%.1f allocs, %.0f B per step", allocs, bytes)
				if allocs > budget {
					t.Errorf("%.1f allocs/step, want ≤ %g", allocs, budget)
				}
				if bytes > bytesLimit {
					t.Errorf("%.0f B/step, want ≤ %.0f", bytes, bytesLimit)
				}
			})
		}
	}
}
