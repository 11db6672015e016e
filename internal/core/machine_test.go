package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mdm/internal/md"
	"mdm/internal/vec"
)

// TestNewMachineWorldDeadline pins the serial engine's layout: one real and
// one wavenumber rank on a two-rank world of its own, whose receive deadline
// is SessionTimeout, at least an hour, so a long serial wave pass is never
// read as a wedged run.
func TestNewMachineWorldDeadline(t *testing.T) {
	m, err := NewMachine(CurrentMachineConfig(smallParams(11.28)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Free() }()
	if m.nReal != 1 || m.nWave != 1 || m.world.Size() != 2 {
		t.Errorf("serial engine: %d real + %d wave ranks on a world of %d, want 1 + 1 on 2", m.nReal, m.nWave, m.world.Size())
	}
	if d := m.world.Timeout(); d != SessionTimeout || d < time.Hour {
		t.Errorf("serial engine's world deadline %v, want SessionTimeout (%v), at least 1h", d, SessionTimeout)
	}
}

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

// TestStepAllocs pins the steady-state heap allocations of one machine
// ForcesInto call (potential every call) over worker width, at skin 0 (every
// call sorts) and 0.6 (every call after the first refreshes), with the
// deprecated Pipeline field set both ways: it selects nothing, so both rows
// hold the one schedule's budget until the field is deleted. Each row runs
// with the step-phase spine off and on: a sink books into fixed arrays, so
// it adds nothing. The force slice is the caller's, written in place; every
// pool Run is handed a method value bound at construction, the wave pass
// starts on its own goroutine through one too, and every scratch buffer and
// the pooled dispatch records are reused. So a call allocates nothing at any
// width (BENCH_2 read 11 → 144 allocs/op between widths 1 and 8 before the
// records were pooled; 7 a call stayed, the force slice and six closures,
// until they were bound). The verdict is over 200 calls: fewer than one
// allocation and 8 B a call on average, where one allocation a call would
// add at least one and 8 B to every call. The runtime's own occasional
// allocations — a sudog or a goroutine descriptor, when the Ps the lanes
// block and wake on hold unequal caches — land in some windows, a few
// hundred bytes in all. This test is the allocation verdict; no benchmark
// record holds one.
func TestStepAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates per goroutine handoff; the pinned counts only hold in uninstrumented builds")
	}
	s := meltLike(t, 2, 5.64, 300, 31)
	var ticks atomic.Int64
	for _, pipeline := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("pipeline=%v/workers=%d", pipeline, workers), func(t *testing.T) {
				for _, skin := range []float64{0, 0.6} {
					for _, sink := range []*PhaseSink{nil, NewPhaseSink(func() int64 { return ticks.Add(1) })} {
						stepAllocs(t, s, pipeline, workers, skin, sink)
					}
				}
			})
		}
	}
}

// stepAllocs is one TestStepAllocs row.
func stepAllocs(t *testing.T, s *md.System, pipeline bool, workers int, skin float64, sink *PhaseSink) {
	cfg := CurrentMachineConfig(smallParams(s.L))
	cfg.Pipeline, cfg.Workers, cfg.Skin, cfg.Phases = pipeline, workers, skin, sink
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := m.Free(); err != nil {
			t.Fatal(err)
		}
	}()
	var f []vec.V
	step := func() {
		var err error
		if f, _, err = m.ForcesInto(s, f); err != nil {
			t.Fatal(err)
		}
	}
	for range 100 { // warm the arena, the dispatch records and the runtime's caches
		step()
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, step)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("skin %g, spine %v: %.0f allocs, %.1f B per call", skin, sink != nil, allocs, bytes)
	if allocs != 0 || bytes >= 8 {
		t.Errorf("skin %g, spine %v: %.0f allocs, %.1f B per call, want 0", skin, sink != nil, allocs, bytes)
	}
}
