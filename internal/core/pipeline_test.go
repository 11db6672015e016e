package core

import (
	"reflect"
	"runtime"
	"testing"

	"mdm/internal/fault"
	"mdm/internal/md"
)

// The concurrent force pipeline must be invisible in the numbers: with the
// same skin, pipeline on and off produce bit-identical trajectories at every
// worker width, because the force reduction order (Coulomb + BM + r⁻⁶ + r⁻⁸
// + wave) is fixed. The -race pass over this package exercises the
// WINE-2/MDGRAPE-2 overlap.

// nveTrajectory runs a 50-step NVE segment and returns every sampled record.
func nveTrajectory(t *testing.T, pipeline bool, workers int, skin float64) []md.Record {
	t.Helper()
	s := meltLike(t, 2, 5.64, 600, 17)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)
	cfg.Pipeline = pipeline
	cfg.Workers = workers
	cfg.Skin = skin
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Free() }()
	it, err := md.NewIntegrator(s, m, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &md.Recorder{}
	rec.Sample(it)
	if err := it.Run(50, func(int) error { rec.Sample(it); return nil }); err != nil {
		t.Fatal(err)
	}
	return rec.Records
}

func TestPipelineBitIdenticalNVE(t *testing.T) {
	for _, skin := range []float64{0, 0.6} {
		want := nveTrajectory(t, false, 1, skin)
		for _, workers := range []int{1, 2, 4, 8} {
			got := nveTrajectory(t, true, workers, skin)
			if len(got) != len(want) {
				t.Fatalf("skin=%g workers=%d: %d records vs %d", skin, workers, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("skin=%g workers=%d: record %d diverges: pipeline %+v vs serial %+v",
						skin, workers, k, got[k], want[k])
				}
			}
			// The off path at the same width must agree too.
			off := nveTrajectory(t, false, workers, skin)
			for k := range want {
				if off[k] != want[k] {
					t.Fatalf("skin=%g workers=%d: pipeline-off record %d diverges", skin, workers, k)
				}
			}
		}
	}
}

// TestSkinAmortizesRebuilds checks the Verlet-skin bound actually skips cell
// sorts on a quiet system, and that the skinned discretization still
// conserves energy (forces and potential walk the same widened pair set).
func TestSkinAmortizesRebuilds(t *testing.T) {
	s := meltLike(t, 2, 5.64, 80, 23)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)
	cfg.Pipeline = true
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

// pipelineChaos drives the recovery ladder with a board drop and a transient
// landing mid-overlap (both engines active when the fault fires).
func pipelineChaos(t *testing.T, workers int) ([]md.Record, RunReport) {
	t.Helper()
	s := meltLike(t, 2, 5.64, 300, 29)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)
	cfg.Pipeline = true
	cfg.Workers = workers
	cfg.WineBoards = 4
	in, err := fault.ParseInjector(
		"mdg:transient@call=7; wine2:board-drop@call=2,board=1; wine2:transient@call=9")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewResilient(cfg, RecoveryConfig{Injector: in})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Free() }()
	it, err := md.NewIntegrator(s, r, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &md.Recorder{}
	rec.Sample(it)
	if err := it.Run(8, func(int) error { rec.Sample(it); return nil }); err != nil {
		t.Fatal(err)
	}
	if in.Remaining() != 0 {
		t.Fatalf("%d scheduled faults never fired", in.Remaining())
	}
	return rec.Records, r.Report()
}

// TestPipelineChaosDeterministic pins the recovery audit trail under the
// overlapped pipeline: whichever goroutine observes the fault first, the
// fixed join order (real-space error wins, wavenumber second) makes the
// report and the trajectory reproducible at any width.
func TestPipelineChaosDeterministic(t *testing.T) {
	recs1, rep1 := pipelineChaos(t, 1)
	recs4, rep4 := pipelineChaos(t, 4)
	if !reflect.DeepEqual(rep1, rep4) {
		t.Errorf("chaos reports diverge:\nworkers=1: %+v\nworkers=4: %+v", rep1, rep4)
	}
	if rep1.Restripes == 0 {
		t.Errorf("board drop never re-striped: %+v", rep1)
	}
	if rep1.Retries == 0 {
		t.Errorf("transients never retried: %+v", rep1)
	}
	for k := range recs1 {
		if recs1[k] != recs4[k] {
			t.Fatalf("chaos record %d diverges: %+v vs %+v", k, recs4[k], recs1[k])
		}
	}
}

// stepAllocs returns the steady-state heap allocations and bytes of one
// Forces call (potential evaluated every call).
func stepAllocs(t *testing.T, pipeline bool) (allocs, bytes float64, n int) {
	t.Helper()
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates per goroutine handoff; the pinned counts only hold in uninstrumented builds")
	}
	s := meltLike(t, 2, 5.64, 300, 31)
	cfg := CurrentMachineConfig(smallParams(s.L))
	cfg.Pipeline = pipeline
	cfg.Skin = 0.6
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
	for i := 0; i < 3; i++ { // warm the arena
		step()
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, step)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call of its own.
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1), s.N()
}

// TestDefaultStepAllocs pins the default (Pipeline off) step: it allocates
// no more than the pipeline step less the goroutine launch, and in bytes
// little beyond the one force slice md.ForceField hands to the caller (the
// four-pass path allocated four of them plus a pass table every step).
func TestDefaultStepAllocs(t *testing.T) {
	allocs, bytes, n := stepAllocs(t, false)
	t.Logf("default step: %.1f allocs, %.0f B (N=%d)", allocs, bytes, n)
	if allocs > 10 {
		t.Errorf("steady-state default step does %.1f allocs, want ≤ 10", allocs)
	}
	if limit := float64(n*24 + 2048); bytes > limit {
		t.Errorf("steady-state default step allocates %.0f B, want ≤ %.0f (one %d-vector force slice + closures)", bytes, limit, n)
	}
}

// TestPipelineStepAllocs bounds the steady-state allocation count of the
// pipeline step. The per-step allocations that remain by design: the
// returned force slice (md.ForceField gives ownership to the caller), the
// wine goroutine + its closure, the pool.Run closures of the fused sweep and
// the sort, and the host-potential pair-walk closure. Everything else —
// sort scratch, j-set layout, quantized particle words, structure factors,
// coefficient caches, prefactor slices — is reused, which is what keeps the
// bound flat in n and step count.
func TestPipelineStepAllocs(t *testing.T) {
	if allocs, _, _ := stepAllocs(t, true); allocs > 12 {
		t.Errorf("steady-state pipeline step does %.1f allocs, want ≤ 12", allocs)
	}
}

// TestStepAllocsFlatAcrossWidths pins the fix for the per-width allocation
// growth of the parallel dispatch (BENCH_2: machineForces climbed from 11 to
// 144 allocs/op between widths 1 and 8, one shard list + error slice + capture
// struct per goroutine per dispatch): with dispatch records pooled, the
// steady-state force call must cost the same few allocations at every width.
func TestStepAllocsFlatAcrossWidths(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates per goroutine handoff; the pinned counts only hold in uninstrumented builds")
	}
	s := meltLike(t, 2, 5.64, 300, 31)
	p := smallParams(s.L)
	base := 0.0
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := CurrentMachineConfig(p)
		cfg.Pipeline = true
		cfg.Skin = 0.6
		cfg.Workers = workers
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the arena: grow the pooled dispatch records to this width.
		for i := 0; i < 5; i++ {
			if _, _, err := m.Forces(s); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, _, err := m.Forces(s); err != nil {
				t.Fatal(err)
			}
		})
		if workers == 1 {
			base = avg
		}
		t.Logf("workers=%d: %.1f allocs/op", workers, avg)
		if avg > base+4 {
			t.Errorf("workers=%d: %.1f allocs/op grew past width-1 baseline %.1f+4", workers, avg, base)
		}
		if avg > 16 {
			t.Errorf("workers=%d: %.1f allocs/op exceeds the flat budget of 16", workers, avg)
		}
		if err := m.Free(); err != nil {
			t.Fatal(err)
		}
	}
}
