package core

import (
	"math"
	"testing"
	"time"

	"mdm/internal/fault"
	"mdm/internal/md"
	"mdm/internal/mpi"
	"mdm/internal/vec"
)

// cloneSystem deep-copies a system so two integrators can evolve the same
// initial state independently.
func cloneSystem(s *md.System) *md.System {
	return &md.System{
		L:      s.L,
		Pos:    append([]vec.V(nil), s.Pos...),
		Vel:    append([]vec.V(nil), s.Vel...),
		Mass:   append([]float64(nil), s.Mass...),
		Charge: append([]float64(nil), s.Charge...),
		Type:   append([]int(nil), s.Type...),
	}
}

// TestSessionWaveGroupDriftParity covers the one summation-order freedom the
// layout has: several wavenumber ranks reduce the structure factor with an
// allreduce, which reorders float64 sums, so trajectories are not bit-pinned.
// The parity gate instead: single-step forces at float64 rounding level of
// the serial answer, and NVE drift within the serial machine's own tolerance.
func TestSessionWaveGroupDriftParity(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 32)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)
	cfg.Skin = 0.5
	world, err := mpi.NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewParallelRun(world, cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pr.Free() }()

	serial := newTestMachine(t, p)
	want, wantPot, err := serial.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	got, gotPot, err := pr.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	fscale := vec.RMS(want)
	for i := range want {
		if d := got[i].Sub(want[i]).Norm() / fscale; d > 1e-9 {
			t.Fatalf("particle %d deviates by %g of RMS", i, d)
		}
	}
	if math.Abs(gotPot-wantPot) > 1e-9*math.Abs(wantPot) {
		t.Errorf("potential %g, serial %g", gotPot, wantPot)
	}

	// Parity gate: the session's NVE drift must match the serial machine's
	// drift under the identical configuration (same skin, same step count) —
	// the allreduce may reorder sums, but it must not change the physics.
	serialSys := cloneSystem(s)
	ms, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ms.Free() }()
	itS, err := md.NewIntegrator(serialSys, ms, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	recS := &md.Recorder{}
	recS.Sample(itS)
	if err := itS.Run(30, func(step int) error { recS.Sample(itS); return nil }); err != nil {
		t.Fatal(err)
	}
	serialDrift := recS.EnergyDrift()

	it, err := md.NewIntegrator(s, pr, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &md.Recorder{}
	rec.Sample(it)
	if err := it.Run(30, func(step int) error { rec.Sample(it); return nil }); err != nil {
		t.Fatal(err)
	}
	drift := rec.EnergyDrift()
	t.Logf("NVE drift: serial %g, 2-rank wavenumber group %g", serialDrift, drift)
	if drift > 2*serialDrift+1e-6 {
		t.Errorf("parallel drift %g exceeds serial parity bound (serial %g)", drift, serialDrift)
	}
}

// TestSessionMigrationOnFaceCrossing pins the persistent-ownership contract:
// ownership only changes on a rebuild step, via migration of the particles
// that crossed a domain face — not by re-deriving the global partition.
func TestSessionMigrationOnFaceCrossing(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 33)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p) // skin 0: any movement rebuilds
	const nReal = 4
	world, err := mpi.NewWorld(nReal + 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewParallelRun(world, cfg, nReal, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pr.Free() }()
	if _, err := pr.Step(s); err != nil {
		t.Fatal(err)
	}

	// Pick a particle and teleport it into a cell owned by another rank.
	g := 0
	oldOwner := pr.blocks.Owner(pr.grid.CellOf(s.Pos[g]))
	newOwner := oldOwner
	for dst := 0; dst < nReal && newOwner == oldOwner; dst++ {
		if dst == oldOwner {
			continue
		}
		cells := pr.blocks.OwnedCells(dst)
		if len(cells) == 0 {
			continue
		}
		xlo, _, ylo, _, zlo, _ := pr.blocks.CellSpan(dst)
		side := s.L / float64(pr.grid.N)
		s.Pos[g] = vec.New((float64(xlo)+0.5)*side, (float64(ylo)+0.5)*side, (float64(zlo)+0.5)*side)
		newOwner = dst
	}
	if newOwner == oldOwner {
		t.Fatal("could not find a second non-empty block")
	}

	before := pr.world.StatsByTag()
	if _, err := pr.Step(s); err != nil {
		t.Fatal(err)
	}
	byTag := subtractByTag(pr.world.StatsByTag(), before)
	if byTag[TagMigrate].Bytes == 0 {
		t.Error("face crossing produced no migration traffic")
	}
	if !containsInt(pr.real[newOwner].owned, g) {
		t.Errorf("particle %d not owned by rank %d after crossing", g, newOwner)
	}
	if containsInt(pr.real[oldOwner].owned, g) {
		t.Errorf("particle %d still owned by rank %d after crossing", g, oldOwner)
	}
	if rebuilds, _ := pr.JSetStats(); rebuilds != 2 {
		t.Errorf("rebuilds = %d, want 2", rebuilds)
	}

	// The post-migration forces must still be the serial machine's, bitwise.
	res, err := pr.Step(s)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Free() }()
	want, _, err := m.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Forces[i] != want[i] {
			t.Fatalf("particle %d: post-migration force %v != serial %v", i, res.Forces[i], want[i])
		}
	}
}

// subtractByTag returns after − before per tag, dropping zero rows.
func subtractByTag(after, before map[int]mpi.Stats) map[int]mpi.Stats {
	out := make(map[int]mpi.Stats, len(after))
	for tag, a := range after {
		b := before[tag]
		d := mpi.Stats{Messages: a.Messages - b.Messages, Bytes: a.Bytes - b.Bytes}
		if d.Messages != 0 || d.Bytes != 0 {
			out[tag] = d
		}
	}
	return out
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// TestSessionReuseStreamsLessThanRebuild pins the skin amortization on the
// wire: a reuse step moves only ghost position planes (3 floats/ghost, tag
// ghost-pos) and no halo or migration records, so its halo-path byte count
// must be strictly below the rebuild step's stride-5 exchange.
func TestSessionReuseStreamsLessThanRebuild(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 34)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)
	cfg.Skin = 0.5
	world, err := mpi.NewWorld(5)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewParallelRun(world, cfg, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pr.Free() }()

	before := world.StatsByTag()
	if _, err := pr.Step(s); err != nil { // init: scan + full halo exchange
		t.Fatal(err)
	}
	rebuildTag := subtractByTag(world.StatsByTag(), before)

	// Nudge every particle well below the skin/2 rebuild threshold.
	for i := range s.Pos {
		s.Pos[i] = s.Pos[i].Add(vec.New(1e-3, -1e-3, 1e-3)).Wrap(s.L)
	}
	before = world.StatsByTag()
	res, err := pr.Step(s)
	if err != nil {
		t.Fatal(err)
	}
	reuseTag := subtractByTag(world.StatsByTag(), before)

	if rebuilds, reuses := pr.JSetStats(); rebuilds != 1 || reuses != 1 {
		t.Fatalf("JSetStats = (%d, %d), want (1, 1)", rebuilds, reuses)
	}
	if rebuildTag[TagHalo].Bytes == 0 {
		t.Error("rebuild step sent no halo records")
	}
	if reuseTag[TagHalo].Bytes != 0 || reuseTag[TagMigrate].Bytes != 0 {
		t.Errorf("reuse step sent rebuild traffic: halo %d bytes, migrate %d bytes",
			reuseTag[TagHalo].Bytes, reuseTag[TagMigrate].Bytes)
	}
	if reuseTag[TagGhostPos].Bytes == 0 {
		t.Error("reuse step streamed no ghost positions")
	}
	if reuseTag[TagGhostPos].Bytes >= rebuildTag[TagHalo].Bytes {
		t.Errorf("reuse ghost stream %d bytes not below rebuild halo %d bytes",
			reuseTag[TagGhostPos].Bytes, rebuildTag[TagHalo].Bytes)
	}
	if res.Traffic.Bytes == 0 {
		t.Error("step reported no traffic")
	}
}

// TestSessionRanksShareKernelTables: the four kernels are universal functions
// of x, so a decomposed engine fits them once and every real-space rank's
// session holds the same immutable image; the ranks then evaluate through it
// concurrently (Step below, clean under -race in `make race`).
func TestSessionRanksShareKernelTables(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 34)
	cfg := CurrentMachineConfig(smallParams(s.L))
	world, err := mpi.NewWorld(5)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewParallelRun(world, cfg, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pr.Free() }()
	for _, k := range forceTables {
		first, err := pr.real[0].mr1.System().Table(k.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rr := range pr.real[1:] {
			if tab, err := rr.mr1.System().Table(k.name); err != nil || tab != first {
				t.Errorf("rank %d holds its own %q table (%p vs rank 0's %p, err %v)", rr.rank, k.name, tab, first, err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := pr.Step(s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionSteadyStateAllocs pins the hoisted halo-path scratch: once the
// session is warm, a reuse step's allocation count is a small constant —
// independent of the particle count — because every exchange buffer, index
// list, and force plane is reused and only the md.ForceField output slice
// (plus the run dispatch itself) allocates.
func TestSessionSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates per goroutine handoff; the pinned counts only hold in uninstrumented builds")
	}
	measure := func(cells int) float64 {
		s := meltLike(t, cells, 5.64, 300, 35)
		p := smallParams(s.L)
		cfg := CurrentMachineConfig(p)
		cfg.Skin = 0.5
		world, err := mpi.NewWorld(3)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := NewParallelRun(world, cfg, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = pr.Free() }()
		// Warm every buffer: init step plus two steady-state steps.
		for i := 0; i < 3; i++ {
			if _, err := pr.Step(s); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := pr.Step(s); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(2) // 64 ions
	large := measure(3) // 216 ions
	t.Logf("steady-state allocs/step: %.0f at 64 ions, %.0f at 216 ions", small, large)
	// One fresh output slice, the world.Run dispatch (per-rank goroutines),
	// and message envelopes; everything else is hoisted into session scratch.
	// The bound is loose enough for scheduler noise but far below any
	// per-particle regime.
	const budget = 40
	if small > budget || large > budget {
		t.Errorf("steady-state allocs/step = %.0f / %.0f, budget %d", small, large, budget)
	}
	// Independence of N: 3.4× the particles must not grow the step's
	// allocation count beyond noise.
	if large > small+8 {
		t.Errorf("allocs grew with particle count: %.0f at 64 ions vs %.0f at 216", small, large)
	}
}

// TestSessionChaosBoardDropOnDomainRank drives the recovery ladder through a
// board dropout on a *domain* rank mid-run: the re-stripe frees the whole
// rank session, rebuilds it over the surviving boards, and the next step
// re-derives ownership from scratch — the trajectory completes with the
// clean-run NVE tolerance.
func TestSessionChaosBoardDropOnDomainRank(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos integration in -short mode")
	}
	run := func(scenario string) (float64, RunReport) {
		s := meltLike(t, 2, 5.64, 300, 36)
		p := smallParams(s.L)
		cfg := CurrentMachineConfig(p)
		cfg.Skin = 0.5
		cfg.MDGBoards = 4
		rc := RecoveryConfig{}
		if scenario != "" {
			in, err := fault.ParseInjector(scenario)
			if err != nil {
				t.Fatal(err)
			}
			rc.Injector = in
		}
		world, err := mpi.NewWorld(3)
		if err != nil {
			t.Fatal(err)
		}
		world.SetTimeout(time.Second)
		r, err := NewResilientParallel(cfg, rc, world, 2, 1)
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
		if err := it.Run(60, func(step int) error { rec.Sample(it); return nil }); err != nil {
			t.Fatal(err)
		}
		if rc.Injector != nil && rc.Injector.Remaining() != 0 {
			t.Errorf("%d scheduled faults never fired", rc.Injector.Remaining())
		}
		return rec.EnergyDrift(), r.Report()
	}
	cleanDrift, cleanRep := run("")
	chaosDrift, chaosRep := run("mdg:board-drop@step=30,board=1")
	t.Logf("drift: clean %g, board drop %g", cleanDrift, chaosDrift)
	if cleanRep.Retries != 0 || cleanRep.Restripes != 0 {
		t.Errorf("fault-free run recovered from something: %+v", cleanRep)
	}
	if chaosRep.Restripes != 1 || chaosRep.MDGBoardsLost != 1 {
		t.Errorf("report = %+v, want one MDG re-stripe", chaosRep)
	}
	if chaosRep.Fallback || chaosRep.FallbackSteps != 0 {
		t.Errorf("board drop degraded to the host path: %+v", chaosRep)
	}
	// Parity gate: the re-striped trajectory is still the decomposed path
	// (striping is pure partitioning), so its drift matches the clean run's.
	if chaosDrift > 2*cleanDrift+1e-6 {
		t.Errorf("drift through the board drop %g exceeds clean parity bound (clean %g)", chaosDrift, cleanDrift)
	}
}
