package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"mdm/internal/cellindex"
	"mdm/internal/domain"
	"mdm/internal/ewald"
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
	before := world.StatsByTag()
	got, gotPot, err := pr.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	rebuildTag := subtractByTag(world.StatsByTag(), before)
	before = world.StatsByTag()
	if _, _, err := pr.Forces(s); err != nil { // unmoved: a reuse step
		t.Fatal(err)
	}
	reuseTag := subtractByTag(world.StatsByTag(), before)
	if rebuilds, reuses := pr.JSetStats(); rebuilds != 1 || reuses != 1 {
		t.Fatalf("JSetStats = (%d, %d), want (1, 1)", rebuilds, reuses)
	}
	requireStepTags(t, "rebuild", rebuildTag,
		[]int{TagHalo, TagMigrate, TagForces, TagGroupReduce}, []int{TagHalo, TagForces, TagGroupReduce})
	requireStepTags(t, "reuse", reuseTag,
		[]int{TagGhostPos, TagForces, TagGroupReduce}, []int{TagGhostPos, TagForces, TagGroupReduce})
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

// requireStepTags fails when one step's per-tag traffic delta holds a tag
// outside allowed, or nothing under a tag of required: every message of the
// decomposed step travels under one of the protocol tags of parallel.go.
func requireStepTags(t *testing.T, step string, delta map[int]mpi.Stats, allowed, required []int) {
	t.Helper()
	for tag, st := range delta {
		if !containsInt(allowed, tag) {
			t.Errorf("%s step sent %d messages (%d B) under %s, outside its protocol tags",
				step, st.Messages, st.Bytes, TagName(tag))
		}
	}
	for _, tag := range required {
		if delta[tag].Messages == 0 {
			t.Errorf("%s step sent nothing under %s", step, TagName(tag))
		}
	}
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
// wire, byte for byte. A rebuild step sends one halo record of four float64s
// (x, y, z, species) per ghost: 32 B. A reuse step streams only the ghost
// position planes, three float64s per ghost: 24 B, with no halo and no
// migration bytes — so reuse / rebuild is 3/4 exactly. The ghosts are
// counted here from the block geometry and the particles' cells, not read
// from the session. Cases: 64 ions on 4 ranks (a 2-cell grid, where the
// dilation wraps onto the block), and the 8- and 27-rank weak-scaling rungs
// (BENCH_4's traffic rows), every rank a 2×2×2 block with a 56-cell ghost
// shell.
func TestSessionReuseStreamsLessThanRebuild(t *testing.T) {
	const (
		haloBytesPerGhost  = 32 // 8·haloStride
		ghostBytesPerGhost = 24 // 8·3 position planes
	)
	// r_cut held at the 64-ion cutoff, as the weak-scaling rungs hold it: with
	// the 0.5 Å skin the grid has as many cells a side as the crystal.
	weakRung := func(l float64) ewald.Params {
		return ewald.ParamsForAlpha(l, ewald.SReal*l/smallParams(2*5.64).RCut)
	}
	for _, c := range []struct {
		cells, ranks int
		p            func(l float64) ewald.Params
	}{
		{2, 4, smallParams},
		{4, 8, weakRung},
		{6, 27, weakRung},
	} {
		t.Run(fmt.Sprintf("cells=%d/ranks=%d", c.cells, c.ranks), func(t *testing.T) {
			s := meltLike(t, c.cells, 5.64, 300, 34)
			p := c.p(s.L)
			cfg := CurrentMachineConfig(p)
			cfg.Skin = 0.5
			world, err := mpi.NewWorld(c.ranks + 1)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := NewParallelRun(world, cfg, c.ranks, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = pr.Free() }()

			// Every particle is sent once to each rank whose ghost shell
			// holds its cell.
			grid, err := cellindex.NewSkinGrid(p.L, p.RCut, cfg.Skin)
			if err != nil {
				t.Fatal(err)
			}
			blocks, err := domain.NewBlocks(grid.N, c.ranks)
			if err != nil {
				t.Fatal(err)
			}
			var ghosts int64
			for r := 0; r < c.ranks; r++ {
				shell := make(map[int]bool)
				for _, cell := range blocks.GhostCells(r) {
					shell[cell] = true
				}
				for _, pos := range s.Pos {
					if shell[grid.CellOf(pos)] {
						ghosts++
					}
				}
			}
			if ghosts == 0 {
				t.Fatal("geometry has no ghosts")
			}

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
			t.Logf("%d ghosts: rebuild halo %d B, reuse ghost-pos %d B", ghosts, rebuildTag[TagHalo].Bytes, reuseTag[TagGhostPos].Bytes)
			if got, want := rebuildTag[TagHalo].Bytes, haloBytesPerGhost*ghosts; got != want {
				t.Errorf("rebuild halo %d B, want %d B (%d per ghost)", got, want, haloBytesPerGhost)
			}
			if got, want := reuseTag[TagGhostPos].Bytes, ghostBytesPerGhost*ghosts; got != want {
				t.Errorf("reuse ghost stream %d B, want %d B (%d per ghost)", got, want, ghostBytesPerGhost)
			}
			requireStepTags(t, "rebuild", rebuildTag,
				[]int{TagHalo, TagMigrate, TagForces}, []int{TagHalo, TagForces})
			requireStepTags(t, "reuse", reuseTag,
				[]int{TagGhostPos, TagForces}, []int{TagGhostPos, TagForces})
			if res.Traffic.Bytes == 0 {
				t.Error("step reported no traffic")
			}
		})
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
// list, force plane and world resource is reused and only the md.ForceField
// output slice and the engine body's per-call allocations remain.
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
	// The engine body's own per-call allocations and the fresh output slice
	// (10 at both sizes); the world's endpoints, run group, FIFOs and
	// receive timers are reused, so its dispatch allocates nothing once warm.
	// The margin is for scheduler noise only.
	const budget = 12
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
		cfg.MDG.Clusters, cfg.MDG.BoardsPerCluster = 4, 1
		in := injector(t, scenario)
		r := newResilientT(t, cfg, RecoveryConfig{Injector: in}, testWorld(t, 3, time.Second), 2)
		drift := integrate(t, s, r, 60)
		if in != nil && in.Remaining() != 0 {
			t.Errorf("%d scheduled faults never fired", in.Remaining())
		}
		return drift, r.Report()
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

// TagName labels the parallel step's message tags for reports.
func TagName(tag int) string {
	switch tag {
	case TagHalo:
		return "halo"
	case TagForces:
		return "forces"
	case TagGroupReduce:
		return "group-reduce"
	case TagMigrate:
		return "migrate"
	case TagGhostPos:
		return "ghost-pos"
	default:
		return fmt.Sprintf("tag%d", tag)
	}
}
