package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"mdm/internal/fault"
	"mdm/internal/md"
	"mdm/internal/mpi"
	"mdm/internal/vec"
)

// engineRow is a two-call sequence TestEngineContract drives every engine
// through.
type engineRow struct {
	name             string
	skin             float64
	every            int                          // PotentialEvery
	between          func(e Engine, s *md.System) // what happens between the calls
	rebuilds, reuses int                          // JSetStats after both
	held             bool                         // the second call reports the first call's potential
}

// engineContractRows: between the calls, an InvalidateGeometry at skin 0 (a
// rebuild, not a different answer); a move below the skin at skin 0.5 (the
// second call reuses the layout); and, at PotentialEvery 3, a move plus a
// SetStep onto a non-multiple of 3 (the second call reports the value the
// first evaluated) or onto a multiple (it evaluates afresh, whatever the
// engine's own call count says).
var engineContractRows = []engineRow{
	{"skin0", 0, 1, func(e Engine, _ *md.System) { e.InvalidateGeometry() }, 2, 0, true},
	{"skin0.5", 0.5, 1, func(_ Engine, s *md.System) { nudge(s) }, 1, 1, false},
	{"every3_held", 0, 3, func(e Engine, s *md.System) { nudge(s); e.SetStep(4) }, 2, 0, true},
	{"every3_due", 0, 3, func(e Engine, s *md.System) { nudge(s); e.SetStep(3) }, 2, 0, false},
}

// nudge moves every particle by 1.7·10⁻³ Å, far inside skin/2 at skin 0.5.
func nudge(s *md.System) {
	for i := range s.Pos {
		s.Pos[i] = s.Pos[i].Add(vec.New(1e-3, -1e-3, 1e-3)).Wrap(s.L)
	}
}

// TestEngineContract drives every implementation of Engine through the
// interface: the serial Machine, a ParallelRun session at 1, 2 and 8 real
// ranks beside one wavenumber rank, and Resilient over each. On every row of
// engineContractRows all of them return the serial machine's force and
// potential bits on both calls and its JSetStats, and survive a second Free.
// The rows pin the two paths the engines share — the skin clock's reuse and
// the potential cadence — through the interface.
func TestEngineContract(t *testing.T) {
	s0 := meltLike(t, 2, 5.64, 600, 41)
	for _, nReal := range []int{0, 1, 2, 8} { // 0: no world, the serial Machine
		for _, resilient := range []bool{false, true} {
			t.Run(fmt.Sprintf("real%d/resilient=%v", nReal, resilient), func(t *testing.T) {
				if testing.Short() && nReal > 2 {
					t.Skip("large rank counts in -short mode")
				}
				for _, row := range engineContractRows {
					t.Run(row.name, func(t *testing.T) { engineContract(t, s0, nReal, resilient, row) })
				}
			})
		}
	}
}

func engineContract(t *testing.T, s0 *md.System, nReal int, resilient bool, row engineRow) {
	cfg := CurrentMachineConfig(smallParams(s0.L))
	cfg.Skin, cfg.PotentialEvery = row.skin, row.every
	must := func(e Engine, err error) Engine {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// The serial machine's two calls are the bits every engine must return.
	serial, s := must(NewMachine(cfg)), cloneSystem(s0)
	defer func() { _ = serial.Free() }()
	var want [2][]vec.V
	var wantPot [2]float64
	for call := range want {
		if call == 1 {
			row.between(serial, s)
		}
		var err error
		if want[call], wantPot[call], err = serial.Forces(s); err != nil {
			t.Fatal(err)
		}
	}
	if held := wantPot[1] == wantPot[0]; held != row.held {
		t.Fatalf("serial machine: second potential held = %v, want %v (%v then %v)", held, row.held, wantPot[0], wantPot[1])
	}

	var world *mpi.World
	if nReal > 0 {
		var err error
		if world, err = mpi.NewWorld(nReal + 1); err != nil {
			t.Fatal(err)
		}
	}
	var eng Engine
	switch {
	case nReal == 0 && !resilient:
		eng = must(NewMachine(cfg))
	case !resilient:
		eng = must(NewParallelRun(world, cfg, nReal, 1))
	default:
		eng = must(NewResilient(cfg, RecoveryConfig{}, world, nReal, 1))
	}
	s = cloneSystem(s0)
	for call := range want {
		if call == 1 {
			row.between(eng, s)
		}
		got, pot, err := eng.Forces(s)
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		if pot != wantPot[call] {
			t.Errorf("call %d: potential %v, serial machine %v", call, pot, wantPot[call])
		}
		for i := range got {
			if got[i] != want[call][i] {
				t.Fatalf("call %d: particle %d: %v, serial machine %v", call, i, got[i], want[call][i])
			}
		}
	}
	if r, u := eng.JSetStats(); r != row.rebuilds || u != row.reuses {
		t.Errorf("JSetStats = %d rebuilds, %d reuses; want %d, %d", r, u, row.rebuilds, row.reuses)
	}

	if err := eng.Free(); err != nil {
		t.Fatalf("Free: %v", err)
	}
	_ = eng.Free() // may report the boards are already released; must not panic
}

// BenchmarkEngineStep runs one integrator step through the serial engine —
// the 1 + 1 session on its private world — at one worker, N = 64 and 512.
// Its B/op and allocs/op are what a serial step costs. Its ns/op at -cpu 1
// is no verdict on a change: the serial sweep's speed moves by about 3 %
// with where the caller's stack frame sits (CHANGES.md records the probes
// on ComputeForcesFusedInto), so time is judged by the repo benchmark.
//
//	go test -run '^$' -bench EngineStep -benchtime 200x ./internal/core
func BenchmarkEngineStep(b *testing.B) {
	for _, cells := range []int{2, 4} {
		b.Run(fmt.Sprintf("N=%d", 8*cells*cells*cells), func(b *testing.B) {
			s, err := md.NewRockSalt(cells, 5.64)
			if err != nil {
				b.Fatal(err)
			}
			s.SetMaxwellVelocities(1200, 1)
			cfg := CurrentMachineConfig(smallParams(s.L))
			cfg.Workers = 1
			m, err := NewMachine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = m.Free() }()
			it, err := md.NewIntegrator(s, m, 2.0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := it.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRestripeFloor pins the one re-stripe rule: a drop that would leave
// fewer boards than processes of the failing kind is refused — for the
// serial machine, the 1 + 1 layout, its last board. A refused re-stripe
// touches nothing; under the recovery layer the run degrades to the host
// path. A granted one, driven by an injected board drop on a reuse step at
// skin 0.5, keeps the engine and its layout and takes one board off the
// site's count: the retried call at the same positions returns the bits of
// the call before it.
func TestRestripeFloor(t *testing.T) {
	s0 := meltLike(t, 2, 5.64, 300, 42)
	base := CurrentMachineConfig(smallParams(s0.L))
	base.Skin = 0.5

	for _, lay := range []struct{ nReal, nWave, ranks int }{{1, 1, 0}, {2, 1, 3}, {4, 2, 6}} { // ranks 0: no world, the serial Machine
		for _, site := range []fault.Site{fault.WINE2, fault.MDG2, fault.MPI} {
			procs := lay.nWave
			if site == fault.MDG2 {
				procs = lay.nReal
			}
			for _, boards := range []int{procs, procs + 1, procs + 3} {
				if site == fault.MPI && boards != procs {
					continue // not a board site: one case per layout is enough
				}
				t.Run(fmt.Sprintf("ranks%d/%s/boards%d", lay.ranks, site, boards), func(t *testing.T) {
					refuse := site == fault.MPI || boards-1 < procs
					cfg := base
					var rc RecoveryConfig
					switch site {
					case fault.WINE2:
						cfg.Wine.Clusters, cfg.Wine.BoardsPerCluster = boards, 1
					case fault.MDG2:
						cfg.MDG.Clusters, cfg.MDG.BoardsPerCluster = boards, 1
					}
					if site != fault.MPI {
						rc.Injector = injector(t, fmt.Sprintf("%s:board-drop@step=3,board=0", site))
					}
					var world *mpi.World
					if lay.ranks > 0 {
						world = testWorld(t, lay.ranks, 5*time.Second)
					}
					r, err := NewResilient(cfg, rc, world, lay.nReal, lay.nWave)
					if err != nil {
						t.Fatal(err)
					}
					defer func() { _ = r.Free() }()
					count := func() int {
						b := baseOf(r.eng)
						return b.wineBoards + b.mdgBoards
					}

					s := cloneSystem(s0)
					firstForces(t, r, s)
					// 0.17 Å, inside skin/2: the second call reuses the layout
					// some particles have left the cells of.
					for i := range s.Pos {
						s.Pos[i] = s.Pos[i].Add(vec.New(0.1, 0.1, 0.1)).Wrap(s.L)
					}
					before := firstForces(t, r, s)
					eng, total := r.eng, count()

					var after []vec.V
					if site == fault.MPI {
						if ok, err := r.eng.restripe(site); ok || err != nil {
							t.Fatalf("restripe of a non-board site = %v, %v", ok, err)
						}
					} else if after = firstForces(t, r, s); r.Report().Fallback != refuse {
						t.Fatalf("fallback = %v with %d boards for %d processes: %+v", !refuse, boards, procs, r.Report())
					}
					if r.eng != eng {
						t.Fatal("the re-stripe replaced the engine")
					}
					want := total
					if !refuse {
						want--
					}
					if count() != want {
						t.Errorf("boards %d → %d, want %d", total, count(), want)
					}
					if refuse { // the host path served; the engine is as it was (its failed Step drained its world)
						var err error
						if after, _, err = r.eng.Forces(s); err != nil {
							t.Fatal(err)
						}
					}
					if !slices.Equal(after, before) {
						t.Error("forces at the same positions moved across the re-stripe")
					}
					if rebuilds, _ := r.JSetStats(); rebuilds != 1 {
						t.Errorf("the layout was sorted %d times, want once", rebuilds)
					}
				})
			}
		}
	}
}

// baseOf is the engine body of a session.
func baseOf(e Engine) *engineBase { return &e.(*ParallelRun).engineBase }
