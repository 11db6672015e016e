package core

import (
	"fmt"
	"testing"

	"mdm/internal/fault"
	"mdm/internal/mpi"
	"mdm/internal/vec"
)

// TestEngineContract drives every implementation of Engine through the
// interface on one system at skin 0: the serial Machine, a ParallelRun session
// at 1, 2 and 8 real ranks beside one wavenumber rank, and Resilient over
// each. All of them return the serial machine's force and potential bits,
// return them again after InvalidateGeometry (which costs a rebuild, not a
// different answer), and survive a second Free.
func TestEngineContract(t *testing.T) {
	s := meltLike(t, 2, 5.64, 600, 41)
	cfg := CurrentMachineConfig(smallParams(s.L))
	want, wantPot, err := newTestMachine(t, cfg.Ewald).Forces(s)
	if err != nil {
		t.Fatal(err)
	}

	for _, nReal := range []int{0, 1, 2, 8} { // 0: no world, the serial Machine
		for _, resilient := range []bool{false, true} {
			t.Run(fmt.Sprintf("real%d/resilient=%v", nReal, resilient), func(t *testing.T) {
				if testing.Short() && nReal > 2 {
					t.Skip("large rank counts in -short mode")
				}
				must := func(e Engine, err error) Engine {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
					return e
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
				case nReal == 0:
					eng = must(NewResilient(cfg, RecoveryConfig{}))
				case !resilient:
					eng = must(NewParallelRun(world, cfg, nReal, 1))
				default:
					eng = must(NewResilientParallel(cfg, RecoveryConfig{}, world, nReal, 1))
				}

				check := func(when string) {
					t.Helper()
					got, pot, err := eng.Forces(s)
					if err != nil {
						t.Fatalf("%s: %v", when, err)
					}
					if pot != wantPot {
						t.Errorf("%s: potential %v, serial machine %v", when, pot, wantPot)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: particle %d: %v, serial machine %v", when, i, got[i], want[i])
						}
					}
				}
				check("first call")
				eng.InvalidateGeometry()
				check("after InvalidateGeometry")
				if rebuilds, reuses := eng.JSetStats(); rebuilds != 2 || reuses != 0 {
					t.Errorf("JSetStats = %d rebuilds, %d reuses; want 2, 0", rebuilds, reuses)
				}

				if err := eng.Free(); err != nil {
					t.Fatalf("Free: %v", err)
				}
				_ = eng.Free() // may report the boards are already released; must not panic
			})
		}
	}
}

// TestRestripeFloor pins the one re-stripe rule of the hardware path against
// the two it replaced: the serial machine refused to give up its last board,
// the parallel layout refused to drop below one board per process of the
// failing kind. The serial machine is the 1 + 1 layout, so both are
// "boards − 1 < processes refuses". A refused re-stripe leaves the engine in
// place and usable; a granted one rebuilds it over one board fewer.
func TestRestripeFloor(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 42)
	base := CurrentMachineConfig(smallParams(s.L))
	want, _, err := newTestMachine(t, base.Ewald).Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	fscale := vec.RMS(want)

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
					refuse := boards <= 1 // the serial engine's floor: its last board
					if lay.ranks > 0 {
						refuse = boards-1 < procs // the parallel engine's: fewer boards than processes
					}
					cfg := base
					switch site {
					case fault.WINE2:
						cfg.WineBoards = boards
					case fault.MDG2:
						cfg.MDGBoards = boards
					default:
						refuse = true
					}
					var world *mpi.World
					if lay.ranks > 0 {
						var err error
						if world, err = mpi.NewWorld(lay.ranks); err != nil {
							t.Fatal(err)
						}
					}
					h, err := newHardware(cfg, world, lay.nReal, lay.nWave)
					if err != nil {
						t.Fatal(err)
					}
					defer func() { _ = h.eng.Free() }()
					before, total := h.eng, h.cfg.WineBoards+h.cfg.MDGBoards

					ok, err := h.restripe(site)
					if err != nil {
						t.Fatal(err)
					}
					if ok == refuse {
						t.Fatalf("restripe granted = %v with %d boards for %d processes", ok, boards, procs)
					}
					after := h.cfg.WineBoards + h.cfg.MDGBoards
					if refuse && (h.eng != before || after != total) {
						t.Errorf("refused re-stripe touched the engine (boards %d → %d)", total, after)
					}
					if !refuse && (h.eng == before || after != total-1) {
						t.Errorf("granted re-stripe kept the engine or the count (boards %d → %d)", total, after)
					}

					// Striping is pure partitioning: either way the engine
					// still computes the serial forces (to rounding once a
					// wavenumber group reorders the structure-factor sum).
					got, _, err := h.forces(s, 0)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if d := got[i].Sub(want[i]).Norm() / fscale; d > 1e-9 {
							t.Fatalf("particle %d deviates by %g of RMS", i, d)
						}
					}
				})
			}
		}
	}
}
