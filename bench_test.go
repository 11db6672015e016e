// The two root-level benchmarks that have no twin elsewhere and that a
// document cites. Wall time is argued from `go run ./benchmark`; the kernel
// micro-benchmarks live beside their kernels (`make bench`).
package mdm_test

import (
	"path/filepath"
	"testing"

	"mdm"
	"mdm/internal/cellindex"
	"mdm/internal/ewald"
	"mdm/internal/md"
	"mdm/internal/vec"
)

// BenchmarkJournaledStep prices per-step durability at N = 64 (the served
// session's size): the bare step, then the write-ahead journal on the real
// filesystem at SyncEvery 1, 8 and 64. The run is one RunNVT call, so every
// journal fsync but the last overlaps the next step's force evaluation.
func BenchmarkJournaledStep(b *testing.B) {
	for _, lane := range []struct {
		name      string
		syncEvery int // 0 = no journal
	}{{"journal=off", 0}, {"SyncEvery=1", 1}, {"SyncEvery=8", 8}, {"SyncEvery=64", 64}} {
		b.Run(lane.name, func(b *testing.B) {
			cfg := mdm.Config{Cells: 2, Backend: mdm.BackendMDM, Workers: 1}
			if lane.syncEvery > 0 {
				cfg.Supervise.Journal = filepath.Join(b.TempDir(), "run.wal")
				cfg.Supervise.SyncEvery = lane.syncEvery
			}
			sim, err := mdm.NewSimulation(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = sim.Free() }()
			b.ReportAllocs()
			b.ResetTimer()
			if err := sim.RunNVT(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkRealSpaceGeometries is the §2.2 accounting ablation: the same
// real-space pair sum walked with the 27-cell no-third-law method (MDGRAPE-2,
// N_int_g) and with the half-sphere Newton's-third-law method (conventional,
// N_int ≈ N_int_g/13), on the 216-ion perturbed crystal mdmbench also runs.
func BenchmarkRealSpaceGeometries(b *testing.B) {
	sys, err := md.NewRockSalt(3, 5.64)
	if err != nil {
		b.Fatal(err)
	}
	for i := range sys.Pos {
		h := float64((int64(i)*2654435761)%1000)/1000.0 - 0.5
		sys.Pos[i] = sys.Pos[i].Add(vec.New(h, -h, h*0.5).Scale(0.4)).Wrap(sys.L)
	}
	p := ewald.ParamsForAlpha(sys.L, ewald.SReal/0.45)
	grid, err := cellindex.NewGrid(sys.L, p.RCut)
	if err != nil {
		b.Fatal(err)
	}
	sorted := cellindex.Sort(grid, sys.Pos)

	b.Run("cell27NoThirdLaw", func(b *testing.B) {
		b.ReportAllocs()
		count := 0
		for i := 0; i < b.N; i++ {
			sorted.ForEachOrderedPair(func(i, j int, rij vec.V) { count++ })
		}
		b.ReportMetric(float64(count)/float64(b.N)/float64(sys.N()), "pairs/particle")
	})
	b.Run("halfSphereThirdLaw", func(b *testing.B) {
		b.ReportAllocs()
		count := 0
		for i := 0; i < b.N; i++ {
			sorted.ForEachHalfPair(nil, func(i, j int, rij vec.V) { count++ })
		}
		b.ReportMetric(float64(count)/float64(b.N)/float64(sys.N()), "pairs/particle")
	})
}
