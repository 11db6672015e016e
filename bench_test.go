// Top-level benchmark harness: one benchmark (or group) per table and figure
// of the paper, plus the ablation comparisons DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem .
//
// The tables themselves are printed by cmd/mdmtables and cmd/mdmfigure2; the
// benchmarks here time the code paths that regenerate them and the simulated
// machine against its float64 baseline.
package mdm_test

import (
	"math"
	"path/filepath"
	"testing"

	"mdm"
	"mdm/internal/cellindex"
	"mdm/internal/core"
	"mdm/internal/ewald"
	"mdm/internal/host"
	"mdm/internal/md"
	"mdm/internal/parallelize"
	"mdm/internal/perf"
	"mdm/internal/pme"
	"mdm/internal/treecode"
	"mdm/internal/vec"
	"mdm/internal/wine2"
)

// BenchmarkTable1Inventory regenerates the Table 1 component list.
func BenchmarkTable1Inventory(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(host.Inventory()) != 8 {
			b.Fatal("inventory broken")
		}
	}
}

// BenchmarkTable4Model regenerates the full Table 4 accounting at the
// paper's N = 1.88e7, including the per-machine α optimization and the
// component timing model.
func BenchmarkTable4Model(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cols, err := mdm.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if math.Abs(cols[0].EffTflops-1.34) > 0.2 {
			b.Fatalf("effective speed drifted: %g", cols[0].EffTflops)
		}
	}
}

// BenchmarkTable5Model regenerates Table 5.
func BenchmarkTable5Model(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(mdm.Table5()) != 6 {
			b.Fatal("table 5 broken")
		}
	}
}

// BenchmarkFigure2Step times one full MD step (the unit of Figure 2's
// 3,000-step runs) on the simulated MDM at increasing system sizes, the
// scaled version of the paper's N sweep.
func BenchmarkFigure2Step(b *testing.B) {
	for _, cells := range []int{2, 3} {
		b.Run(sizeName(cells), func(b *testing.B) {
			sim, err := mdm.NewSimulation(mdm.Config{
				Cells:          cells,
				Temperature:    1200,
				Backend:        mdm.BackendMDM,
				PotentialEvery: 100,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = sim.Free() }()
			b.ReportAllocs()
			b.ResetTimer()
			if err := sim.RunNVE(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func sizeName(cells int) string {
	n := 8 * cells * cells * cells
	return "N=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkStepMDMvsReference is the machine-vs-baseline ablation: the same
// MD step evaluated by the simulated hardware and by the float64
// conventional path.
func BenchmarkStepMDMvsReference(b *testing.B) {
	for _, backend := range []mdm.Backend{mdm.BackendMDM, mdm.BackendReference} {
		b.Run(backend.String(), func(b *testing.B) {
			sim, err := mdm.NewSimulation(mdm.Config{
				Cells:          2,
				Temperature:    1200,
				Backend:        backend,
				PotentialEvery: 100,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = sim.Free() }()
			b.ReportAllocs()
			b.ResetTimer()
			if err := sim.RunNVE(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

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

// benchSystem builds a 216-ion perturbed crystal shared by the backend
// micro-benchmarks.
func benchSystem(b *testing.B) (*md.System, ewald.Params) {
	b.Helper()
	sys, err := md.NewRockSalt(3, 5.64)
	if err != nil {
		b.Fatal(err)
	}
	for i := range sys.Pos {
		h := float64((i*2654435761)%1000)/1000.0 - 0.5
		sys.Pos[i] = sys.Pos[i].Add(vec.New(h, -h, h*0.5).Scale(0.4)).Wrap(sys.L)
	}
	alpha := ewald.SReal / 0.45
	p := ewald.ParamsForAlpha(sys.L, alpha)
	return sys, p
}

// BenchmarkWavenumberEngines compares the three wavenumber-space engines of
// §6.3 on identical input: the float64 direct sum (what a conventional CPU
// does), the WINE-2 fixed-point pipelines, and smooth particle-mesh Ewald.
func BenchmarkWavenumberEngines(b *testing.B) {
	sys, p := benchSystem(b)
	waves := ewald.Waves(p)

	b.Run("directFloat64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sn, cn := ewald.StructureFactors(waves, sys.Pos, sys.Charge)
			ewald.WavenumberForces(p, waves, sn, cn, sys.Pos, sys.Charge)
		}
	})
	b.Run("wine2Pipelines", func(b *testing.B) {
		w, err := wine2.NewSystem(wine2.CurrentConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sn, cn, err := w.DFT(sys.L, waves, sys.Pos, sys.Charge)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := w.IDFT(sys.L, waves, sn, cn, sys.Pos, sys.Charge); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pme", func(b *testing.B) {
		m, err := pme.ParamsFor(p, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Compute(sys.Pos, sys.Charge); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRealSpaceGeometries is the §2.2 accounting ablation: the same
// real-space pair sum walked with the 27-cell no-third-law method (MDGRAPE-2,
// N_int_g) and with the half-sphere Newton's-third-law method (conventional,
// N_int ≈ N_int_g/13).
func BenchmarkRealSpaceGeometries(b *testing.B) {
	sys, p := benchSystem(b)
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
			sorted.ForEachHalfPair(p.RCut, func(i, j int, rij vec.V) { count++ })
		}
		b.ReportMetric(float64(count)/float64(b.N)/float64(sys.N()), "pairs/particle")
	})
}

// BenchmarkTreeVsDirect is the §6.3 tree-code comparison on the
// open-boundary problem.
func BenchmarkTreeVsDirect(b *testing.B) {
	sys, _ := benchSystem(b)
	b.Run("barnesHut0.5", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr, err := treecode.Build(sys.Pos, sys.Charge, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			tr.Forces()
		}
	})
	b.Run("directN2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			treecode.Direct(sys.Pos, sys.Charge)
		}
	})
}

// BenchmarkMachineForces times a full force evaluation (4 MDGRAPE-2 passes +
// WINE-2 DFT/IDFT + host bookkeeping) against the reference.
func BenchmarkMachineForces(b *testing.B) {
	sys, p := benchSystem(b)
	b.Run("machine", func(b *testing.B) {
		m, err := core.NewMachine(core.CurrentMachineConfig(p))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := m.Forces(sys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		ref, err := core.NewReference(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := ref.Forces(sys); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelScaling is the intra-board parallelism table: the full
// machine force evaluation and the WINE-2 DFT/IDFT pair at pool widths 1, 2,
// 4, 8. Every width computes bit-identical results (see parallel_test.go);
// wall-clock scaling beyond width 1 needs GOMAXPROCS > 1 — on a single-core
// host all widths collapse to the serial path plus negligible pool overhead.
func BenchmarkParallelScaling(b *testing.B) {
	sys, p := benchSystem(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("machineForces/workers="+itoa(workers), func(b *testing.B) {
			cfg := core.CurrentMachineConfig(p)
			cfg.Workers = workers
			m, err := core.NewMachine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.Forces(sys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	waves := ewald.Waves(p)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("wine2DFTIDFT/workers="+itoa(workers), func(b *testing.B) {
			w, err := wine2.NewSystem(wine2.CurrentConfig())
			if err != nil {
				b.Fatal(err)
			}
			w.SetPool(parallelize.New(workers))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sn, cn, err := w.DFT(sys.L, waves, sys.Pos, sys.Charge)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := w.IDFT(sys.L, waves, sn, cn, sys.Pos, sys.Charge); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlphaOptimizer times the Table 4 α optimization (the closed-form
// balance of §2 / §5).
func BenchmarkAlphaOptimizer(b *testing.B) {
	b.ReportAllocs()
	density := float64(perf.PaperN) / (perf.PaperL * perf.PaperL * perf.PaperL)
	m := perf.CurrentMDM().CostModel()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = m.OptimalAlpha(perf.PaperL, density)
	}
	_ = sink
}
