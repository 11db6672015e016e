package main

import (
	"mdm"
	"mdm/internal/serve"
)

// workload is one named input set. The MD workloads run 8·Cells³ ions
// through mdm.NewSimulation/RunNVT/RunNVE; the served workload submits
// sessions to an in-process serve.Manager. Inputs are a pure function of the
// seed: it becomes Config.Seed (the Maxwell–Boltzmann velocity draw) or the
// base of the per-session JobSpec.Seed.
type workload struct {
	name string
	why  string

	cfg    mdm.Config // MD workloads; Seed is filled from the -seed flag
	served bool       // serve_durable_n64: sessions instead of steps

	// elasticity is the measured slope of log(operation time) against
	// log(calibration spin time) for this workload on the reference sandbox:
	// the Theil–Sen fit over runs (one point per run: its median operation
	// and median spin) that between them saw the quiet and the contended
	// machine; -selfcheck refits and prints it. calFactor uses it. The fit is
	// across runs, not across the blocks of one run: two 1 ms spins are a
	// noisy reading of the machine state during a 20–300 ms operation, and
	// that noise attenuates a within-run slope (0.45–0.75 where the
	// across-run slope is 0.7–0.9).
	elasticity float64
	cores      int // cores the workload computes on: the calibration spin reads as many

	warm int // untimed NVT warm-up steps (served: warm-up sessions)
	// block is the number of consecutive timed operations whose mean is one
	// block value; step_cal_ms and alloc_bytes_per_step are medians over
	// blocks. A block exists to hold one period of a deterministic mix of
	// cheap and expensive steps. With no skin there is no such mix — every
	// step rebuilds its j-set — so the blocks are short: on the recorded
	// same-code runs the spread of the median grew with the block length
	// (default_n512: 1.8 % at 1, 3.5 % at 3), and a block must be shorter
	// than the gap between the decomposed workload's migration steps for the
	// allocation median to read the ordinary step.
	block  int
	fixed  int // blocks of the fixed portion: counts, hash, live heap, the guard checks
	replay int // traced run: replay the layers after every replay-th operation
}

// Served-workload shape: closed loop, one client, one session at a time.
const (
	servedCells = 2
	servedSteps = 64
	setupSteps  = 8 // the first session of the cold set-up measurement
	burstSize   = 4 // traced run only: sessions submitted at once for queue wait
	servedSolo  = 6 // fixed-portion sessions re-run solo for the Records check
)

// workloads is the benchmark's input set. Each stresses a different layer,
// so that a gain claimed for one layer has a workload that exercises it and
// one that bypasses it (see README.md for the measured layer shares).
//
// No workload sets Config.Skin. The accuracy check of this benchmark found
// that the Verlet-skin reuse path returns wrong forces (5–29 % RMS against
// the reference Ewald, where a rebuild step reads 0.2 %) on every reuse step
// after a particle has crossed the periodic boundary: the refreshed
// coordinate is wrapped into the box while the particle keeps its old cell
// and that cell's image shift. A workload must be one on which the program is
// correct, so the skin stays out until that is fixed.
var workloads = []workload{
	{
		name: "default_n512",
		why:  "what mdmsim -cells 4 gives a user: host potential every step plus the four-pass MDGRAPE-2 sweep carry the step",
		cfg:  mdm.Config{Cells: 4, Workers: 1},
		warm: 20, elasticity: 0.78, cores: 1,
		block: 1, fixed: 24, replay: 6,
	},
	{
		name: "wave_n512",
		why:  "alpha=14 pushes the Ewald split to wavenumber space: WINE-2 DFT+IDFT carry the step, the sweep is a few percent",
		cfg:  mdm.Config{Cells: 4, Alpha: 14, PotentialEvery: 100, Workers: 1},
		warm: 20, elasticity: 0.75, cores: 1,
		block: 1, fixed: 40, replay: 10,
	},
	{
		name: "overlap_n512",
		why:  "pipeline path: fused sweep, wave pass on its own goroutine, pool width 2; the only two-core workload, where only the longer arm blocks",
		cfg:  mdm.Config{Cells: 4, Alpha: 9, Pipeline: true, Workers: 2, PotentialEvery: 100},
		warm: 50, elasticity: 0.88, cores: 2,
		block: 4, fixed: 40, replay: 40,
	},
	{
		name: "decomp_r2_n512",
		why:  "two-rank spatial decomposition session: halo exchange, migration, force gather and mpi traffic on wall clock",
		cfg:  mdm.Config{Cells: 4, Ranks: 2, WaveRanks: 1, PotentialEvery: 100},
		warm: 60, elasticity: 0.88, cores: 2,
		block: 2, fixed: 52, replay: 26,
	},
	{
		name:   "serve_durable_n64",
		why:    "closed loop of 64-step N=64 sessions through serve on the real filesystem: journal fsync, checkpoint and admission beside a small compute path",
		served: true,
		warm:   2, elasticity: 0.88, cores: 2,
		block: 1, fixed: 12, replay: 4,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// quick shrinks a workload to the smoke size: 2 blocks of 2 steps (2
// sessions), one warm-up operation, one replay, 216 ions instead of 512. It
// exercises every code path of the harness on the workloads' own force paths
// and parameters, not their cost.
func (w workload) quick() workload {
	w.warm, w.fixed, w.replay = 1, 2, 2
	if !w.served {
		w.block, w.replay = 2, 4
		if w.cfg.Alpha < 14 {
			// α = 14 needs the 512-ion box: in the 216-ion one its force
			// error is 7 %, over the guard.
			w.cfg.Cells = 3
		}
	}
	return w
}

// simConfig is the MD workload's configuration for a seed.
func (w workload) simConfig(seed int64) mdm.Config {
	cfg := w.cfg
	cfg.Seed = seed
	return cfg
}

// jobSpec is the i-th served session's request for a seed. Sessions get
// distinct velocity seeds, like independent jobs of one tenant.
func jobSpec(seed int64, i, steps int) serve.JobSpec {
	return serve.JobSpec{
		Tenant: "bench",
		Cells:  servedCells,
		Steps:  steps,
		Seed:   seed*100000 + int64(i) + 1,
	}
}

// soloConfig is the mdm.Config a served session of spec resolves to inside
// serve (WorkerBudget 1 / Executors 1 → Workers 1), minus the journal.
func soloConfig(spec serve.JobSpec) mdm.Config {
	return mdm.Config{Cells: spec.Cells, Seed: spec.Seed, Workers: 1}
}
