// Command mdmbench measures the intra-board parallelism of the simulated
// MDM: the hot paths that package parallelize stripes across host cores are
// timed at pool widths 1, 2, 4 and 8 and reported as JSON with per-width
// speedups over the serial path.
//
//	mdmbench -o BENCH_0.json            # record a benchmark artifact
//	mdmbench -smoke                     # CI gate: parallel must not lose to serial
//
// Every width computes bit-identical physics (the parallel_test.go contract),
// so the JSON is purely a wall-clock document. Speedups beyond 1× require
// GOMAXPROCS > 1; the artifact records gomaxprocs so a single-core record is
// recognizable as a serial baseline rather than a failed optimization.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"mdm/internal/cellindex"
	"mdm/internal/core"
	"mdm/internal/ewald"
	"mdm/internal/md"
	"mdm/internal/mdgrape2"
	"mdm/internal/parallelize"
	"mdm/internal/vec"
	"mdm/internal/wine2"
)

// Result is one timed configuration.
type Result struct {
	Name        string  `json:"name"`
	Workers     int     `json:"workers"`
	NsPerOp     float64 `json:"ns_per_op"`
	Speedup     float64 `json:"speedup"` // vs workers=1 of the same name
	AllocsPerOp float64 `json:"allocs_per_op"`

	// Normalised forms of NsPerOp, so records at different N compare
	// (ROADMAP item 3b). machineForces: per MDGRAPE-2 pair evaluation (one per
	// pair per table pass, mdgrape2.Stats.PairsEvaluated) — the whole Forces
	// op, wave pass and potential included, so an upper bound on the sweep's
	// own cost. hostPotential: per half pair of the host's potential walk.
	// wine2DFTIDFT: per particle·wave operation (DFT + IDFT ops). The
	// figure2Step families: per particle of one MD step.
	NsPerPair         float64 `json:"ns_per_pair,omitempty"`
	NsPerParticleWave float64 `json:"ns_per_particle_wave,omitempty"`
	NsPerParticleStep float64 `json:"ns_per_particle_step,omitempty"`
}

// PipelineResult compares the Figure-2 step with the concurrent pipeline on
// versus off at one pool width. Both arms run the same fused sweep and the
// same wave pass, so the ratio is the engine overlap alone. The comparison
// uses the engine-balanced Ewald splitting (see run) and interleaves the two
// configurations so host-load drift cancels.
type PipelineResult struct {
	Workers    int     `json:"workers"`
	OffNsPerOp float64 `json:"off_ns_per_op"`
	OnNsPerOp  float64 `json:"on_ns_per_op"`
	Speedup    float64 `json:"speedup"` // off / on
}

// Report is the whole artifact (a BENCH_<n>.json file). Records up to BENCH_8
// also carry a "batch" array; encoding/json ignores it, so -compare reads them.
type Report struct {
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	NumCPU      int                 `json:"num_cpu"`
	N           int                 `json:"n_particles"`
	Iters       int                 `json:"iters_per_sample"`
	Results     []Result            `json:"results"`
	Pipeline    []PipelineResult    `json:"pipeline,omitempty"`
	WeakScaling []WeakScalingResult `json:"weak_scaling,omitempty"`
}

// benchSystem is the 216-ion perturbed crystal of the bench_test.go
// micro-benchmarks.
func benchSystem() (*md.System, ewald.Params, error) {
	sys, err := md.NewRockSalt(3, 5.64)
	if err != nil {
		return nil, ewald.Params{}, err
	}
	for i := range sys.Pos {
		h := float64((i*2654435761)%1000)/1000.0 - 0.5
		sys.Pos[i] = sys.Pos[i].Add(vec.New(h, -h, h*0.5).Scale(0.4)).Wrap(sys.L)
	}
	p := ewald.ParamsForAlpha(sys.L, ewald.SReal/0.45)
	return sys, p, nil
}

// timeOp times iters calls of op and returns the best-of-reps ns/op (the
// usual defense against scheduler noise) plus the steady-state heap
// allocations per op of the last rep.
func timeOp(iters, reps int, op func() error) (ns, allocs float64, err error) {
	for i := 0; i < 3; i++ { // warm-up: tables, caches, buffer arenas
		if err := op(); err != nil {
			return 0, 0, err
		}
	}
	var ms0, ms1 runtime.MemStats
	best := 0.0
	for r := 0; r < reps; r++ {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := op(); err != nil {
				return 0, 0, err
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(iters)
		runtime.ReadMemStats(&ms1)
		allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best, allocs, nil
}

// family times one benchmark family across the worker widths and appends the
// results (with speedups vs the width-1 sample) to the report.
func (rep *Report) family(name string, widths []int, iters, reps int, mk func(workers int) (func() error, error)) error {
	var base float64
	for _, w := range widths {
		op, err := mk(w)
		if err != nil {
			return fmt.Errorf("%s workers=%d: %w", name, w, err)
		}
		ns, allocs, err := timeOp(iters, reps, op)
		if err != nil {
			return fmt.Errorf("%s workers=%d: %w", name, w, err)
		}
		if w == 1 {
			base = ns
		}
		speedup := 0.0
		if base > 0 {
			speedup = base / ns
		}
		rep.Results = append(rep.Results, Result{
			Name: name, Workers: w, NsPerOp: ns, Speedup: speedup, AllocsPerOp: allocs,
		})
	}
	return nil
}

// normalise fills a normalised field on every row of one family: work is the
// family's operation count per op, which no pool width changes.
func (rep *Report) normalise(name string, work int64, field func(*Result) *float64) {
	for i := range rep.Results {
		if r := &rep.Results[i]; r.Name == name && work > 0 {
			*field(r) = r.NsPerOp / float64(work)
		}
	}
}

// figure2Family builds the Figure-2 step op at one machine configuration.
func figure2Family(p ewald.Params, pipeline bool, skin float64) func(workers int) (func() error, error) {
	return func(workers int) (func() error, error) {
		cfg := core.CurrentMachineConfig(p)
		cfg.Workers = workers
		cfg.PotentialEvery = 100
		cfg.Pipeline = pipeline
		cfg.Skin = skin
		m, err := core.NewMachine(cfg)
		if err != nil {
			return nil, err
		}
		// Each configuration integrates its own system so the trajectories
		// start identically (they also stay bit-identical at equal skin — the
		// contract under test elsewhere; here only the clock matters).
		run, err := md.NewRockSalt(3, 5.64)
		if err != nil {
			return nil, err
		}
		run.SetMaxwellVelocities(1200, 1)
		it, err := md.NewIntegrator(run, m, 2.0)
		if err != nil {
			return nil, err
		}
		return func() error { return it.Run(1, nil) }, nil
	}
}

func run(widths []int, iters, reps, weakSteps int) (*Report, error) {
	sys, p, err := benchSystem()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		N:          sys.N(),
		Iters:      iters,
	}
	waves := ewald.Waves(p)

	var pairsPerOp int64 // one Forces call's pair evaluations
	if err := rep.family("machineForces", widths, iters, reps, func(workers int) (func() error, error) {
		cfg := core.CurrentMachineConfig(p)
		cfg.Workers = workers
		m, err := core.NewMachine(cfg)
		if err != nil {
			return nil, err
		}
		if _, _, err := m.Forces(sys); err != nil {
			return nil, err
		}
		pairsPerOp = m.MDGStats().PairsEvaluated
		return func() error {
			_, _, err := m.Forces(sys)
			return err
		}, nil
	}); err != nil {
		return nil, err
	}
	rep.normalise("machineForces", pairsPerOp, func(r *Result) *float64 { return &r.NsPerPair })

	hp, err := hostPotentialRow(sys, p, iters, reps)
	if err != nil {
		return nil, fmt.Errorf("hostPotential: %w", err)
	}
	rep.Results = append(rep.Results, hp)

	if err := rep.family("wine2DFTIDFT", widths, iters, reps, func(workers int) (func() error, error) {
		w, err := wine2.NewSystem(wine2.CurrentConfig())
		if err != nil {
			return nil, err
		}
		w.SetPool(parallelize.New(workers))
		return func() error {
			sn, cn, err := w.DFT(sys.L, waves, sys.Pos, sys.Charge)
			if err != nil {
				return err
			}
			_, err = w.IDFT(sys.L, waves, sn, cn, sys.Pos, sys.Charge)
			return err
		}, nil
	}); err != nil {
		return nil, err
	}
	// One DFT and one IDFT operation per particle·wave.
	rep.normalise("wine2DFTIDFT", 2*int64(len(waves))*int64(sys.N()), func(r *Result) *float64 { return &r.NsPerParticleWave })

	if err := rep.family("jsetBuild", widths, iters, reps, func(workers int) (func() error, error) {
		grid, err := cellindex.NewGrid(sys.L, p.RCut)
		if err != nil {
			return nil, err
		}
		pool := parallelize.New(workers)
		return func() error {
			_, err := mdgrape2.NewJSetPool(grid, sys.Pos, sys.Type, nil, pool)
			return err
		}, nil
	}); err != nil {
		return nil, err
	}

	if err := rep.family("figure2Step", widths, iters, reps, figure2Family(p, false, 0)); err != nil {
		return nil, err
	}
	if err := rep.family("figure2StepPipeline", widths, iters, reps, figure2Family(p, true, 0)); err != nil {
		return nil, err
	}
	if err := rep.family("figure2StepPipelineSkin", widths, iters, reps, figure2Family(p, true, 0.5)); err != nil {
		return nil, err
	}
	for _, name := range []string{"figure2Step", "figure2StepPipeline", "figure2StepPipelineSkin"} {
		rep.normalise(name, int64(sys.N()), func(r *Result) *float64 { return &r.NsPerParticleStep })
	}

	// Headline ratios: the same step with the concurrent pipeline off vs on,
	// measured interleaved (off/on alternate within each rep) so both
	// configurations see the same host load and frequency state — the
	// cross-family numbers above are timed minutes apart and their ratio
	// absorbs any drift in between. The comparison runs at the pipeline's
	// design point: α chosen so WINE-2 and MDGRAPE-2 carry comparable
	// per-step work (the MDM balances its engines so neither starves the
	// other — concurrency pays nothing when one engine dominates). The
	// family benchmarks above keep the accuracy-suite α, which loads the
	// real-space engine ~5× heavier.
	pb := ewald.ParamsForAlpha(sys.L, ewald.SReal/0.33)
	for _, w := range widths {
		pr, err := pipelineCompare(pb, w, iters, reps)
		if err != nil {
			return nil, fmt.Errorf("pipeline compare workers=%d: %w", w, err)
		}
		rep.Pipeline = append(rep.Pipeline, pr)
	}

	// Weak scaling of the spatial decomposition: fixed 64 ions/rank at
	// growing rank counts, with per-tag traffic for the rebuild and reuse
	// step shapes (skipped when weakSteps is 0, e.g. in smoke mode, which
	// has its own quick weak-scaling gate).
	if weakSteps > 0 {
		ws, err := weakScaling(weakRungs, weakSteps)
		if err != nil {
			return nil, err
		}
		rep.WeakScaling = ws
	}

	return rep, nil
}

// interleavedBest times two operations alternately — a, then b, within every
// rep, so both see the same host load and frequency state — and returns each
// side's best ns/op over the reps.
func interleavedBest(a, b func() error, iters, reps int) (bestA, bestB float64, err error) {
	sample := func(op func() error) (float64, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
	}
	// Warm both sides (tables, arenas, CPU frequency) before any timing.
	for i := 0; i < 3; i++ {
		if err := a(); err != nil {
			return 0, 0, err
		}
		if err := b(); err != nil {
			return 0, 0, err
		}
	}
	for r := 0; r < reps; r++ {
		na, err := sample(a)
		if err != nil {
			return 0, 0, err
		}
		nb, err := sample(b)
		if err != nil {
			return 0, 0, err
		}
		if bestA == 0 || na < bestA {
			bestA = na
		}
		if bestB == 0 || nb < bestB {
			bestB = nb
		}
	}
	return bestA, bestB, nil
}

// pipelineCompare times the Figure-2 step with the pipeline off and on at one
// pool width, alternating the two configurations within every rep and keeping
// each side's best sample.
func pipelineCompare(p ewald.Params, workers, iters, reps int) (PipelineResult, error) {
	offOp, err := figure2Family(p, false, 0)(workers)
	if err != nil {
		return PipelineResult{}, err
	}
	onOp, err := figure2Family(p, true, 0)(workers)
	if err != nil {
		return PipelineResult{}, err
	}
	bestOff, bestOn, err := interleavedBest(offOp, onOp, iters, reps)
	if err != nil {
		return PipelineResult{}, err
	}
	return PipelineResult{
		Workers:    workers,
		OffNsPerOp: bestOff,
		OnNsPerOp:  bestOn,
		Speedup:    bestOff / bestOn,
	}, nil
}

// hostPotentialRow times the host's real-space potential walk by difference:
// the serial Forces call that evaluates it against the same call on a
// machine that, after its first call, never does (the walk is internal to
// core; the difference also carries the O(N) self-energy sum, a thousandth
// of it). ns_per_pair divides by the walk's half-pair count.
func hostPotentialRow(sys *md.System, p ewald.Params, iters, reps int) (Result, error) {
	forcesOp := func(potentialEvery int) (func() error, error) {
		cfg := core.CurrentMachineConfig(p)
		cfg.Workers = 1
		cfg.PotentialEvery = potentialEvery
		m, err := core.NewMachine(cfg)
		if err != nil {
			return nil, err
		}
		return func() error {
			_, _, err := m.Forces(sys)
			return err
		}, nil
	}
	with, err := forcesOp(1)
	if err != nil {
		return Result{}, err
	}
	without, err := forcesOp(math.MaxInt)
	if err != nil {
		return Result{}, err
	}
	nsWith, nsWithout, err := interleavedBest(with, without, iters, reps)
	if err != nil {
		return Result{}, err
	}
	grid, err := cellindex.NewGrid(p.L, p.RCut)
	if err != nil {
		return Result{}, err
	}
	halfPairs := (cellindex.Sort(grid, sys.Pos).OrderedPairCount() - sys.N()) / 2
	ns := nsWith - nsWithout
	return Result{Name: "hostPotential", Workers: 1, NsPerOp: ns, Speedup: 1, NsPerPair: ns / float64(halfPairs)}, nil
}

// smoke gates CI: at workers=GOMAXPROCS the Figure-2 step must not run
// meaningfully slower than serial, and the concurrent WINE-2/MDGRAPE-2
// pipeline must not run meaningfully slower than the sequential step at any
// width. Pipeline on and off execute the same sweep and the same wave pass,
// so their ratio is engine overlap alone — reported here, gated only against
// loss: how much overlap buys depends on an idle second core, which a shared
// CI runner does not promise (the repo benchmark's overlap_n512 workload is
// the instrument for that gain). The margin absorbs scheduler jitter on
// loaded CI machines.
func smoke(iters, reps int) error {
	widths := []int{1, runtime.GOMAXPROCS(0)}
	if widths[1] == 1 {
		widths = widths[:1]
	}
	rep, err := run(widths, iters, reps, 0)
	if err != nil {
		return err
	}
	const margin = 1.30
	for _, r := range rep.Results {
		if r.Name != "figure2Step" || r.Workers == 1 {
			continue
		}
		if r.Speedup < 1/margin {
			return fmt.Errorf("figure2Step at workers=%d is %.2fx serial speed (allowed ≥ %.2fx)",
				r.Workers, r.Speedup, 1/margin)
		}
		fmt.Printf("smoke: figure2Step workers=%d speedup %s (num_cpu=%d gomaxprocs=%d)\n",
			r.Workers, speedupText(r.Speedup, r.Workers, rep.NumCPU), rep.NumCPU, rep.GOMAXPROCS)
	}
	for _, pr := range rep.Pipeline {
		if pr.Speedup < 1/margin {
			return fmt.Errorf("figure2Step pipeline at workers=%d is %.2fx the sequential step (allowed ≥ %.2fx)",
				pr.Workers, pr.Speedup, 1/margin)
		}
		fmt.Printf("smoke: figure2Step pipeline workers=%d overlap ratio %s (num_cpu=%d gomaxprocs=%d)\n",
			pr.Workers, speedupText(pr.Speedup, overlapLanes(pr.Workers), rep.NumCPU), rep.NumCPU, rep.GOMAXPROCS)
	}
	if rep.GOMAXPROCS < 2 || rep.NumCPU < 2 {
		fmt.Println("smoke: fewer than two cores, the engines cannot truly overlap and parallel widths timeshare; overhead check only")
	}
	return nil
}

func main() {
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	iters := flag.Int("iters", 10, "operations per timing sample")
	reps := flag.Int("reps", 3, "timing samples per configuration (best is kept)")
	smokeMode := flag.Bool("smoke", false, "CI gate: neither the parallel widths nor the engine-overlap pipeline may lose to the serial Figure-2 step")
	weakSmokeMode := flag.Bool("weak-smoke", false, "CI gate: the decomposition's reuse step must be as accurate as a rebuild step and stream only ghost positions, and per-particle cost must stay flat at 8 ranks")
	weakSteps := flag.Int("weak-steps", 6, "timed steps per rung in the weak-scaling family (0 skips the family)")
	compareMode := flag.Bool("compare", false, "compare two recorded reports: mdmbench -compare OLD.json NEW.json")
	threshold := flag.Float64("threshold", 0.20, "ns/op growth beyond this fraction counts as a regression in -compare")
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: mdmbench -compare OLD.json NEW.json")
			os.Exit(2)
		}
		regressions, err := compareReports(flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}

	if *smokeMode {
		if err := smoke(*iters, *reps); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *weakSmokeMode {
		if err := weakSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	rep, err := run([]int{1, 2, 4, 8}, *iters, *reps, *weakSteps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	//mdm:rawiook -- benchmark report: re-runnable output, not durable run state
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (gomaxprocs=%d)\n", *out, rep.GOMAXPROCS)
}
