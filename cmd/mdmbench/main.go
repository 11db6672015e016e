// Command mdmbench records timing the repository benchmark (go run
// ./benchmark, the judge of end-to-end wall time) does not hold: how the hot
// paths that package parallelize stripes across host cores scale at pool
// widths 1, 2, 4 and 8, their unit costs (ns per pair, ns per particle·wave),
// and the spatial decomposition's step time per weak-scaling rung.
//
//	mdmbench -o BENCH_13.json # record an artifact (scripts/bench.sh)
//	mdmbench -smoke           # CI gate: parallel must not lose to serial
//
// Time is all it records. Allocations, MPI traffic and accuracy are verdicts
// of go test: TestStepAllocs, TestSessionReuseStreamsLessThanRebuild,
// TestSkinReuseStepsMatchRebuildSteps, TestMachineStageAccuracy and the
// mdmpaper report.
//
// Every width computes bit-identical physics (the parallel_test.go contract).
// Speedups beyond 1× require a core per lane; the artifact records gomaxprocs
// and num_cpu so a ratio taken above them reads n/a, not as a failed
// optimization.
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
	"mdm/internal/soa"
	"mdm/internal/vec"
	"mdm/internal/wine2"
)

// Result is one timed configuration.
type Result struct {
	Name    string  `json:"name"`
	Workers int     `json:"workers"`
	NsPerOp float64 `json:"ns_per_op"`
	Speedup float64 `json:"speedup"` // vs workers=1 of the same name

	// Normalised forms of NsPerOp, so records at different N compare.
	// machineForces: per MDGRAPE-2 pair evaluation (one per pair per table
	// pass, mdgrape2.Stats.PairsEvaluated) — the whole Forces op, wave pass and
	// potential included, so an upper bound on the sweep's own cost.
	// hostPotential: per half pair the host potential evaluates.
	// wine2DFTIDFT: per particle·wave operation (DFT + IDFT ops).
	NsPerPair         float64 `json:"ns_per_pair,omitempty"`
	NsPerParticleWave float64 `json:"ns_per_particle_wave,omitempty"`
}

// Report is the whole artifact (a BENCH_<n>.json file): timing rows only.
// Older records carry keys it no longer writes — "pipeline" and "batch"
// arrays and Figure-2 step families up to BENCH_8, allocs_per_op, each rung's
// per-tag traffic and force error, and the accuracy object up to BENCH_12;
// encoding/json ignores them, so every record still decodes into it.
type Report struct {
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	NumCPU      int                 `json:"num_cpu"`
	N           int                 `json:"n_particles"`
	Iters       int                 `json:"iters_per_sample"`
	Results     []Result            `json:"results"`
	WeakScaling []WeakScalingResult `json:"weak_scaling,omitempty"`
}

// benchSystem is the 216-ion perturbed crystal every family runs on.
func benchSystem() (*md.System, ewald.Params, error) {
	sys, err := md.NewRockSalt(3, 5.64)
	if err != nil {
		return nil, ewald.Params{}, err
	}
	for i := range sys.Pos {
		h := float64((int64(i)*2654435761)%1000)/1000.0 - 0.5
		sys.Pos[i] = sys.Pos[i].Add(vec.New(h, -h, h*0.5).Scale(0.4)).Wrap(sys.L)
	}
	p := ewald.ParamsForAlpha(sys.L, ewald.SReal/0.45)
	return sys, p, nil
}

// bestOf times the operations in turn within every rep, so all of them see
// the same host load and frequency state, and returns each one's best ns/op
// over the reps (the usual defense against scheduler noise).
func bestOf(iters, reps int, ops ...func() error) ([]float64, error) {
	for i := 0; i < 3; i++ { // warm-up: tables, caches, buffer arenas, CPU frequency
		for _, op := range ops {
			if err := op(); err != nil {
				return nil, err
			}
		}
	}
	ns := make([]float64, len(ops))
	for r := 0; r < reps; r++ {
		for k, op := range ops {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := op(); err != nil {
					return nil, err
				}
			}
			t := float64(time.Since(start).Nanoseconds()) / float64(iters)
			if ns[k] == 0 || t < ns[k] {
				ns[k] = t
			}
		}
	}
	return ns, nil
}

// family times one benchmark family at every worker width, interleaved, and
// appends the results to the report; widths[0] is the serial baseline of the
// speedups.
func (rep *Report) family(name string, widths []int, iters, reps int, mk func(workers int) (func() error, error)) error {
	ops := make([]func() error, len(widths))
	for k, w := range widths {
		var err error
		if ops[k], err = mk(w); err != nil {
			return fmt.Errorf("%s workers=%d: %w", name, w, err)
		}
	}
	ns, err := bestOf(iters, reps, ops...)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for k, w := range widths {
		rep.Results = append(rep.Results, Result{Name: name, Workers: w, NsPerOp: ns[k], Speedup: ns[0] / ns[k]})
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

// forcesOp builds a core.Machine at the current configuration for p, adjusted
// by tweak, and returns it with its Forces call on sys — the one operation the
// machine families and the smoke gate time.
func forcesOp(sys *md.System, p ewald.Params, tweak func(*core.MachineConfig)) (*core.Machine, func() error, error) {
	cfg := core.CurrentMachineConfig(p)
	tweak(&cfg)
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, nil, err
	}
	return m, func() error {
		_, _, err := m.Forces(sys)
		return err
	}, nil
}

func run(iters, reps, weakSteps int) (*Report, error) {
	widths := []int{1, 2, 4, 8}
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
		m, op, err := forcesOp(sys, p, func(cfg *core.MachineConfig) { cfg.Workers = workers })
		if err != nil {
			return nil, err
		}
		if err := op(); err != nil {
			return nil, err
		}
		pairsPerOp = m.MDGStats().PairsEvaluated
		return op, nil
	}); err != nil {
		return nil, err
	}
	rep.normalise("machineForces", pairsPerOp, func(r *Result) *float64 { return &r.NsPerPair })

	hp, err := hostPotentialRow(sys, p, iters, reps)
	if err != nil {
		return nil, fmt.Errorf("hostPotential: %w", err)
	}
	rep.Results = append(rep.Results, hp)

	// The two kernel families time the entry points a step takes, on buffers a
	// step would reuse: quantize once → DFT → IDFT into force planes, and the
	// amortized j-set builder. (Up to BENCH_8 they timed the one-shot AoS forms,
	// System.DFT + System.IDFT and NewJSetPool.)
	if err := rep.family("wine2DFTIDFT", widths, iters, reps, func(workers int) (func() error, error) {
		w, err := wine2.NewSystem(wine2.CurrentConfig())
		if err != nil {
			return nil, err
		}
		w.SetPool(parallelize.New(workers))
		var (
			pw     *wine2.ParticleWords
			sn, cn []float64
			fc     soa.Coords
		)
		return func() error {
			var err error
			if pw, err = w.QuantizeInto(pw, sys.L, sys.Pos, sys.Charge); err != nil {
				return err
			}
			if sn, cn, err = w.DFTQuantizedInto(waves, pw, sn, cn); err != nil {
				return err
			}
			fc, err = w.IDFTQuantizedCoordsInto(waves, sn, cn, pw, fc)
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
		b := mdgrape2.NewJSetBuilder(grid, pool)
		return func() error {
			_, err := b.Build(sys.Pos, sys.Type, pool)
			return err
		}, nil
	}); err != nil {
		return nil, err
	}

	// Weak scaling of the spatial decomposition: fixed 64 ions/rank at
	// growing rank counts (skipped when weakSteps is 0).
	if weakSteps > 0 {
		ws, err := weakScaling(weakSteps)
		if err != nil {
			return nil, err
		}
		rep.WeakScaling = ws
	}

	return rep, nil
}

// hostPotentialRow times the host's real-space potential by difference: the
// serial Forces call that evaluates it against the same call on a machine
// that, after its first call, never does (the potential rides the sweep
// inside core; the difference also carries the O(N) self-energy sum, a
// thousandth of it). ns_per_pair divides by the half-pair count.
func hostPotentialRow(sys *md.System, p ewald.Params, iters, reps int) (Result, error) {
	var ops [2]func() error
	for k, every := range []int{1, math.MaxInt} {
		var err error
		_, ops[k], err = forcesOp(sys, p, func(cfg *core.MachineConfig) {
			cfg.Workers = 1
			cfg.PotentialEvery = every
		})
		if err != nil {
			return Result{}, err
		}
	}
	best, err := bestOf(iters, reps, ops[0], ops[1])
	if err != nil {
		return Result{}, err
	}
	grid, err := cellindex.NewGrid(p.L, p.RCut)
	if err != nil {
		return Result{}, err
	}
	halfPairs := (cellindex.Sort(grid, sys.Pos).OrderedPairCount() - sys.N()) / 2
	ns := best[0] - best[1]
	return Result{Name: "hostPotential", Workers: 1, NsPerOp: ns, Speedup: 1, NsPerPair: ns / float64(halfPairs)}, nil
}

// smokeMargin is how much slower than its baseline a parallel configuration
// may read before smoke fails; it absorbs scheduler jitter on loaded CI
// machines.
const smokeMargin = 1.30

// smoke gates CI on one inequality of the machine force evaluation: at
// workers=GOMAXPROCS it must not run meaningfully slower than at workers=1.
// Both widths run the WINE-2 pass beside the MDGRAPE-2 sweep; how much that
// engine overlap buys depends on an idle second core, which a shared CI
// runner does not promise (the repo benchmark's overlap_n512 workload is the
// instrument for it).
//
// Both widths are timed interleaved, at the overlap's design point: α chosen
// so WINE-2 and MDGRAPE-2 carry comparable work (the MDM balances its engines
// so neither starves the other — concurrency pays nothing when one engine
// dominates), with the serial host potential sampled one call in 100 as a
// production step does.
func smoke(iters, reps int) error {
	sys, _, err := benchSystem()
	if err != nil {
		return err
	}
	p := ewald.ParamsForAlpha(sys.L, ewald.SReal/0.33)
	numCPU, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	if procs < 2 {
		fmt.Println("smoke: GOMAXPROCS=1, no parallel width to gate")
		return nil
	}
	var ops []func() error // workers 1, workers GOMAXPROCS
	for _, w := range []int{1, procs} {
		_, op, err := forcesOp(sys, p, func(cfg *core.MachineConfig) {
			cfg.Workers = w
			cfg.PotentialEvery = 100
		})
		if err != nil {
			return err
		}
		ops = append(ops, op)
	}
	ns, err := bestOf(iters, reps, ops...)
	if err != nil {
		return err
	}
	speedup := ns[0] / ns[1]
	if speedup < 1/smokeMargin {
		return fmt.Errorf("machine forces at workers=%d run at %.2fx the workers=1 speed (allowed ≥ %.2fx)", procs, speedup, 1/smokeMargin)
	}
	fmt.Printf("smoke: machine forces workers=%d speedup %s (num_cpu=%d gomaxprocs=%d)\n",
		procs, speedupText(speedup, procs, numCPU), numCPU, procs)
	if numCPU < 2 {
		fmt.Println("smoke: fewer than two cores, parallel widths timeshare; overhead check only")
	}
	return nil
}

// speedupText renders a parallel ratio (speed-up over the serial path, or
// weak-scaling wall efficiency) measured at the given width — pool workers or
// ranks — on a host with numCPU cores: the figure when every lane had a core
// of its own, "n/a" when the width oversubscribed the host and the ratio says
// nothing about scaling.
func speedupText(ratio float64, width, numCPU int) string {
	if numCPU < width {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", ratio)
}

// checkFlags refuses, before anything runs, sample counts no family can be
// timed with: they would surface minutes later as a NaN or +Inf the JSON
// encoder rejects.
func checkFlags(iters, reps, weakSteps int) error {
	if iters < 1 || reps < 1 || weakSteps < 0 {
		return fmt.Errorf("usage: mdmbench needs -iters ≥ 1, -reps ≥ 1 and -weak-steps ≥ 0 (0 skips the family); got %d, %d, %d", iters, reps, weakSteps)
	}
	return nil
}

func main() {
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	iters := flag.Int("iters", 10, "operations per timing sample")
	reps := flag.Int("reps", 3, "timing samples per configuration (best is kept)")
	smokeMode := flag.Bool("smoke", false, "CI gate: the parallel width may not lose to the workers=1 machine force evaluation")
	weakSteps := flag.Int("weak-steps", 6, "timed steps per rung in the weak-scaling family (0 skips the family)")
	flag.Parse()

	if err := checkFlags(*iters, *reps, *weakSteps); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *smokeMode {
		if err := smoke(*iters, *reps); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	rep, err := run(*iters, *reps, *weakSteps)
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
	fmt.Printf("wrote %s (gomaxprocs=%d num_cpu=%d)\n", *out, rep.GOMAXPROCS, rep.NumCPU)
}
