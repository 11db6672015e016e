// Command mdmsim runs the paper's §5 simulation protocol — NVT by velocity
// scaling followed by NVE — for molten NaCl on either the simulated MDM or
// the float64 reference, and reports the observables the paper quotes:
// temperature trace, energy conservation and step timing statistics.
//
//	mdmsim -cells 3 -t 1200 -nvt 200 -nve 100 -backend mdm
//
// The -faults flag injects a deterministic fault scenario into the machine
// backend. -journal names the run's log, its one durable artifact: every
// step appends a record (its fsync overlaps the next step's force evaluation
// and is joined before the run reports the step), and every
// -checkpoint-every steps the log is atomically replaced by one that opens
// with a snapshot of the state. With a log the run restarts in place from
// the snapshot after a fatal host fault, and -resume recovers a killed run
// at the exact committed step (bit for bit at -skin 0; a skin's fresh layout
// moves the bits at rounding level):
//
//	mdmsim -faults "wine2:board-drop@step=60,board=2; run:fatal@step=90" \
//	       -journal run.wal -checkpoint-every 25
//	mdmsim -nvt 2000 -nve 1000 -watchdog 30s -journal run.wal -summary run.json
//	mdmsim -nvt 2000 -nve 1000 -watchdog 30s -journal run.wal -resume
//
// -watchdog bounds every hardware call. -sync-every above -checkpoint-every
// leaves a segment the commit's two fsyncs alone.
//
// Signal contract: the first SIGINT/SIGTERM finishes the current step, waits
// for its record to be durable, commits a final checkpoint and exits 0 with
// summary status "interrupted"; a second signal kills the process
// immediately (exit 130). Errors exit 1, usage errors 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mdm"
	"mdm/internal/lifecycle"
	"mdm/internal/md"
)

// runSummary is the machine-readable result contract of one invocation,
// written by -summary.
type runSummary struct {
	Status      string           `json:"status"` // "ok" | "interrupted" | "error"
	Steps       int              `json:"steps"`
	Restarts    int              `json:"restarts"`
	WallSeconds float64          `json:"wall_seconds"`
	TempMeanK   float64          `json:"temp_mean_k"`
	TempStdK    float64          `json:"temp_std_k"`
	EnergyDrift *float64         `json:"energy_drift"` // null: fewer than two NVE steps evaluated the potential
	Fault       *mdm.FaultReport `json:"fault,omitempty"`

	// Commits counts the journal commits the run joined, CommitStalls the
	// joins that found the fsync still in flight. stalls/commits ≈ 0:
	// durability is hidden behind compute; ≈ 1: storage is slower than a
	// step. Both are 0 without -journal.
	Commits      int64 `json:"commits"`
	CommitStalls int64 `json:"commit_stalls"`
}

func summarize(sim *mdm.Simulation, status string, restarts int, elapsed time.Duration) runSummary {
	mean, std := sim.TemperatureStats()
	s := runSummary{
		Status:      status,
		Steps:       sim.Integrator.StepCount(),
		Restarts:    restarts,
		WallSeconds: elapsed.Seconds(),
		TempMeanK:   mean,
		TempStdK:    std,
	}
	if d := sim.EnergyDrift(); !math.IsNaN(d) {
		s.EnergyDrift = &d
	}
	s.Commits, s.CommitStalls = sim.CommitStats()
	if rep, ok := sim.FaultReport(); ok {
		s.Fault = &rep
	}
	return s
}

func writeSummary(path string, s runSummary) error {
	return lifecycle.WriteSummary(path, s)
}

// printSamples prints every k-th record and the last. A record whose step
// carried an earlier potential (PEFresh false, between -potential-every
// evaluations) shows a marker instead of its stale PE and E; the header says
// so whenever the cadence k > 1 can carry one.
func printSamples(w io.Writer, recs []md.Record, every, potEvery int) {
	if potEvery > 1 {
		fmt.Fprintf(w, "PE is evaluated every %d steps; rows marked \"carried\" carry the last evaluated PE\n", potEvery)
	}
	fmt.Fprintf(w, "%8s %10s %12s %12s %14s %9s\n", "step", "t (ps)", "T (K)", "KE (eV)", "PE (eV)", "E (eV)")
	for i, r := range recs {
		if i%every != 0 && i != len(recs)-1 {
			continue
		}
		if !r.PEFresh {
			fmt.Fprintf(w, "%8d %10.4f %12.2f %12.4f %14s %9s\n", r.Step, r.Time, r.T, r.KE, "carried", "carried")
			continue
		}
		fmt.Fprintf(w, "%8d %10.4f %12.2f %12.4f %14.4f %9.3f\n", r.Step, r.Time, r.T, r.KE, r.PE, r.E)
	}
}

// checkFlags refuses, before anything runs, flag values the run could only
// fail on at its end: the sample table divides by -every, and -resume has
// nothing to resume from without a log.
func checkFlags(every int, resume bool, journal string) error {
	if every < 1 {
		return fmt.Errorf("-every must be ≥ 1, got %d", every)
	}
	if resume && journal == "" {
		return errors.New("-resume requires -journal")
	}
	return nil
}

// msPerStep is the closing line's wall time per step this invocation
// advanced — not the whole protocol's, which a resumed or interrupted run
// does not run — and "n/a" when it advanced none.
func msPerStep(elapsed time.Duration, steps int) string {
	if steps < 1 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f", elapsed.Seconds()*1000/float64(steps))
}

// resumeHint is the closing status line of an interrupted run: the -resume
// command that continues it, which needs the log.
func resumeHint(step int, journal string) string {
	if journal == "" {
		return fmt.Sprintf("status: interrupted at step %d; cannot be resumed without -journal", step)
	}
	return fmt.Sprintf("status: interrupted at step %d; resume with -resume -journal %s", step, journal)
}

func main() {
	// run() owns every cleanup as a defer and reports an exit code; the only
	// os.Exit on the normal paths is here, so profiles, trajectories, the
	// journal and the simulated boards are flushed no matter how the run
	// ends. (The second-signal hard kill is the deliberate exception.)
	os.Exit(run(os.Args[1:]))
}

func run(args []string) (exit int) {
	flags := flag.NewFlagSet("mdmsim", flag.ExitOnError)
	cells := flags.Int("cells", 2, "rock-salt cells per side (N = 8·cells³)")
	temp := flags.Float64("t", 1200, "temperature (K), paper: 1200")
	dt := flags.Float64("dt", 2, "time step (fs), paper: 2")
	nvt := flags.Int("nvt", 100, "NVT steps, paper: 2000")
	nve := flags.Int("nve", 50, "NVE steps, paper: 1000")
	backend := flags.String("backend", "mdm", "force engine: mdm or reference")
	alpha := flags.Float64("alpha", 0, "Ewald splitting parameter (0 = balanced for the box; large boxes may prefer the machine balance, e.g. ewald.CostModel with the 27-cell geometry)")
	potEvery := flags.Int("potential-every", 1, "evaluate the potential energy every k steps on the mdm backend (paper: 100)")
	seed := flags.Int64("seed", 1, "velocity seed")
	every := flags.Int("every", 10, "print a sample every k steps")
	xyz := flags.String("xyz", "", "write an XYZ trajectory frame every k steps to this file")
	faults := flags.String("faults", "", `fault scenario, e.g. "wine2:board-drop@step=60,board=2; run:fatal@step=90"`)
	ckptEvery := flags.Int("checkpoint-every", 25, "steps between checkpoint commits to the -journal log")
	maxRestarts := flags.Int("max-restarts", 3, "restarts from the log's checkpoint after fatal faults")
	workers := flags.Int("workers", 0, "worker-pool width striping the simulated pipelines across cores (0 = GOMAXPROCS, 1 = one thread per engine pass; the WINE-2 pass always runs beside the MDGRAPE-2 sweep); bit-identical at any width")
	skin := flags.Float64("skin", 0, "Verlet skin in Å: reuse the sorted cell layout until a particle moves more than skin/2 (0 = rebuild every step); widens the cells, not the r_cut sphere of pairs evaluated")
	ranks := flags.Int("ranks", 0, "spatial decomposition: split the box into this many cell blocks, one real-space process each (0 = single process); bit-identical with -wave-ranks 1")
	waveRanks := flags.Int("wave-ranks", 0, "wavenumber processes alongside -ranks (default 1); >1 regroups the structure-factor reduction and agrees to float64 rounding")
	watchdog := flags.Duration("watchdog", 0, "stall deadline for one hardware call, e.g. 30s (0 disables the watchdog)")
	journal := flags.String("journal", "", "run log path: a checkpoint snapshot every -checkpoint-every steps plus a record per step (enables restarts after fatal faults and -resume after a kill); a step's record is durable before the run reports the step — its fsync overlaps the next step's force evaluation and is joined at every checkpoint, interrupt and exit")
	syncEvery := flags.Int("sync-every", 1, "log group-commit interval: fsync every Nth step record (1 = every step, the strongest durability; N > 1 risks the last N-1 steps on a power cut, plus the one step whose fsync is in flight while the run computes)")
	resume := flags.Bool("resume", false, "resume a killed run from the -journal log at the exact committed step (bit for bit at -skin 0)")
	summaryPath := flags.String("summary", "", "write a machine-readable JSON run summary to this file")
	cpuprofile := flags.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flags.String("memprofile", "", "write a heap profile to this file on exit")
	_ = flags.Parse(args) // ExitOnError: a bad flag exits 2 here

	if *cpuprofile != "" {
		//mdm:rawiook -- pprof profile: diagnostic output, lose-on-crash is fine
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			//mdm:rawiook -- pprof profile: diagnostic output, lose-on-crash is fine
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	var be mdm.Backend
	switch *backend {
	case "mdm":
		be = mdm.BackendMDM
	case "reference":
		be = mdm.BackendReference
	default:
		fmt.Fprintf(os.Stderr, "unknown backend %q\n", *backend)
		return 2
	}
	if err := checkFlags(*every, *resume, *journal); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	cfg := mdm.Config{
		Cells:          *cells,
		Temperature:    *temp,
		Dt:             *dt,
		Alpha:          *alpha,
		Backend:        be,
		Seed:           *seed,
		PotentialEvery: *potEvery,
		Faults:         *faults,
		Workers:        *workers,
		Skin:           *skin,
		Ranks:          *ranks,
		WaveRanks:      *waveRanks,
		Supervise: mdm.SuperviseConfig{
			Watchdog:  *watchdog,
			Journal:   *journal,
			SyncEvery: *syncEvery,
		},
	}
	// Which backend composes with -ranks, -wave-ranks, -faults, -watchdog
	// and -skin is the library's rule (Config.Validate), reported here as a
	// usage error.
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var sim *mdm.Simulation
	var err error
	if *resume {
		sim, err = mdm.ResumeFromJournal(cfg)
	} else {
		sim, err = mdm.NewSimulation(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() { _ = sim.Free() }()

	// Graceful shutdown: the first signal stops the run on the next completed
	// step; a second signal kills the process without waiting (exit 130).
	sd := lifecycle.Watch(nil)
	defer sd.Stop()
	sim.SetInterrupt(sd.Requested)

	p := sim.Params()
	fmt.Printf("system: %d NaCl ions in a %.2f Å box, backend %s\n", sim.N(), p.L, be)
	fmt.Printf("ewald:  alpha=%.2f r_cut=%.2f Å Lk_cut=%.2f (N_wv ≈ %.0f)\n",
		p.Alpha, p.RCut, p.LKCut, p.NWv())
	if *ranks > 0 {
		fmt.Printf("ranks:  %d real-space blocks + %d wavenumber processes\n", *ranks, max(*waveRanks, 1))
	}
	fmt.Printf("run:    %d NVT + %d NVE steps of %.1f fs at %.0f K\n", *nvt, *nve, *dt, *temp)
	if *faults != "" {
		fmt.Printf("faults: %s\n", *faults)
	}
	if *resume {
		fmt.Printf("resume: log %s replayed to step %d\n", *journal, sim.Integrator.StepCount())
	}
	fmt.Println()

	var traj *os.File
	if *xyz != "" {
		//mdm:rawiook -- trajectory dump: re-runnable output, not durable run state
		traj, err = os.Create(*xyz)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			// The trajectory is the program's output: a failed close (full
			// disk, NFS flush) must not pass silently.
			if err := traj.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				if exit == 0 {
					exit = 1
				}
			}
		}()
	}
	frame := func(stage string) error {
		if traj == nil {
			return nil
		}
		return md.WriteXYZ(traj, sim.System, stage)
	}

	start, startStep := time.Now(), sim.Integrator.StepCount()
	if err := frame("initial"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	restarts, err := sim.Run(mdm.Protocol{
		NVT:      *nvt,
		NVE:      *nve,
		Every:    *ckptEvery,
		Restarts: *maxRestarts,
		AfterNVT: func() error { return frame("after-nvt") },
	})
	status := "ok"
	switch {
	case err == nil:
	case errors.Is(err, mdm.ErrInterrupted):
		// Graceful shutdown: the interrupted step is sampled and, with
		// -journal, durable and sealed by a checkpoint commit, so -resume
		// continues from it.
		status = "interrupted"
		fmt.Printf("interrupted: stopping at completed step %d\n", sim.Integrator.StepCount())
	default:
		fmt.Fprintln(os.Stderr, err)
		if serr := writeSummary(*summaryPath, summarize(sim, "error", restarts, time.Since(start))); serr != nil {
			fmt.Fprintln(os.Stderr, serr)
		}
		return 1
	}
	if err := frame("final"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	elapsed := time.Since(start)

	cadence := *potEvery // the reference evaluates its potential every step
	if be == mdm.BackendReference {
		cadence = 1
	}
	printSamples(os.Stdout, sim.Records(), *every, cadence)

	mean, std := sim.TemperatureStats()
	fmt.Printf("\ntemperature: %.1f ± %.1f K (sigma/mean = %.4f)\n", mean, std, std/mean)
	if d := sim.EnergyDrift(); math.IsNaN(d) {
		fmt.Println("NVE energy drift: unavailable (fewer than two NVE steps evaluated the potential; see -potential-every)")
	} else {
		fmt.Printf("NVE energy drift: %.3g relative (paper: < 5e-7 over 2 ps at N = 1.88e7)\n", d)
	}
	if rep, ok := sim.FaultReport(); ok {
		fmt.Printf("fault recovery: %d retries, %d re-stripes, %d suspect steps, %d fallback steps, %d restarts\n",
			rep.Retries, rep.Restripes, rep.SuspectSteps, rep.FallbackSteps, restarts)
		for _, e := range rep.Events {
			fmt.Printf("  %s\n", e)
		}
	}
	fmt.Printf("wall clock: %.2f s total, %s ms/step for N=%d\n",
		elapsed.Seconds(), msPerStep(elapsed, sim.Integrator.StepCount()-startStep), sim.N())
	if status == "interrupted" {
		fmt.Println(resumeHint(sim.Integrator.StepCount(), *journal))
	}
	if err := writeSummary(*summaryPath, summarize(sim, status, restarts, elapsed)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return exit
}
