// Command mdmsim runs the paper's §5 simulation protocol — NVT by velocity
// scaling followed by NVE — for molten NaCl on either the simulated MDM or
// the float64 reference, and reports the observables the paper quotes:
// temperature trace, energy conservation and step timing statistics.
//
//	mdmsim -cells 3 -t 1200 -nvt 200 -nve 100 -backend mdm
//
// The -faults flag injects a deterministic fault scenario into the machine
// backend; with -checkpoint the run writes crash-safe periodic checkpoints
// and automatically restarts from the last one after a fatal host fault:
//
//	mdmsim -faults "wine2:board-drop@step=60,board=2; run:fatal@step=90" \
//	       -checkpoint run.ckpt -checkpoint-every 25
//
// Long runs add supervision: -watchdog bounds every hardware call, -journal
// write-ahead-logs every step (its fsync overlaps the next step's force
// evaluation and is joined before the run reports the step — at every
// checkpoint, interrupt and exit), and -resume recovers a killed run from
// checkpoint + journal at the exact committed step:
//
//	mdmsim -nvt 2000 -nve 1000 -watchdog 30s \
//	       -checkpoint run.ckpt -journal run.wal -summary run.json
//	mdmsim -nvt 2000 -nve 1000 -watchdog 30s \
//	       -checkpoint run.ckpt -journal run.wal -resume
//
// Signal contract: the first SIGINT/SIGTERM finishes the current step, waits
// for its journal record to be durable, writes a final checkpoint and exits 0
// with summary status "interrupted"; a second signal kills the process
// immediately (exit 130). Errors exit 1, usage errors 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mdm"
	"mdm/internal/fault"
	"mdm/internal/lifecycle"
	"mdm/internal/md"
)

// runOpts is the protocol schedule and resilience policy of one invocation.
type runOpts struct {
	nvt, nve    int
	ckptPath    string // "" disables checkpointing (and restarts)
	ckptEvery   int
	maxRestarts int
	frame       func(sim *mdm.Simulation, stage string) error
	logf        func(format string, args ...any)
}

// checkpoint writes the crash-safe checkpoint if one is configured. The
// commit also turns the write-ahead journal over (rotate + retire under one
// directory fsync), keeping it bounded across a long campaign.
func (o *runOpts) checkpoint(sim *mdm.Simulation) error {
	if o.ckptPath == "" {
		return nil
	}
	return sim.WriteCheckpoint(o.ckptPath)
}

// runSegments advances sim from wherever its step counter stands through the
// rest of the NVT+NVE protocol, checkpointing every ckptEvery steps.
func runSegments(sim *mdm.Simulation, o *runOpts) error {
	chunked := func(run func(int) error, until int) error {
		for {
			done := sim.Integrator.StepCount()
			if done >= until {
				return nil
			}
			n := until - done
			if o.ckptPath != "" && o.ckptEvery > 0 && n > o.ckptEvery {
				n = o.ckptEvery
			}
			if err := run(n); err != nil {
				return err
			}
			if err := o.checkpoint(sim); err != nil {
				return err
			}
		}
	}
	if err := chunked(sim.RunNVT, o.nvt); err != nil {
		return err
	}
	if err := o.frame(sim, "after-nvt"); err != nil {
		return err
	}
	return chunked(sim.RunNVE, o.nvt+o.nve)
}

// runProtocol drives the whole protocol with self-healing: a fatal injected
// host fault triggers a restart from the last checkpoint (up to maxRestarts
// times), reusing the simulation's fault schedule so the fatal does not
// refire. It returns the final simulation, which differs from the argument
// after a restart.
func runProtocol(sim *mdm.Simulation, o *runOpts) (*mdm.Simulation, int, error) {
	// Seed the checkpoint before the first step so a fault in the first
	// chunk still has a restart point.
	if err := o.checkpoint(sim); err != nil {
		return sim, 0, err
	}
	restarts := 0
	for {
		err := runSegments(sim, o)
		if err == nil {
			return sim, restarts, nil
		}
		var fe *fault.FatalError
		if o.ckptPath == "" || restarts >= o.maxRestarts || !errors.As(err, &fe) {
			return sim, restarts, err
		}
		restarts++
		sys, step, rerr := md.ReadCheckpointFile(o.ckptPath)
		if rerr != nil {
			return sim, restarts, fmt.Errorf("restarting after %v: %w", err, rerr)
		}
		o.logf("fatal fault (%v): restart %d/%d from checkpoint at step %d",
			err, restarts, o.maxRestarts, step)
		resumed, rerr := mdm.ResumeSimulation(sim, sys, step)
		if rerr != nil {
			return sim, restarts, rerr
		}
		sim = resumed
	}
}

// runSummary is the machine-readable result contract of one invocation,
// written by -summary.
type runSummary struct {
	Status      string           `json:"status"` // "ok" | "interrupted" | "error"
	Steps       int              `json:"steps"`
	Restarts    int              `json:"restarts"`
	WallSeconds float64          `json:"wall_seconds"`
	TempMeanK   float64          `json:"temp_mean_k"`
	TempStdK    float64          `json:"temp_std_k"`
	EnergyDrift float64          `json:"energy_drift"`
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
		EnergyDrift: sim.EnergyDrift(),
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

// checkFlags refuses, before anything runs, flag values the run could only
// fail on at its end: the sample table divides by -every, and -resume has
// nothing to resume from without both files.
func checkFlags(every int, resume bool, ckpt, journal string) error {
	if every < 1 {
		return fmt.Errorf("-every must be ≥ 1, got %d", every)
	}
	if resume && (ckpt == "" || journal == "") {
		return errors.New("-resume requires -checkpoint and -journal")
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

func main() {
	// run() owns every cleanup as a defer and reports an exit code; the only
	// os.Exit on the normal paths is here, so profiles, trajectories, the
	// journal and the simulated boards are flushed no matter how the run
	// ends. (The second-signal hard kill is the deliberate exception.)
	os.Exit(run())
}

func run() (exit int) {
	cells := flag.Int("cells", 2, "rock-salt cells per side (N = 8·cells³)")
	temp := flag.Float64("t", 1200, "temperature (K), paper: 1200")
	dt := flag.Float64("dt", 2, "time step (fs), paper: 2")
	nvt := flag.Int("nvt", 100, "NVT steps, paper: 2000")
	nve := flag.Int("nve", 50, "NVE steps, paper: 1000")
	backend := flag.String("backend", "mdm", "force engine: mdm or reference")
	alpha := flag.Float64("alpha", 0, "Ewald splitting parameter (0 = balanced for the box; large boxes may prefer the machine balance, e.g. ewald.CostModel with the 27-cell geometry)")
	potEvery := flag.Int("potential-every", 1, "evaluate the potential energy every k steps on the mdm backend (paper: 100)")
	seed := flag.Int64("seed", 1, "velocity seed")
	every := flag.Int("every", 10, "print a sample every k steps")
	xyz := flag.String("xyz", "", "write an XYZ trajectory frame every k steps to this file")
	faults := flag.String("faults", "", `fault scenario, e.g. "wine2:board-drop@step=60,board=2; run:fatal@step=90"`)
	ckpt := flag.String("checkpoint", "", "crash-safe checkpoint file (enables restart after fatal faults)")
	ckptEvery := flag.Int("checkpoint-every", 25, "steps between checkpoints")
	maxRestarts := flag.Int("max-restarts", 3, "restarts from checkpoint after fatal faults")
	workers := flag.Int("workers", 0, "worker-pool width striping the simulated pipelines across cores (0 = GOMAXPROCS, 1 = serial); bit-identical at any width")
	pipeline := flag.Bool("pipeline", false, "run the WINE-2 wavenumber pass concurrently with the MDGRAPE-2 real-space sweep (engine overlap only; the step path and its results are the same, bit for bit)")
	skin := flag.Float64("skin", 0, "Verlet skin in Å: reuse the sorted cell layout until a particle moves more than skin/2 (0 = rebuild every step); widens the cells, not the r_cut sphere of pairs evaluated")
	ranks := flag.Int("ranks", 0, "spatial decomposition: split the box into this many cell blocks, one real-space process each (0 = single process); bit-identical with -wave-ranks 1")
	waveRanks := flag.Int("wave-ranks", 0, "wavenumber processes alongside -ranks (default 1); >1 regroups the structure-factor reduction and agrees to float64 rounding")
	watchdog := flag.Duration("watchdog", 0, "stall deadline for one hardware call, e.g. 30s (0 disables the watchdog)")
	journal := flag.String("journal", "", "write-ahead step journal path (with -checkpoint, enables -resume after a kill); a step's record is durable before the run reports the step — its fsync overlaps the next step's force evaluation and is joined at every checkpoint, interrupt and exit")
	syncEvery := flag.Int("sync-every", 1, "journal group-commit interval: fsync every Nth step record (1 = every step, the strongest durability; N > 1 risks the last N-1 steps on a power cut, plus the one step whose fsync is in flight while the run computes)")
	resume := flag.Bool("resume", false, "resume a killed run from -checkpoint and -journal at the exact committed step")
	summaryPath := flag.String("summary", "", "write a machine-readable JSON run summary to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

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
	if err := checkFlags(*every, *resume, *ckpt, *journal); err != nil {
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
		Pipeline:       *pipeline,
		Skin:           *skin,
		Ranks:          *ranks,
		WaveRanks:      *waveRanks,
		Supervise: mdm.SuperviseConfig{
			Watchdog:  *watchdog,
			Journal:   *journal,
			SyncEvery: *syncEvery,
		},
	}
	// Which backend composes with -ranks, -wave-ranks, -faults, -watchdog,
	// -pipeline and -skin is the library's rule (Config.Validate), reported
	// here as a usage error.
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var sim *mdm.Simulation
	var err error
	if *resume {
		sim, err = mdm.ResumeFromJournal(cfg, *ckpt)
	} else {
		sim, err = mdm.NewSimulation(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// sim is reassigned after a restart; the deferred Free releases whichever
	// simulation is live at exit and closes the journal behind it.
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
		nw := *waveRanks
		if nw == 0 {
			nw = 1
		}
		fmt.Printf("ranks:  %d real-space blocks + %d wavenumber processes\n", *ranks, nw)
	}
	fmt.Printf("run:    %d NVT + %d NVE steps of %.1f fs at %.0f K\n", *nvt, *nve, *dt, *temp)
	if *faults != "" {
		fmt.Printf("faults: %s\n", *faults)
	}
	if *resume {
		fmt.Printf("resume: checkpoint %s + journal %s replayed to step %d\n",
			*ckpt, *journal, sim.Integrator.StepCount())
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
	o := &runOpts{
		nvt:         *nvt,
		nve:         *nve,
		ckptPath:    *ckpt,
		ckptEvery:   *ckptEvery,
		maxRestarts: *maxRestarts,
		frame: func(sim *mdm.Simulation, stage string) error {
			if traj == nil {
				return nil
			}
			return md.WriteXYZ(traj, sim.System, stage)
		},
		logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}

	start, startStep := time.Now(), sim.Integrator.StepCount()
	if err := o.frame(sim, "initial"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var restarts int
	sim, restarts, err = runProtocol(sim, o)
	status := "ok"
	switch {
	case err == nil:
	case errors.Is(err, mdm.ErrInterrupted):
		// Graceful shutdown: the interrupted step is sampled and its journal
		// record durable; seal the run with a final checkpoint so -resume
		// continues from it.
		status = "interrupted"
		o.logf("interrupted: stopping at completed step %d", sim.Integrator.StepCount())
		if cerr := o.checkpoint(sim); cerr != nil {
			fmt.Fprintln(os.Stderr, cerr)
			status = "error"
			exit = 1
		}
	default:
		fmt.Fprintln(os.Stderr, err)
		if serr := writeSummary(*summaryPath, summarize(sim, "error", restarts, time.Since(start))); serr != nil {
			fmt.Fprintln(os.Stderr, serr)
		}
		return 1
	}
	if err := o.frame(sim, "final"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	elapsed := time.Since(start)

	fmt.Printf("%8s %10s %12s %12s %14s %9s\n", "step", "t (ps)", "T (K)", "KE (eV)", "PE (eV)", "E (eV)")
	recs := sim.Records()
	for i, r := range recs {
		if i%*every != 0 && i != len(recs)-1 {
			continue
		}
		fmt.Printf("%8d %10.4f %12.2f %12.4f %14.4f %9.3f\n", r.Step, r.Time, r.T, r.KE, r.PE, r.E)
	}

	mean, std := sim.TemperatureStats()
	fmt.Printf("\ntemperature: %.1f ± %.1f K (sigma/mean = %.4f)\n", mean, std, std/mean)
	fmt.Printf("NVE energy drift: %.3g relative (paper: < 5e-7 over 2 ps at N = 1.88e7)\n", sim.EnergyDrift())
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
		fmt.Printf("status: interrupted at step %d; resume with -resume -checkpoint %s -journal %s\n",
			sim.Integrator.StepCount(), *ckpt, *journal)
	}
	if err := writeSummary(*summaryPath, summarize(sim, status, restarts, elapsed)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return exit
}
