// Command benchmark is the repository's performance instrument: five named
// workloads driven through the public entry points (mdm.NewSimulation /
// RunNVT / RunNVE, serve.Open / Manager.Submit), five end-to-end metrics per
// workload measured in calibrated time, and a separate traced run that
// replays each step's layer calls for per-layer time and counts. README.md
// in this directory defines every metric and the method.
//
//	go run ./benchmark                                  # all workloads, timed then traced
//	go run ./benchmark -workload wave_n512 -trace 1     # one workload, one mode
//	go run ./benchmark -selfcheck                       # same-code noise check against the bounds
//	go run ./benchmark -quick                           # smoke sizes
//
// With -workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"mdm/internal/store"
)

// processStart is taken as early as the program can: the cold set-up
// measurement runs from process entry.
var processStart = time.Now()

// setupRuns is how many fresh child processes the cold set-up is the median
// of.
const setupRuns = 15

// selfcheckRuns is the number of runs in each of the selfcheck's two sets, as
// many as the acceptance driver makes. It is a constant so that every
// SELFCHECK.json is comparable with the committed one.
const selfcheckRuns = 10

// defaultOutDir holds reports, traces and scratch run-dirs; .gitignore names
// it. The paths are relative to the repository root, where the benchmark is
// run from.
const (
	defaultOutDir = "benchmark/out"
	selfcheckFile = "benchmark/SELFCHECK.json"
)

// defaultSeconds is BENCHMARK.json's run_seconds, the timed window the
// bounds were sized on.
const defaultSeconds = 15

// result is the last line a single-workload invocation prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record of one invocation, written under the output
// directory: the result plus everything needed to read it — the machine
// state, the sample counts behind every percentile, each validity check.
type report struct {
	Workload string      `json:"workload"`
	Trace    int         `json:"trace"`
	Quick    bool        `json:"quick"`
	Env      environment `json:"environment"`
	Result   result      `json:"result"`
	Checks   []check     `json:"checks"`
	Counts   counts      `json:"counts"`
	Error    string      `json:"error,omitempty"`
	// Samples are the timed operations behind step_cal_ms, in order, as
	// [operation, spin before, spin after] in raw milliseconds, so the
	// estimator can be re-run on a recorded run.
	Samples [][3]float64 `json:"samples_ms"`
}

// counts are the sample sizes behind the reported figures.
type counts struct {
	Samples      int     `json:"samples"`
	Blocks       int     `json:"blocks"`
	BlockSize    int     `json:"block_size"`
	FixedOps     int     `json:"fixed_ops"`
	SetupSamples int     `json:"setup_samples"`
	Replays      int     `json:"replays"`
	Spans        int     `json:"spans"`
	WindowS      float64 `json:"window_s"`
	StateHash    string  `json:"state_hash"`
	TemperatureK float64 `json:"temperature_k"`
}

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	quick     bool
	selfcheck bool
	child     string // hidden: cold set-up child for the named workload
	dir       string // hidden: scratch directory handed to a child
	outDir    string // defaultOutDir, except in tests
}

func main() {
	opt := options{outDir: defaultOutDir}
	flag.StringVar(&opt.workload, "workload", "", "run one workload (default: all five, each in its own child process)")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&opt.seconds, "seconds", defaultSeconds, "length of the timed window in seconds")
	flag.IntVar(&opt.trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&opt.quick, "quick", false, "smoke sizes: 2 blocks of 2 steps, 2 sessions, no child processes")
	flag.BoolVar(&opt.selfcheck, "selfcheck", false, "run two interleaved sets of timed runs of this build and judge the spread against the bounds")
	flag.StringVar(&opt.child, "setup-child", "", "internal: measure one cold set-up of the named workload")
	flag.StringVar(&opt.dir, "dir", "", "internal: scratch directory of a set-up child")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, opt)
	stop()
	os.Exit(code)
}

// run dispatches on the mode and returns the exit code. It returns rather
// than exits so that every deferred clean-up (scratch run-dirs) has run.
func run(ctx context.Context, opt options) int {
	var err error
	switch {
	case opt.child != "":
		err = setupChild(opt)
	case opt.selfcheck:
		err = selfcheck(ctx, opt)
	case opt.workload != "":
		err = runWorkload(ctx, opt)
	default:
		err = runAll(ctx, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// errIncorrect reports a run that completed but failed a validity check.
var errIncorrect = errors.New("validity checks failed")

// runWorkload measures one workload in one mode in this process (the cold
// set-up in fresh children), prints the figures, writes the report and ends
// with the result line.
func runWorkload(ctx context.Context, opt options) error {
	w, ok := findWorkload(opt.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.trace != 0 && opt.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", opt.trace)
	}
	if opt.quick {
		w = w.quick()
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(opt.outDir, "tmp-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(scratch) }()

	start := time.Now()
	steal0 := stealTicks()
	spawnThreads()
	cal := newCalibrator(w.cores)
	defer cal.close()
	budget := time.Duration(opt.seconds) * time.Second
	if opt.quick {
		budget = 0
	}
	rep := report{Workload: w.name, Trace: opt.trace, Quick: opt.quick}
	run := timedRun
	if opt.trace == 1 {
		run = tracedRun
	}
	runErr := run(ctx, opt, w, cal, budget, scratch, &rep)
	spins := make([]float64, len(rep.Samples))
	for i, s := range rep.Samples {
		spins[i] = s[1]
	}
	rep.Env = readEnvironment(opt.seed, spins, stealTicks()-steal0, time.Since(start))
	if runErr != nil {
		rep.Error = runErr.Error()
		rep.Result.Failed = max(rep.Result.Failed, 1)
	}
	rep.Result.Attempted = max(rep.Result.Attempted, 1)
	rep.Result.Correct = runErr == nil && rep.Result.Failed == 0

	printReport(rep)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("report_%s_trace%d.json", w.name, opt.trace)
	if err := store.WriteFileAtomic(store.OS(), filepath.Join(opt.outDir, name), data); err != nil {
		return err
	}
	if runErr != nil {
		// No result line: a run that could not finish has nothing to report.
		return runErr
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		return errIncorrect
	}
	return nil
}

// pass runs the workload once, timed (tr nil) or traced.
func pass(ctx context.Context, opt options, w workload, cal *calibrator, budget time.Duration, tr *tracer, scratch string) (*outcome, error) {
	if w.served {
		return runServed(ctx, w, opt.seed, budget, cal, tr, scratch)
	}
	return runMD(ctx, w, opt.seed, budget, cal, tr)
}

// absorb adds a pass's operation counts and checks to the report; the
// samples kept are those of the first pass (the untraced one).
func (rep *report) absorb(pass string, o *outcome) {
	rep.Result.Attempted += o.attempted
	rep.Result.Failed += o.failed
	for _, c := range o.checks {
		c.Name = pass + c.Name
		rep.Checks = append(rep.Checks, c)
	}
	if rep.Samples == nil {
		rep.Samples = make([][3]float64, len(o.samples))
		for i, s := range o.samples {
			rep.Samples[i] = [3]float64{ms(s.t), ms(s.before), ms(s.after)}
		}
	}
}

// timedRun is -trace 0: cold set-up in fresh children, then one untraced
// pass for the budget.
func timedRun(ctx context.Context, opt options, w workload, cal *calibrator, budget time.Duration, scratch string, rep *report) error {
	setup, n, err := measureSetup(ctx, opt, w, cal, scratch)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	o, err := pass(ctx, opt, w, cal, budget, nil, scratch)
	rep.absorb("", o)
	if err != nil {
		return err
	}
	_, blocks := o.stepCalMs()
	rep.Counts = counts{
		Samples: len(o.samples), Blocks: blocks, BlockSize: w.block, FixedOps: o.fixedOps,
		SetupSamples: n, WindowS: o.window.Seconds(),
		StateHash: fmt.Sprintf("%016x", o.hash), TemperatureK: o.tempK,
	}
	rep.Result.Metrics = collect(endToEnd, endToEndValues(o, setup))
	return nil
}

// tracedRun is -trace 1: a plain pass and a traced pass of the same seed,
// splitting the budget. The plain pass gives layer mdm's context figures and
// the hash the traced pass must reproduce at the end of the fixed portion;
// the difference between the two step costs is the tracing overhead.
func tracedRun(ctx context.Context, opt options, w workload, cal *calibrator, budget time.Duration, scratch string, rep *report) error {
	plain, err := pass(ctx, opt, w, cal, budget*2/5, nil, scratch)
	rep.absorb("plain/", plain)
	if err != nil {
		return err
	}
	tr := newTracer(w.name)
	traced, err := pass(ctx, opt, w, cal, budget*3/5, tr, scratch)
	rep.absorb("traced/", traced)
	if err != nil {
		return err
	}
	same := plain.hash == traced.hash
	rep.Checks = append(rep.Checks, check{
		Name: "traced_hash_equals_timed", OK: same,
		Detail: fmt.Sprintf("after %d operations: timed %016x, traced %016x", plain.fixedOps, plain.hash, traced.hash),
	})
	if !same {
		rep.Result.Failed++
	}
	dispatch, err := dispatchUs()
	if err != nil {
		return err
	}
	if err := tr.write(filepath.Join(opt.outDir, "trace_"+w.name+".json")); err != nil {
		return err
	}
	_, blocks := plain.stepCalMs()
	rep.Counts = counts{
		Samples: len(plain.samples), Blocks: blocks, BlockSize: w.block, FixedOps: plain.fixedOps,
		Spans: len(tr.spans), WindowS: plain.window.Seconds(),
		StateHash: fmt.Sprintf("%016x", traced.hash), TemperatureK: traced.tempK,
	}
	if traced.rp != nil {
		rep.Counts.Replays = traced.rp.replays
	}
	rep.Result.Metrics = collect(perLayer, perLayerValues(plain, traced, tr, dispatch))
	return nil
}

// printReport prints every metric by name with its unit, the validity
// checks, the sample counts and the environment.
func printReport(rep report) {
	fmt.Printf("workload %s  trace %d  seed %d\n", rep.Workload, rep.Trace, rep.Env.Seed)
	names := make([]string, 0, len(rep.Result.Metrics))
	for name := range rep.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Result.Metrics[name]
		fmt.Printf("  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, c := range rep.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Printf("  check %s %-34s %s\n", verdict, c.Name, c.Detail)
	}
	c := rep.Counts
	fmt.Printf("  samples %d  blocks %d x %d  fixed ops %d  set-up samples %d  replays %d  spans %d  window %.1f s\n",
		c.Samples, c.Blocks, c.BlockSize, c.FixedOps, c.SetupSamples, c.Replays, c.Spans, c.WindowS)
	fmt.Printf("  ops attempted %d  failed %d\n", rep.Result.Attempted, rep.Result.Failed)
	e := rep.Env
	fmt.Printf("  env: commit %s  %s  GOMAXPROCS %d  NumCPU %d  %s\n", e.GitCommit, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel)
	fmt.Printf("  env: cal nominal %.3f ms  run p10 %.3f  p50 %.3f  steal ticks %d  wall %.1f s\n",
		e.CalNominalMs, e.CalMsP10, e.CalMsP50, e.StealTicks, e.WallS)
	if e.CalMsP50 > 2*e.CalNominalMs {
		fmt.Println("  note: the machine was heavily contended (median spin over twice nominal); the elasticities were fitted up to that")
	}
	if rep.Error != "" {
		fmt.Printf("  error: %s\n", rep.Error)
	}
}

// childResult runs this program again with args and decodes the last line of
// its standard output into v. The child is always waited for.
func childResult(ctx context.Context, v any, args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("child %v: %w", args, err)
	}
	last := bytes.TrimRight(out, "\n")
	last = last[bytes.LastIndexByte(last, '\n')+1:]
	if err := json.Unmarshal(last, v); err != nil {
		return out, fmt.Errorf("child %v: last line: %w", args, err)
	}
	return out, nil
}

// runAll runs every workload, timed then traced, each invocation in its own
// child process and never two at once, echoing each child's figures. It
// fails if any child fails a validity check.
func runAll(ctx context.Context, opt options) error {
	bad := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			var res result
			out, err := childResult(ctx, &res, workloadArgs(opt, w.name, opt.seed, trace)...)
			_, _ = os.Stdout.Write(out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				bad++
			}
			if ctx.Err() != nil {
				return errInterrupted
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d runs failed", bad, 2*len(workloads))
	}
	return nil
}

// workloadArgs is the argument list of a single-workload invocation.
func workloadArgs(opt options, name string, seed int64, trace int) []string {
	args := []string{
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(opt.seconds),
		"-trace", fmt.Sprint(trace),
	}
	if opt.quick {
		args = append(args, "-quick")
	}
	return args
}
