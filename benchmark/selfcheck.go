package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mdm/internal/store"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// selfRow is the verdict on one metric of one workload.
type selfRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Bound    float64   `json:"bound"`
	MedianA  float64   `json:"median_a"`
	MedianB  float64   `json:"median_b"`
	SpreadA  float64   `json:"spread_a"`
	SpreadB  float64   `json:"spread_b"`
	Worse    float64   `json:"b_worse_than_a"`
	Steady   bool      `json:"steady"` // both spreads below a third of the bound
	Pass     bool      `json:"pass"`
	ValuesA  []float64 `json:"values_a"`
	ValuesB  []float64 `json:"values_b"`
}

// elasticityFit is the refit of one workload's calibration elasticity over
// the selfcheck's runs, next to the frozen value in use.
type elasticityFit struct {
	Workload string  `json:"workload"`
	Frozen   float64 `json:"frozen"`
	Fitted   float64 `json:"fitted"` // Theil–Sen slope; 0 with Pairs 0: the runs saw one machine state only
	Runs     int     `json:"runs"`
	Pairs    int     `json:"pairs"`
	SpinMin  float64 `json:"run_spin_ms_min"`
	SpinMax  float64 `json:"run_spin_ms_max"`
}

// runPoint is one recorded run: log median spin, log median operation time.
type runPoint struct{ x, y float64 }

// readRunPoint reads the samples a child run recorded in its report.
func readRunPoint(path string) (runPoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return runPoint{}, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return runPoint{}, err
	}
	var t, spin []float64
	for _, s := range rep.Samples {
		t = append(t, s[0])
		spin = append(spin, (s[1]+s[2])/2)
	}
	return runPoint{math.Log(median(spin)), math.Log(median(t))}, nil
}

// fitElasticity is the Theil–Sen slope of log(operation time) on log(spin
// time) across runs: the median slope over all pairs of runs whose spins
// differ by more than 8 % (closer pairs carry no information about it).
func fitElasticity(w workload, pts []runPoint) elasticityFit {
	fit := elasticityFit{Workload: w.name, Frozen: w.elasticity, Runs: len(pts)}
	var spins, slopes []float64
	for i, a := range pts {
		spins = append(spins, math.Exp(a.x))
		for _, b := range pts[i+1:] {
			if dx := b.x - a.x; math.Abs(dx) > 0.08 {
				slopes = append(slopes, (b.y-a.y)/dx)
			}
		}
	}
	fit.SpinMin, fit.SpinMax = percentile(spins, 0), percentile(spins, 1)
	fit.Pairs, fit.Fitted = len(slopes), median(slopes)
	return fit
}

// selfReport is benchmark/SELFCHECK.json.
type selfReport struct {
	Date        string    `json:"date"`
	GitCommit   string    `json:"git_commit"`
	GoVersion   string    `json:"go_version"`
	CPUModel    string    `json:"cpu_model"`
	NumCPU      int       `json:"num_cpu"`
	RunsPerSet  int       `json:"runs_per_set"`
	Seconds     int       `json:"seconds"`
	Pass        bool      `json:"pass"`
	Rows        []selfRow `json:"rows"`
	RunsFailed  int       `json:"runs_failed"`
	WallSeconds float64   `json:"wall_seconds"`

	Elasticity []elasticityFit `json:"elasticity"`
}

// judge compares two sets of same-code values of a lower-is-better metric
// the way the acceptance driver does: each set's quartile spread must stay
// within the bound (set-up time is exempt from the spread rule), and the
// second median may not be worse than the first by more than the bound.
func judge(row *selfRow) {
	row.MedianA, row.MedianB = median(row.ValuesA), median(row.ValuesB)
	row.SpreadA, row.SpreadB = quartileSpread(row.ValuesA), quartileSpread(row.ValuesB)
	row.Worse = ratio(row.MedianB-row.MedianA, row.MedianA)
	spread := max(row.SpreadA, row.SpreadB)
	row.Steady = spread < row.Bound/3
	row.Pass = row.Worse <= row.Bound && (row.Metric == "setup_s" || spread <= row.Bound)
}

// selfcheck runs two interleaved sets (A B A B …) of timed runs of this
// build — run i of either set uses seed i, as the driver's ten runs each use
// another seed — and judges every end-to-end metric × workload against the
// bound in BENCHMARK.json. It writes benchmark/SELFCHECK.json and fails if
// any row fails.
func selfcheck(ctx context.Context, opt options) error {
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	start := time.Now()
	values := map[string][2][]float64{} // workload/metric → set → values
	points := map[string][]runPoint{}   // workload → one point per run
	failed := 0
	fsys := store.OS()
	for i := 1; i <= selfcheckRuns; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				var res result
				_, err := childResult(ctx, &res, workloadArgs(opt, w.name, int64(i), 0)...)
				if ctx.Err() != nil {
					return errInterrupted
				}
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "benchmark: selfcheck run %d%c of %s failed: %v\n", i, 'A'+set, w.name, err)
					failed++
					continue
				}
				for name, m := range res.Metrics {
					key := w.name + "/" + name
					v := values[key]
					v[set] = append(v[set], m.Value)
					values[key] = v
				}
				// Each run's report, with its recorded samples, is kept in a
				// directory of its own, so an estimator can be re-run on them.
				name := "report_" + w.name + "_trace0.json"
				kept := filepath.Join(opt.outDir, fmt.Sprintf("selfcheck-%02d%c", i, 'A'+set))
				if err := fsys.MkdirAll(kept); err != nil {
					return err
				}
				if err := fsys.Rename(filepath.Join(opt.outDir, name), filepath.Join(kept, name)); err != nil {
					return err
				}
				pt, err := readRunPoint(filepath.Join(kept, name))
				if err != nil {
					return err
				}
				points[w.name] = append(points[w.name], pt)
				fmt.Printf("run %2d%c %-18s step_cal_ms %.4f\n", i, 'A'+set, w.name, res.Metrics["step_cal_ms"].Value)
			}
		}
	}

	rep := selfReport{
		Date: time.Now().UTC().Format(time.RFC3339), GitCommit: gitCommit(), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), RunsPerSet: selfcheckRuns, Seconds: opt.seconds,
		RunsFailed: failed, Pass: failed == 0,
	}
	fmt.Printf("\n%-18s %-22s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "spread A", "spread B", "B worse", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			v := values[w.name+"/"+m.Name]
			row := selfRow{Workload: w.name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound, ValuesA: v[0], ValuesB: v[1]}
			judge(&row)
			verdict := "PASS"
			switch {
			case !row.Pass:
				verdict = "FAIL"
				rep.Pass = false
			case !row.Steady && m.Name != "setup_s":
				verdict = "PASS (spread above a third of the bound)"
			}
			fmt.Printf("%-18s %-22s %12.6g %12.6g %7.2f%% %7.2f%% %+7.2f%% %5.0f%%  %s\n",
				row.Workload, row.Metric, row.MedianA, row.MedianB,
				100*row.SpreadA, 100*row.SpreadB, 100*row.Worse, 100*row.Bound, verdict)
			rep.Rows = append(rep.Rows, row)
		}
	}
	fmt.Printf("\n%-18s %8s %8s %5s %6s  %s\n", "elasticity", "frozen", "fitted", "runs", "pairs", "run median spin min-max (ms)")
	for _, w := range workloads {
		fit := fitElasticity(w, points[w.name])
		fmt.Printf("%-18s %8.2f %8.2f %5d %6d  %.3f-%.3f\n", fit.Workload, fit.Frozen, fit.Fitted, fit.Runs, fit.Pairs, fit.SpinMin, fit.SpinMax)
		rep.Elasticity = append(rep.Elasticity, fit)
	}
	rep.WallSeconds = time.Since(start).Seconds()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := store.WriteFileAtomic(fsys, selfcheckFile, data); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", selfcheckFile)
	if !rep.Pass {
		return fmt.Errorf("selfcheck failed (%d runs failed)", failed)
	}
	return nil
}
