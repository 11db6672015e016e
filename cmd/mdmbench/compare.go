// Benchmark artifact comparison: `mdmbench -compare A.json B.json` renders a
// regression summary between two reports recorded by scripts/bench.sh, so a
// perf change can be judged from checked-in artifacts instead of re-running
// both sides. Configurations are matched by (name, workers); pipeline rows by
// workers. A configuration is called a regression when the new ns/op exceeds
// the old by more than the threshold, or when allocs/op grew by more than
// half an allocation per op: the arena work made per-step allocation counts
// exact integers, so a real leak adds at least 1.0/op, while the recorded
// figure carries sub-integer jitter (it is a process-wide Mallocs delta over
// the timing window, so background runtime allocation and amortized
// rebuild-cadence effects land in the fraction).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &rep, nil
}

// normalised renders the per-pair / per-particle·wave / per-particle·step
// form of a row when both reports recorded it (older artifacts carry none);
// informative only — the verdict stays on ns/op, of which these are a
// constant fraction.
func normalised(or, nr Result) string {
	switch {
	case or.NsPerPair > 0 && nr.NsPerPair > 0:
		return fmt.Sprintf("  ns/pair %.2f → %.2f", or.NsPerPair, nr.NsPerPair)
	case or.NsPerParticleWave > 0 && nr.NsPerParticleWave > 0:
		return fmt.Sprintf("  ns/particle·wave %.2f → %.2f", or.NsPerParticleWave, nr.NsPerParticleWave)
	case or.NsPerParticleStep > 0 && nr.NsPerParticleStep > 0:
		return fmt.Sprintf("  ns/particle·step %.0f → %.0f", or.NsPerParticleStep, nr.NsPerParticleStep)
	}
	return ""
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

// overlapLanes is the width the engine overlap occupies at a pool width: the
// wave pass needs a core of its own beside the sweep's pool.
func overlapLanes(workers int) int { return max(workers, 2) }

type benchKey struct {
	name    string
	workers int
}

// compareReports prints the summary and returns the number of regressions.
func compareReports(aPath, bPath string, threshold float64) (int, error) {
	a, err := readReport(aPath)
	if err != nil {
		return 0, err
	}
	b, err := readReport(bPath)
	if err != nil {
		return 0, err
	}
	if a.GOMAXPROCS != b.GOMAXPROCS || a.NumCPU != b.NumCPU || a.N != b.N {
		fmt.Printf("note: environments differ (%s: gomaxprocs=%d num_cpu=%d n=%d; %s: gomaxprocs=%d num_cpu=%d n=%d) — deltas are indicative only\n",
			aPath, a.GOMAXPROCS, a.NumCPU, a.N, bPath, b.GOMAXPROCS, b.NumCPU, b.N)
	}

	old := make(map[benchKey]Result, len(a.Results))
	for _, r := range a.Results {
		old[benchKey{r.Name, r.Workers}] = r
	}
	regressions := 0
	fmt.Printf("%-34s %14s %14s %9s %16s\n", "configuration", aPath+" ns/op", bPath+" ns/op", "delta", "allocs/op")
	keys := make([]benchKey, 0, len(b.Results))
	for _, r := range b.Results {
		keys = append(keys, benchKey{r.Name, r.Workers})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].workers < keys[j].workers
	})
	newByKey := make(map[benchKey]Result, len(b.Results))
	for _, r := range b.Results {
		newByKey[benchKey{r.Name, r.Workers}] = r
	}
	for _, k := range keys {
		nr := newByKey[k]
		or, ok := old[k]
		label := fmt.Sprintf("%s/w%d", k.name, k.workers)
		if !ok {
			fmt.Printf("%-34s %14s %14.0f %9s %16.1f\n", label, "-", nr.NsPerOp, "new", nr.AllocsPerOp)
			continue
		}
		delta := nr.NsPerOp/or.NsPerOp - 1
		mark := ""
		if delta > threshold {
			mark = "  REGRESSION"
			regressions++
		} else if or.AllocsPerOp > 0 && nr.AllocsPerOp > or.AllocsPerOp+0.5 {
			// Reports from before alloc recording carry 0; only a real
			// old measurement can regress. The half-alloc slack absorbs
			// window-counting jitter; a leak is at least +1.0/op.
			mark = "  ALLOC REGRESSION"
			regressions++
		}
		scaling := ""
		if k.workers > 1 {
			scaling = fmt.Sprintf("  speedup %s → %s", speedupText(or.Speedup, k.workers, a.NumCPU), speedupText(nr.Speedup, k.workers, b.NumCPU))
		}
		fmt.Printf("%-34s %14.0f %14.0f %+8.1f%% %7.1f → %-7.1f%s%s%s\n",
			label, or.NsPerOp, nr.NsPerOp, 100*delta, or.AllocsPerOp, nr.AllocsPerOp, normalised(or, nr), scaling, mark)
	}
	for _, r := range a.Results {
		if _, ok := newByKey[benchKey{r.Name, r.Workers}]; !ok {
			fmt.Printf("%-34s %14.0f %14s\n", fmt.Sprintf("%s/w%d", r.Name, r.Workers), r.NsPerOp, "dropped")
		}
	}

	oldPipe := make(map[int]PipelineResult, len(a.Pipeline))
	for _, p := range a.Pipeline {
		oldPipe[p.Workers] = p
	}
	for _, p := range b.Pipeline {
		op, ok := oldPipe[p.Workers]
		if !ok {
			continue
		}
		delta := p.OnNsPerOp/op.OnNsPerOp - 1
		mark := ""
		if delta > threshold {
			mark = "  REGRESSION"
			regressions++
		}
		lanes := overlapLanes(p.Workers)
		fmt.Printf("%-34s %14.0f %14.0f %+8.1f%% speedup %s → %s%s\n",
			fmt.Sprintf("pipeline-on/w%d", p.Workers), op.OnNsPerOp, p.OnNsPerOp, 100*delta,
			speedupText(op.Speedup, lanes, a.NumCPU), speedupText(p.Speedup, lanes, b.NumCPU), mark)
	}
	oldWeak := make(map[int]WeakScalingResult, len(a.WeakScaling))
	for _, r := range a.WeakScaling {
		oldWeak[r.Ranks] = r
	}
	for _, r := range b.WeakScaling {
		label := fmt.Sprintf("weakScaling/p%d", r.Ranks)
		or, ok := oldWeak[r.Ranks]
		if !ok || or.N != r.N {
			// No prior weak-scaling section (pre-decomposition artifact) or a
			// different rung size: nothing comparable.
			fmt.Printf("%-34s %14s %14.0f %9s per-particle eff %.2f\n",
				label, "-", r.NsPerStep, "new", r.PerParticleEff)
			continue
		}
		delta := r.NsPerStep/or.NsPerStep - 1
		mark := ""
		if delta > threshold {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Printf("%-34s %14.0f %14.0f %+8.1f%% per-particle eff %.2f → %.2f  wall eff %s → %s%s\n",
			label, or.NsPerStep, r.NsPerStep, 100*delta, or.PerParticleEff, r.PerParticleEff,
			speedupText(or.WallEfficiency, r.Ranks, a.NumCPU), speedupText(r.WallEfficiency, r.Ranks, b.NumCPU), mark)
	}
	if regressions > 0 {
		fmt.Printf("\n%d regression(s) beyond %.0f%%\n", regressions, 100*threshold)
	} else {
		fmt.Printf("\nno regressions beyond %.0f%%\n", 100*threshold)
	}
	return regressions, nil
}
