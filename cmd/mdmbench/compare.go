// Benchmark artifact comparison: `mdmbench -compare OLD.json NEW.json` sets
// two reports recorded by scripts/bench.sh side by side. Configurations are
// matched by (name, workers), weak-scaling rungs by rank count.
//
// The verdict rests only on what is deterministic for a given tree, so one
// recording always suffices:
//
//   - allocs/op grew by more than half an allocation: steady-state counts are
//     exact integers, so a real leak adds at least 1.0/op, while the recorded
//     figure carries sub-integer jitter (it is a process-wide Mallocs delta
//     over the timing window);
//   - a tag's bytes grew on the rebuild or reuse step of a rung of equal N;
//   - a rung's rebuild or reuse step force error is above weakForceErrCap,
//     or rose 10 % above the old record's;
//   - the machine's real or wave stage error against float64 (the report's
//     accuracy object) rose 10 % above the old record's.
//
// ns/op deltas are printed as information, never judged: on a shared host
// they move ±40 % with the co-tenants. Wall time is argued from
// `go run ./benchmark`, which calibrates and pairs its runs.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mdm/internal/core"
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

// normalised renders the per-pair / per-particle·wave form of a row when both
// reports recorded it (older artifacts carry none).
func normalised(or, nr Result) string {
	switch {
	case or.NsPerPair > 0 && nr.NsPerPair > 0:
		return fmt.Sprintf("  ns/pair %.2f → %.2f", or.NsPerPair, nr.NsPerPair)
	case or.NsPerParticleWave > 0 && nr.NsPerParticleWave > 0:
		return fmt.Sprintf("  ns/particle·wave %.2f → %.2f", or.NsPerParticleWave, nr.NsPerParticleWave)
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

func (k benchKey) String() string { return fmt.Sprintf("%s/w%d", k.name, k.workers) }

// errText renders a force error column; records up to BENCH_8 carry none.
func errText(e float64) string {
	if e == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3g", e)
}

// compareRung prints one weak-scaling rung's traffic and accuracy against the
// old record's rung of the same rank count (nil, or of a different size, when
// there is nothing comparable) and returns its regressions.
func compareRung(w io.Writer, or *WeakScalingResult, r WeakScalingResult) int {
	regressions := 0
	if or != nil {
		for _, step := range []struct {
			name     string
			old, new []TagTraffic
		}{{"rebuild", or.RebuildTraffic, r.RebuildTraffic}, {"reuse", or.ReuseTraffic, r.ReuseTraffic}} {
			for _, t := range step.new {
				was, mark := bytesFor(step.old, t.Tag), ""
				if t.Bytes > was {
					mark = "  TRAFFIC REGRESSION"
					regressions++
				}
				fmt.Fprintf(w, "    %-7s %-12s %9d → %d B%s\n", step.name, t.Name, was, t.Bytes, mark)
			}
		}
	} else {
		or = &WeakScalingResult{}
	}
	mark := ""
	switch {
	case r.overForceErrCap():
		mark = fmt.Sprintf("  ACCURACY REGRESSION (above the %g cap)", weakForceErrCap)
	case or.RebuildForceRelErr > 0 && r.RebuildForceRelErr > 1.1*or.RebuildForceRelErr,
		or.ReuseForceRelErr > 0 && r.ReuseForceRelErr > 1.1*or.ReuseForceRelErr:
		mark = "  ACCURACY REGRESSION (> 10 % above the old record)"
	}
	if mark != "" {
		regressions++
	}
	fmt.Fprintf(w, "    force error vs reference: rebuild %s → %s, reuse %s → %s%s\n",
		errText(or.RebuildForceRelErr), errText(r.RebuildForceRelErr),
		errText(or.ReuseForceRelErr), errText(r.ReuseForceRelErr), mark)
	return regressions
}

// compareAccuracy prints the machine's stage errors against the old record's
// and returns its regressions: the real or the wave stage more than 10 % above
// an old record that carries the object. The rest is information.
func compareAccuracy(w io.Writer, old, acc *core.Accuracy) int {
	if acc == nil {
		return 0
	}
	if old == nil {
		old = &core.Accuracy{}
	}
	fmt.Fprintln(w, "machine vs float64 over its own pair set and wave set (RMS, relative):")
	regressions := 0
	for _, st := range []struct {
		name     string
		old, new float64
		gated    bool
	}{
		{"real", old.Real.RMS, acc.Real.RMS, true},
		{"wave", old.Wave.RMS, acc.Wave.RMS, true},
		{"total", old.Total.RMS, acc.Total.RMS, false},
		{"potential", old.Potential, acc.Potential, false},
		{"truncation", old.Truncation.RMS, acc.Truncation.RMS, false},
	} {
		mark := ""
		if st.gated && st.old > 0 && st.new > 1.1*st.old {
			mark = "  ACCURACY REGRESSION (> 10 % above the old record)"
			regressions++
		}
		fmt.Fprintf(w, "    %-10s %s → %s%s\n", st.name, errText(st.old), errText(st.new), mark)
	}
	return regressions
}

// compareReports writes the summary to w and returns the number of regressions.
func compareReports(w io.Writer, aPath, bPath string) (int, error) {
	a, err := readReport(aPath)
	if err != nil {
		return 0, err
	}
	b, err := readReport(bPath)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "ns/op deltas are information, not a verdict — %s: num_cpu=%d gomaxprocs=%d n=%d; %s: num_cpu=%d gomaxprocs=%d n=%d\n",
		aPath, a.NumCPU, a.GOMAXPROCS, a.N, bPath, b.NumCPU, b.GOMAXPROCS, b.N)

	old := make(map[benchKey]Result, len(a.Results))
	// Reports from before alloc recording carry 0 everywhere; only a record
	// that measured allocations can be regressed against.
	oldHasAllocs := false
	for _, r := range a.Results {
		old[benchKey{r.Name, r.Workers}] = r
		oldHasAllocs = oldHasAllocs || r.AllocsPerOp > 0
	}
	regressions := 0
	fmt.Fprintf(w, "%-34s %14s %14s %9s %16s\n", "configuration", "old ns/op", "new ns/op", "delta", "allocs/op")
	kept := make(map[benchKey]bool, len(b.Results))
	for _, nr := range b.Results {
		k := benchKey{nr.Name, nr.Workers}
		kept[k] = true
		or, ok := old[k]
		if !ok {
			fmt.Fprintf(w, "%-34s %14s %14.0f %9s %16.1f\n", k, "-", nr.NsPerOp, "new", nr.AllocsPerOp)
			continue
		}
		mark := ""
		// The half-alloc slack absorbs window-counting jitter; a leak is at
		// least +1.0/op.
		if oldHasAllocs && nr.AllocsPerOp > or.AllocsPerOp+0.5 {
			mark = "  ALLOC REGRESSION"
			regressions++
		}
		scaling := ""
		if k.workers > 1 {
			scaling = fmt.Sprintf("  speedup %s → %s", speedupText(or.Speedup, k.workers, a.NumCPU), speedupText(nr.Speedup, k.workers, b.NumCPU))
		}
		fmt.Fprintf(w, "%-34s %14.0f %14.0f %+8.1f%% %7.1f → %-7.1f%s%s%s\n",
			k, or.NsPerOp, nr.NsPerOp, 100*(nr.NsPerOp/or.NsPerOp-1), or.AllocsPerOp, nr.AllocsPerOp, normalised(or, nr), scaling, mark)
	}
	for _, r := range a.Results {
		if k := (benchKey{r.Name, r.Workers}); !kept[k] {
			fmt.Fprintf(w, "%-34s %14.0f %14s\n", k, r.NsPerOp, "dropped")
		}
	}

	oldWeak := make(map[int]*WeakScalingResult, len(a.WeakScaling))
	for i, r := range a.WeakScaling {
		oldWeak[r.Ranks] = &a.WeakScaling[i]
	}
	for _, r := range b.WeakScaling {
		label := fmt.Sprintf("weakScaling/p%d", r.Ranks)
		or := oldWeak[r.Ranks]
		if or != nil && or.N != r.N {
			or = nil // a different rung size: nothing comparable
		}
		if or == nil {
			fmt.Fprintf(w, "%-34s %14s %14.0f %9s per-particle eff %.2f\n", label, "-", r.NsPerStep, "new", r.PerParticleEff)
		} else {
			fmt.Fprintf(w, "%-34s %14.0f %14.0f %+8.1f%% per-particle eff %.2f → %.2f  wall eff %s → %s\n",
				label, or.NsPerStep, r.NsPerStep, 100*(r.NsPerStep/or.NsPerStep-1), or.PerParticleEff, r.PerParticleEff,
				speedupText(or.WallEfficiency, r.Ranks, a.NumCPU), speedupText(r.WallEfficiency, r.Ranks, b.NumCPU))
		}
		regressions += compareRung(w, or, r)
	}
	regressions += compareAccuracy(w, a.Accuracy, b.Accuracy)
	if regressions > 0 {
		fmt.Fprintf(w, "\n%d regression(s) in allocs/op, traffic bytes or force error\n", regressions)
	} else {
		fmt.Fprintln(w, "\nno regressions in allocs/op, traffic bytes or force error")
	}
	return regressions, nil
}
