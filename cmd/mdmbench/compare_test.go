package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdm/internal/core"
)

func writeReport(t *testing.T, dir, name string, rep Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The -compare contract: wall time is printed and never judged; allocs/op,
// per-tag traffic bytes, the decomposition's force error and the machine's
// real and wave stage errors are.
func TestCompareReports(t *testing.T) {
	rung := func() WeakScalingResult {
		return WeakScalingResult{
			Ranks: 8, N: 512, NsPerStep: 2e6,
			RebuildTraffic:     []TagTraffic{{Tag: 100, Name: "halo", Bytes: 143360}, {Tag: 101, Name: "forces", Bytes: 32776}},
			ReuseTraffic:       []TagTraffic{{Tag: 104, Name: "ghost-pos", Bytes: 86016}, {Tag: 101, Name: "forces", Bytes: 32776}},
			RebuildForceRelErr: 1.4e-5, ReuseForceRelErr: 1.6e-5,
		}
	}
	base := func() Report {
		return Report{
			GOMAXPROCS: 2, NumCPU: 2, N: 64,
			Results: []Result{
				{Name: "forces", Workers: 1, NsPerOp: 1000, AllocsPerOp: 10},
				{Name: "forces", Workers: 2, NsPerOp: 600, AllocsPerOp: 10},
			},
			WeakScaling: []WeakScalingResult{rung()},
			Accuracy: &core.Accuracy{N: 64,
				Real: core.StageError{RMS: 3e-6, Worst: 1e-5}, Wave: core.StageError{RMS: 2.4e-5, Worst: 6e-5},
				Total: core.StageError{RMS: 1.2e-5, Worst: 3e-5}, Potential: 4e-7, Truncation: core.StageError{RMS: 6.5e-3, Worst: 2e-2}},
		}
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name     string
		old, new func(*Report)
		want     int
		printed  string
	}{
		{name: "identical", want: 0, printed: "no regressions"},
		{name: "+50% ns/op alone is printed, not judged", want: 0, printed: "+50.0%",
			new: func(r *Report) { r.Results[1].NsPerOp = 900; r.WeakScaling[0].NsPerStep = 3e6 }},
		{name: "a new row is never a regression", want: 0, printed: "fresh/w1",
			new: func(r *Report) {
				r.Results = append(r.Results, Result{Name: "fresh", Workers: 1, NsPerOp: 200, AllocsPerOp: 5})
			}},
		{name: "a dropped row is listed", want: 0, printed: "forces/w2                                     600        dropped",
			new: func(r *Report) { r.Results = r.Results[:1] }},
		{name: "+1 alloc/op", want: 1, printed: "ALLOC REGRESSION",
			new: func(r *Report) { r.Results[0].AllocsPerOp = 11 }},
		{name: "alloc jitter below half an allocation", want: 0,
			new: func(r *Report) { r.Results[0].AllocsPerOp = 10.4 }},
		{name: "a zero-alloc row of a record that measured allocs can regress", want: 1, printed: "ALLOC REGRESSION",
			old: func(r *Report) { r.Results[0].AllocsPerOp = 0 }, new: func(r *Report) { r.Results[0].AllocsPerOp = 3 }},
		{name: "an old record from before alloc recording cannot be regressed against", want: 0,
			old: func(r *Report) { r.Results[0].AllocsPerOp, r.Results[1].AllocsPerOp = 0, 0 }},
		{name: "one tag's bytes grow on a rung of equal N", want: 1, printed: "TRAFFIC REGRESSION",
			new: func(r *Report) { r.WeakScaling[0].ReuseTraffic[0].Bytes += 24 }},
		{name: "a tag appears on the reuse step", want: 1, printed: "TRAFFIC REGRESSION",
			new: func(r *Report) {
				r.WeakScaling[0].ReuseTraffic = append(r.WeakScaling[0].ReuseTraffic, TagTraffic{Tag: 100, Name: "halo", Bytes: 8})
			}},
		{name: "a rung of different N is not comparable", want: 0, printed: "per-particle eff 0.00\n",
			new: func(r *Report) { r.WeakScaling[0].N = 1728; r.WeakScaling[0].RebuildTraffic[0].Bytes *= 3 }},
		{name: "a reuse step above the cap", want: 1, printed: "above the 5e-05 cap",
			new: func(r *Report) { r.WeakScaling[0].ReuseForceRelErr = 6e-5 }},
		{name: "force error 20% above the old record", want: 1, printed: "above the old record",
			new: func(r *Report) { r.WeakScaling[0].RebuildForceRelErr *= 1.2; r.WeakScaling[0].ReuseForceRelErr *= 1.2 }},
		{name: "an old record without the accuracy columns", want: 0, printed: "rebuild - → 1.4e-05",
			old: func(r *Report) { r.WeakScaling[0].RebuildForceRelErr, r.WeakScaling[0].ReuseForceRelErr = 0, 0 }},
	} {
		older, newer := base(), base()
		if c.old != nil {
			c.old(&older)
		}
		if c.new != nil {
			c.new(&newer)
		}
		var out bytes.Buffer
		got, err := compareReports(&out, writeReport(t, dir, "a.json", older), writeReport(t, dir, "b.json", newer))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want || !strings.Contains(out.String(), c.printed) {
			t.Errorf("%s: %d regressions, want %d with %q in:\n%s", c.name, got, c.want, c.printed, out.String())
		}
	}
}

// A record in BENCH_8's shape — Figure-2 step families with a
// per-particle·step column, "pipeline" and "batch" arrays, rungs without the
// accuracy columns — still reads; what the program no longer records is listed
// as dropped, not refused.
func TestCompareReportsClean(t *testing.T) {
	dir := t.TempDir()
	rep := Report{
		GOMAXPROCS: 2, NumCPU: 2, N: 64,
		Results: []Result{{Name: "forces", Workers: 1, NsPerOp: 1000, AllocsPerOp: 10}},
		WeakScaling: []WeakScalingResult{{Ranks: 1, N: 64, NsPerStep: 3e5, RebuildForceRelErr: 1.3e-5, ReuseForceRelErr: 1.2e-5,
			RebuildTraffic: []TagTraffic{{Tag: 101, Name: "forces", Messages: 2, Bytes: 4104}}}},
	}
	a := writeReport(t, dir, "a.json", rep)
	legacy := filepath.Join(dir, "legacy.json")
	const body = `{"gomaxprocs":2,"num_cpu":2,"n_particles":64,
		"results":[{"name":"forces","workers":1,"ns_per_op":1000,"allocs_per_op":10},
			{"name":"oldStepFamily","workers":1,"ns_per_op":3871560,"allocs_per_op":10,"ns_per_particle_step":17923.9}],
		"pipeline":[{"workers":2,"off_ns_per_op":900,"on_ns_per_op":800,"speedup":1.5}],
		"batch":[{"k":16,"steps":25,"batched_ns_per_run":1e9,"sequential_ns_per_run":1e9,"speedup":1.0}],
		"weak_scaling":[{"ranks":1,"n":64,"ns_per_step":340035,"rebuild_traffic":[{"tag":101,"name":"forces","messages":2,"bytes":4104}]}]}`
	if err := os.WriteFile(legacy, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	got, err := compareReports(&out, legacy, a)
	if err != nil || got != 0 {
		t.Fatalf("BENCH_8-shaped old record: got %d regressions, %v; want 0\n%s", got, err, out.String())
	}
	for _, want := range []string{"oldStepFamily/w1", "dropped", "4104 → 4104 B", "rebuild - → 1.3e-05"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// mdmbench refuses sample counts it cannot time with before running anything.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		iters, reps, weakSteps int
		ok                     bool
	}{
		{10, 3, 6, true},
		{1, 1, 0, true}, // -weak-steps 0 skips the family
		{0, 3, 6, false},
		{10, 0, 6, false},
		{10, 3, -1, false},
	} {
		if err := checkFlags(c.iters, c.reps, c.weakSteps); (err == nil) != c.ok {
			t.Errorf("checkFlags(iters %d, reps %d, weak-steps %d) = %v, want ok=%v", c.iters, c.reps, c.weakSteps, err, c.ok)
		}
	}
}

// The normalised columns appear only when both artifacts recorded them, and a
// report without them still decodes and compares (older BENCH files).
func TestNormalisedColumnsNeedBothSides(t *testing.T) {
	old := Result{Name: "machineForces", Workers: 1, NsPerOp: 1000}
	withPair := Result{Name: "machineForces", Workers: 1, NsPerOp: 800, NsPerPair: 4}
	if got := normalised(old, withPair); got != "" {
		t.Errorf("older side without ns_per_pair rendered %q", got)
	}
	if got := normalised(withPair, withPair); got != "  ns/pair 4.00 → 4.00" {
		t.Errorf("both sides with ns_per_pair rendered %q", got)
	}
	wave := Result{Name: "wine2DFTIDFT", Workers: 1, NsPerOp: 800, NsPerParticleWave: 9.5}
	if got := normalised(wave, wave); got != "  ns/particle·wave 9.50 → 9.50" {
		t.Errorf("both sides with ns_per_particle_wave rendered %q", got)
	}
	data, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"name":"machineForces","workers":1,"ns_per_op":1000,"speedup":0,"allocs_per_op":0}` {
		t.Errorf("a row without normalised figures must not grow keys: %s", data)
	}
}

// A ratio measured at a width the host could not give a core per lane is
// rendered n/a: BENCH_5–7's width-4/8 columns and p = 8/27 rungs were recorded
// on two cores.
func TestSpeedupTextNeedsACorePerLane(t *testing.T) {
	for _, c := range []struct {
		ratio         float64
		width, numCPU int
		want          string
	}{
		{1.9, 2, 2, "1.90"},
		{0.95, 4, 2, "n/a"}, // workers > num_cpu
		{0.16, 8, 2, "n/a"}, // ranks > num_cpu
		{1, 1, 1, "1.00"},
		{1.25, 2, 1, "n/a"}, // the overlap's two lanes on one core
		{3.7, 4, 8, "3.70"},
	} {
		if got := speedupText(c.ratio, c.width, c.numCPU); got != c.want {
			t.Errorf("speedupText(%g, width %d, num_cpu %d) = %q, want %q", c.ratio, c.width, c.numCPU, got, c.want)
		}
	}
}
