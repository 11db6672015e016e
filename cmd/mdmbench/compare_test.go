package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
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

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	old := Report{
		GOMAXPROCS: 2, NumCPU: 2, N: 64,
		Results: []Result{
			{Name: "forces", Workers: 1, NsPerOp: 1000, AllocsPerOp: 10},
			{Name: "forces", Workers: 2, NsPerOp: 600, AllocsPerOp: 10},
			{Name: "dropped", Workers: 1, NsPerOp: 500},
		},
		Pipeline: []PipelineResult{{Workers: 2, OnNsPerOp: 800, Speedup: 1.5}},
	}
	newer := Report{
		GOMAXPROCS: 2, NumCPU: 2, N: 64,
		Results: []Result{
			{Name: "forces", Workers: 1, NsPerOp: 1050, AllocsPerOp: 10}, // +5%: within threshold
			{Name: "forces", Workers: 2, NsPerOp: 900, AllocsPerOp: 10},  // +50%: regression
			{Name: "fresh", Workers: 1, NsPerOp: 200},                    // new row, never a regression
		},
		Pipeline: []PipelineResult{{Workers: 2, OnNsPerOp: 820, Speedup: 1.45}},
	}
	a := writeReport(t, dir, "a.json", old)
	b := writeReport(t, dir, "b.json", newer)

	got, err := compareReports(a, b, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("compareReports = %d regressions, want 1 (forces/w2 +50%%)", got)
	}

	// Alloc growth is a regression on its own, even when ns/op holds steady —
	// but only against an old report that actually recorded allocs.
	newer.Results[0].AllocsPerOp = 14
	b2 := writeReport(t, dir, "b2.json", newer)
	if got, err = compareReports(a, b2, 0.20); err != nil || got != 2 {
		t.Fatalf("with alloc growth: got %d, %v; want 2 regressions", got, err)
	}
	old.Results[0].AllocsPerOp = 0 // pre-alloc-recording artifact
	a2 := writeReport(t, dir, "a2.json", old)
	if got, err = compareReports(a2, b2, 0.20); err != nil || got != 1 {
		t.Fatalf("against alloc-free old report: got %d, %v; want 1 regression", got, err)
	}
}

func TestCompareReportsClean(t *testing.T) {
	dir := t.TempDir()
	rep := Report{
		GOMAXPROCS: 2, NumCPU: 2, N: 64,
		Results:  []Result{{Name: "forces", Workers: 1, NsPerOp: 1000, AllocsPerOp: 10}},
		Pipeline: []PipelineResult{{Workers: 2, OnNsPerOp: 800, Speedup: 1.5}},
	}
	a := writeReport(t, dir, "a.json", rep)
	if got, err := compareReports(a, a, 0.20); err != nil || got != 0 {
		t.Fatalf("self-compare: got %d regressions, %v; want 0", got, err)
	}

	// Records up to BENCH_8 carry a "batch" array Report no longer has; they
	// must still load and compare on the sections that remain.
	legacy := filepath.Join(dir, "legacy.json")
	const body = `{"gomaxprocs":2,"num_cpu":2,"n_particles":64,
		"results":[{"name":"forces","workers":1,"ns_per_op":1000,"allocs_per_op":10}],
		"pipeline":[{"workers":2,"on_ns_per_op":800,"speedup":1.5}],
		"batch":[{"k":16,"steps":25,"batched_ns_per_run":1e9,"sequential_ns_per_run":1e9,"speedup":1.0}]}`
	if err := os.WriteFile(legacy, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := compareReports(legacy, a, 0.20); err != nil || got != 0 {
		t.Fatalf("legacy report with a batch section: got %d regressions, %v; want 0", got, err)
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
	step := Result{Name: "figure2Step", Workers: 1, NsPerOp: 800, NsPerParticleStep: 37040}
	if got := normalised(step, step); got != "  ns/particle·step 37040 → 37040" {
		t.Errorf("both sides with ns_per_particle_step rendered %q", got)
	}
	if got := normalised(old, step); got != "" {
		t.Errorf("older side without ns_per_particle_step rendered %q", got)
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
