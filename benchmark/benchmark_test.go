package main

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// synthetic builds a spin/step/spin/step/… timeline where op k runs on a
// machine slowed by speed(k) (1 = quiet): a spin takes calNominalMs·speed, a
// step trueMs·speed^elasticity, as the contended sandbox slows the program
// less than the spin.
func synthetic(steps int, trueMs, elasticity float64, speed func(op int) float64) []float64 {
	out := make([]float64, steps)
	for i := range out {
		s := sample{
			t:      time.Duration(trueMs * math.Pow(speed(2*i+1), elasticity) * 1e6),
			before: time.Duration(calNominalMs * speed(2*i) * 1e6),
			after:  time.Duration(calNominalMs * speed(2*i+2) * 1e6),
		}
		out[i] = s.calMs(elasticity)
	}
	return out
}

func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*want {
		t.Errorf("%s = %.4f, want %.4f within %.0f%%", what, got, want, 100*tol)
	}
}

// The co-tenant noise the estimator is built for slows the machine for many
// operations at a time: 2x bursts covering 30 % of the timeline. Inside a
// burst the step and its spins slow alike and cancel; only the samples at a
// burst's edges are off, and the median over blocks discards their blocks.
func TestEstimatorRecoversCostUnderBursts(t *testing.T) {
	const steps, block, trueMs = 400, 4, 37.0
	rng := rand.New(rand.NewSource(7))
	slow := make([]bool, 2*steps+1)
	for covered := 0; covered < len(slow)*3/10; {
		at, n := rng.Intn(len(slow)), 40+rng.Intn(40)
		for k := at; k < min(at+n, len(slow)); k++ {
			if !slow[k] {
				slow[k] = true
				covered++
			}
		}
	}
	speed := func(op int) float64 {
		if slow[op] {
			return 2
		}
		return 1
	}
	got, blocks := blockMedian(synthetic(steps, trueMs, 0.6, speed), block)
	if blocks != steps/block {
		t.Fatalf("blocks = %d, want %d", blocks, steps/block)
	}
	within(t, "step cost under 2x bursts", got, trueMs, 0.02)

	rawMean := 0.0
	for i := 0; i < steps; i++ {
		rawMean += trueMs * math.Pow(speed(2*i+1), 0.6) / steps
	}
	if rawMean < 1.1*trueMs {
		t.Errorf("raw mean %.2f: the synthetic bursts move it by under 10%%, so they test nothing", rawMean)
	}
}

func TestEstimatorCancelsSlowDrift(t *testing.T) {
	const steps, trueMs = 300, 12.5
	speed := func(op int) float64 { return 1 + 0.3*float64(op)/float64(2*steps) }
	got, _ := blockMedian(synthetic(steps, trueMs, 1, speed), 5)
	within(t, "step cost under 1.3x drift", got, trueMs, 0.02)
}

func TestBlockMedianKeepsTheRebuildMix(t *testing.T) {
	// One expensive step in every block of four: the block mean, not the
	// sample median, is the per-step cost.
	var v []float64
	for i := 0; i < 40; i++ {
		v = append(v, []float64{10, 2, 2, 2}...)
	}
	if got, _ := blockMedian(v, 4); got != 4 {
		t.Errorf("block median = %g, want 4", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10 scaled], n=4) = [2.75, 5.5, 8.25].
	v := []float64{7, 1, 9, 3, 5, 10, 2, 8, 4, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
}

func TestSelfAndChildSpansGiveSelfTime(t *testing.T) {
	tr := newTracer("w")
	a := tr.begin("outer", "l", 3)
	b := tr.begin("inner", "l", 3)
	tr.end(b)
	tr.end(a)
	tr.spans[a].StartNs, tr.spans[a].EndNs = 0, 10e6
	tr.spans[b].StartNs, tr.spans[b].EndNs = 2e6, 5e6
	total, self := tr.durations(func(int) float64 { return 2 })
	if total["outer"][0] != 20 || self["outer"][0] != 14 || self["inner"][0] != 6 {
		t.Errorf("total %v self %v, want outer 20 / 14 and inner 6 at factor 2", total, self)
	}
	if tr.spans[b].Parent != a || tr.spans[a].Parent != -1 {
		t.Errorf("parents %d, %d", tr.spans[a].Parent, tr.spans[b].Parent)
	}
	var off *tracer
	off.end(off.begin("x", "l", 0)) // tracing off is a nil tracer
}

func TestWorkloadInputsArePureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		if w.served {
			if !reflect.DeepEqual(jobSpec(4, 2, servedSteps), jobSpec(4, 2, servedSteps)) {
				t.Errorf("%s: same seed, different spec", w.name)
			}
			if jobSpec(4, 2, servedSteps).Seed == jobSpec(5, 2, servedSteps).Seed ||
				jobSpec(4, 2, servedSteps).Seed == jobSpec(4, 3, servedSteps).Seed {
				t.Errorf("%s: distinct seeds or sessions share a velocity seed", w.name)
			}
			continue
		}
		a, b, c := w.simConfig(4), w.simConfig(4), w.simConfig(5)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different config", w.name)
		}
		c.Seed = a.Seed
		if a.Seed != 4 || !reflect.DeepEqual(a, c) {
			t.Errorf("%s: the seed must change Config.Seed and nothing else", w.name)
		}
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why of %d characters", w.Name, len(w.Why))
		}
	}
	type def struct{ name, unit string }
	var e2e, layer []def
	hasSetup := false
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, def{m.Name, m.Unit})
		if m.Better != "lower" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: better %q bound %g", m.Name, m.Better, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s"
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, def{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds")
	}
	for _, c := range []struct {
		file []def
		prog []metricDef
	}{{e2e, endToEnd}, {layer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in the program", len(c.file), len(c.prog))
		}
		for i, m := range c.prog {
			if c.file[i] != (def{m.name, m.unit}) {
				t.Errorf("metric %d: BENCHMARK.json %v, program %v", i, c.file[i], m)
			}
			if !name.MatchString(m.name) || !unit.MatchString(m.unit) {
				t.Errorf("metric %q unit %q outside the allowed characters", m.name, m.unit)
			}
		}
	}
}

// The quick smoke runs every workload in both modes and requires each to
// emit exactly its metric set, finite, with every validity check passing.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // timing is not asserted here
			for trace, defs := range [][]metricDef{endToEnd, perLayer} {
				opt := options{workload: w.name, seed: 3, quick: true, trace: trace, outDir: t.TempDir()}
				rep := report{Workload: w.name, Trace: trace, Quick: true}
				cal := newCalibrator(w.cores)
				defer cal.close()
				run := timedRun
				if trace == 1 {
					run = tracedRun
				}
				if err := run(context.Background(), opt, w.quick(), cal, 0, opt.outDir, &rep); err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				for _, c := range rep.Checks {
					if !c.OK {
						t.Errorf("trace %d: check %s failed: %s", trace, c.Name, c.Detail)
					}
				}
				if rep.Result.Failed != 0 || rep.Result.Attempted < 2 {
					t.Errorf("trace %d: attempted %d failed %d", trace, rep.Result.Attempted, rep.Result.Failed)
				}
				if len(rep.Result.Metrics) != len(defs) {
					t.Errorf("trace %d: %d metrics, want %d", trace, len(rep.Result.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Result.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace %d: metric %s = %+v (present %v)", trace, d.name, m, ok)
					}
					// The live heap is a difference of process-wide readings, and
					// this process is running the other workloads' subtests too.
					if trace == 0 && m.Value <= 0 && d.name != "live_heap_mb" {
						t.Errorf("end-to-end metric %s = %g, must never be 0", d.name, m.Value)
					}
				}
			}
		})
	}
}
