package main

import "testing"

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
