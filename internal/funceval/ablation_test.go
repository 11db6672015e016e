package funceval

import (
	"math"
	"testing"
)

// Ablation: why MDGRAPE-2 uses 1,024 segments of FOURTH-order interpolation
// (§3.5.4). Lower order or fewer segments on the same kernel must cost
// accuracy; the shipped choice reaches single-precision level.

// tableError builds a table with the given segment count and probes the
// Ewald real-space kernel.
func tableError(t *testing.T, nseg int) float64 {
	t.Helper()
	g := func(x float64) float64 {
		return 2*math.Exp(-x)/(math.SqrtPi*x) + math.Erfc(math.Sqrt(x))/(x*math.Sqrt(x))
	}
	tbl, err := NewTable(g, -16, 16, nseg)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.MaxRelError(g, 1e-2, 10, 8000, 0)
}

func TestAblationSegments(t *testing.T) {
	e1024 := tableError(t, 1024)
	e256 := tableError(t, 256)
	e64 := tableError(t, 64)
	t.Logf("segments 1024: %.2e, 256: %.2e, 64: %.2e", e1024, e256, e64)
	if e256 < e1024 || e64 < e256 {
		t.Errorf("error did not grow with coarser tables: %g %g %g", e1024, e256, e64)
	}
	// Fourth-order convergence: 4x fewer segments per octave costs up to
	// ~4^5 = 1024x; demand at least ~30x between 1024 and 64 segments.
	if e64 < 30*e1024 {
		t.Errorf("segment ablation not sensitive: %g vs %g", e64, e1024)
	}
	// The production table is at single-precision level.
	if e1024 > 2e-6 {
		t.Errorf("production table error %g above single-precision level", e1024)
	}
}

// linearTable mimics a first-order (2-point) evaluator on the same segment
// layout, for the order ablation.
func linearEval(t *testing.T, g func(float64) float64, nseg int, x float64) float64 {
	t.Helper()
	tbl, err := NewTable(g, -16, 16, nseg)
	if err != nil {
		t.Fatal(err)
	}
	seg, u := tbl.address(math.Float32bits(float32(x)))
	lo, hi := tbl.segmentBounds(int(seg))
	gl, gh := g(lo), g(hi)
	return gl + (gh-gl)*float64(u)
}

func TestAblationOrder(t *testing.T) {
	g := func(x float64) float64 {
		return 2*math.Exp(-x)/(math.SqrtPi*x) + math.Erfc(math.Sqrt(x))/(x*math.Sqrt(x))
	}
	tbl, err := NewTable(g, -16, 16, 1024)
	if err != nil {
		t.Fatal(err)
	}
	worst4, worst1 := 0.0, 0.0
	for i := 0; i < 4000; i++ {
		x := math.Exp(math.Log(1e-2) + (math.Log(10)-math.Log(1e-2))*float64(i)/4000)
		want := g(x)
		if e := math.Abs(tbl.Eval64(x)-want) / math.Abs(want); e > worst4 {
			worst4 = e
		}
		if e := math.Abs(linearEval(t, g, 1024, x)-want) / math.Abs(want); e > worst1 {
			worst1 = e
		}
	}
	t.Logf("order 4: %.2e, order 1 (same segments): %.2e", worst4, worst1)
	if worst1 < 100*worst4 {
		t.Errorf("fourth order only %gx better than linear", worst1/worst4)
	}
}
