package perf

import (
	"math"
	"testing"
)

func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

func TestTable4Validation(t *testing.T) {
	if _, err := Table4(0, 850); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Table4(100, 0); err == nil {
		t.Error("l=0 accepted")
	}
}

// The conventional column is Table 4's construction: it takes the current
// machine's step time, so its calculation speed is its effective speed.
func TestTable4HeadlineNumbers(t *testing.T) {
	cols, err := Table4(PaperN, PaperL)
	if err != nil {
		t.Fatal(err)
	}
	cur, conv := cols[0], cols[1]
	if conv.SecPerStep != cur.SecPerStep {
		t.Errorf("conventional sec/step = %g, must equal current %g by construction", conv.SecPerStep, cur.SecPerStep)
	}
	if !relClose(conv.CalcTflops, conv.EffTflops, 1e-9) {
		t.Errorf("conventional calc %.3f != effective %.3f", conv.CalcTflops, conv.EffTflops)
	}
}

func TestEffectiveSpeedDefinition(t *testing.T) {
	// Effective speed = conventional-minimum flops / step time, for every
	// column (§5: "the effective performance of the MDM is 1.34 Tflops
	// instead of 15.4 Tflops").
	cols, _ := Table4(PaperN, PaperL)
	convTotal := cols[1].FlopsTotal
	for _, col := range cols {
		want := convTotal / col.SecPerStep / 1e12
		if !relClose(col.EffTflops, want, 1e-9) {
			t.Errorf("%s: effective = %g, want %g", col.Name, col.EffTflops, want)
		}
	}
}

func TestStepTimeBreakdown(t *testing.T) {
	m := CurrentMDM()
	p := m.OptimalParams(PaperN, PaperL)
	density := float64(PaperN) / (PaperL * PaperL * PaperL)
	b := m.StepTime(p, PaperN, density)
	if b.Total <= 0 {
		t.Fatal("non-positive step time")
	}
	// Components must assemble per the documented formula.
	want := math.Max(b.TWineCompute+b.TWineComm, b.TMDGCompute+b.TMDGComm) + b.THost
	if math.Abs(b.Total-want) > 1e-12*want {
		t.Errorf("total %g != assembly %g", b.Total, want)
	}
	// The current machine is WINE-limited (the §6.1 miss-balance).
	if b.TWineCompute < b.TMDGCompute {
		t.Error("current machine should be wavenumber-limited")
	}
	// Communication is a visible but not dominant part of the current step.
	if b.TWineComm <= 0 || b.TMDGComm <= 0 {
		t.Error("board communication should cost something")
	}
}

func TestConventionalModel(t *testing.T) {
	m := Conventional(1e9)
	const n, l = 1000, 30.0
	density := float64(n) / (l * l * l)
	p := m.CostModel().BalancedParams(l, density)
	b := m.StepTime(p, n, density)
	if b.TWineComm != 0 || b.TMDGComm != 0 {
		t.Error("conventional machine has no board links")
	}
	// The balanced α makes both compute halves take equal time.
	if !relClose(b.TWineCompute, b.TMDGCompute, 1e-6) {
		t.Errorf("conventional halves unbalanced: %g vs %g", b.TWineCompute, b.TMDGCompute)
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Table4(PaperN, PaperL); err != nil {
			b.Fatal(err)
		}
	}
}
