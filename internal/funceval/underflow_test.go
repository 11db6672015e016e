package funceval

import (
	"math"
	"testing"
)

// productionKernels are the eight tables core.NewMachine loads — four force
// kernels g and their four potential-mode φ — at the domains
// mdgrape2.LoadTable's power-of-two widening really gives them. All eight
// fall monotonically over their domain.
var productionKernels = []struct {
	name       string
	g          func(float64) float64
	emin, emax int
}{
	{"coulomb-real", func(x float64) float64 {
		return 2*math.Exp(-x)/(math.SqrtPi*x) + math.Erfc(math.Sqrt(x))/(x*math.Sqrt(x))
	}, -20, 12},
	{"born-mayer", func(x float64) float64 { s := math.Sqrt(x); return math.Exp(-s) / s }, -8, 24},
	{"dispersion-r6", func(x float64) float64 { x2 := x * x; return 1 / (x2 * x2) }, -4, 28},
	{"dispersion-r8", func(x float64) float64 { x2 := x * x; return 1 / (x2 * x2 * x) }, -4, 28},
	{"coulomb-real-pot", func(x float64) float64 { s := math.Sqrt(x); return math.Erfc(s) / s }, -20, 12},
	{"born-mayer-pot", func(x float64) float64 { return math.Exp(-math.Sqrt(x)) }, -8, 24},
	{"dispersion-r6-pot", func(x float64) float64 { return 1 / (x * x * x) }, -4, 28},
	{"dispersion-r8-pot", func(x float64) float64 { x2 := x * x; return 1 / (x2 * x2) }, -4, 28},
}

// TestUnderflowRuleOnProductionTables pins the low-magnitude cutoff on the
// RAM contents themselves: a row is kept only if g reaches 2^-102 at a fit
// node, kept rows hold no subnormal word, the zeroed rows are the tail of
// each (monotone) kernel, and a zeroed row evaluates to +0.
func TestUnderflowRuleOnProductionTables(t *testing.T) {
	if floor, norm := float64(flushFloor), float64(minNormal32); floor != math.Ldexp(1, -102) || norm != math.Ldexp(1, -126) {
		t.Fatalf("flushFloor = %g, minNormal32 = %g, want 2^-102 and 2^-126", floor, norm)
	}
	var nodes [Order + 1]float64
	ChebyshevNodes(nodes[:])
	for _, k := range productionKernels {
		tbl := MustNewTable(k.g, k.emin, k.emax, DefaultSegments)
		firstZero := tbl.Segments()
		for s, row := range tbl.coeff {
			lo, hi := tbl.segmentBounds(s)
			peak := 0.0
			for _, u := range nodes {
				peak = math.Max(peak, math.Abs(k.g(lo+u*(hi-lo))))
			}
			if row == ([Order + 1]float32{}) {
				if peak >= flushFloor {
					t.Errorf("%s: segment %d [%g, %g) is zeroed but g reaches %g there", k.name, s, lo, hi, peak)
				}
				if s < firstZero {
					firstZero = s
				}
				continue
			}
			if peak < flushFloor {
				t.Errorf("%s: segment %d [%g, %g) is kept but g peaks at %g there, below 2^-102", k.name, s, lo, hi, peak)
			}
			if s > firstZero {
				t.Errorf("%s: segment %d is kept above zeroed segment %d", k.name, s, firstZero)
			}
			for i, c := range row {
				if c != 0 && math.Abs(float64(c)) < minNormal32 {
					t.Errorf("%s: segment %d stores subnormal c[%d] = %g", k.name, s, i, c)
				}
			}
		}
		if firstZero == 0 {
			t.Fatalf("%s: every segment is zeroed", k.name)
		}
		if firstZero < tbl.Segments() {
			lo, _ := tbl.segmentBounds(firstZero)
			t.Logf("%s: rows go to zero at x = %g (segment %d of %d)", k.name, lo, firstZero, tbl.Segments())
		}

		// +0 from a zeroed row: every u of the first and last such row, both
		// ends and the middle of the others.
		perSeg := uint32(1) << tbl.shift
		for s := firstZero; s < tbl.Segments(); s++ {
			word := (tbl.base + uint32(s)) << tbl.shift
			if s == firstZero || s == tbl.Segments()-1 {
				for off := uint32(0); off < perSeg; off++ {
					checkPlusZero(t, tbl, k.name, word+off)
				}
				continue
			}
			for _, off := range []uint32{0, perSeg / 2, perSeg - 1} {
				checkPlusZero(t, tbl, k.name, word+off)
			}
		}
	}
}

func checkPlusZero(t *testing.T, tbl *Table, name string, word uint32) {
	t.Helper()
	x := math.Float32frombits(word)
	if got := tbl.Eval(x); math.Float32bits(got) != 0 {
		t.Fatalf("%s: Eval(%g [%#08x]) = %g [%#08x] on a zeroed segment, want +0",
			name, x, word, got, math.Float32bits(got))
	}
}

// BenchmarkEvalIntoZones runs the block evaluator on the Born–Mayer table
// over arguments whose kernel value is comfortably normal, below 2^-102 but
// still normal, subnormal, and below the smallest subnormal. Under IEEE
// gradual underflow the middle two cost a microcode assist per element on the
// host FPU; with the evaluator's own cutoff all four run at the same speed.
func BenchmarkEvalIntoZones(b *testing.B) {
	bm := productionKernels[1]
	tbl := MustNewTable(bm.g, bm.emin, bm.emax, DefaultSegments)
	for _, zone := range []struct {
		name     string
		slo, shi float64 // range of s = √x, where g = e^(-s)/s
	}{
		{"normal", 5, 30},
		{"below-2^-102", 67, 82},
		{"subnormal", 84, 98},
		{"zero", 110, 120},
	} {
		var x, dst [64]float32
		for i := range x {
			s := zone.slo + (zone.shi-zone.slo)*float64(i)/float64(len(x))
			x[i] = float32(s * s)
		}
		b.Run(zone.name, func(b *testing.B) {
			for i := 0; i < b.N; i += len(x) {
				tbl.EvalInto(dst[:], x[:])
			}
		})
	}
}
