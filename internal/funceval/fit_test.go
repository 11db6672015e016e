package funceval

import (
	"fmt"
	"math"
	"testing"
)

// oracleSolve is the per-segment fit the factor-once solve replaces: the
// full Gaussian elimination with partial pivoting on the augmented matrix
// [V | v], every product rounded by float64(…). It stays here as the oracle
// the replayed solve must match word for word.
func oracleSolve(c, u, v []float64) error {
	n := len(u)
	var a [MaxFitNodes][MaxFitNodes + 1]float64
	for i := 0; i < n; i++ {
		p := 1.0
		for j := 0; j < n; j++ {
			a[i][j] = p
			p *= u[i]
		}
		a[i][n] = v[i]
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if a[piv][col] == 0 {
			return fmt.Errorf("singular Vandermonde system")
		}
		a[col], a[piv] = a[piv], a[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for k := col; k <= n; k++ {
				a[r][k] -= float64(f * a[col][k])
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := a[i][n]
		for j := i + 1; j < n; j++ {
			s -= float64(a[i][j] * c[j])
		}
		c[i] = s / a[i][i]
	}
	return nil
}

// oracleRow is segment s of a table fitted by oracleSolve, under NewTable's
// underflow rule.
func oracleRow(t *testing.T, tbl *Table, g func(float64) float64, s int) [Order + 1]float32 {
	var nodes, vals [Order + 1]float64
	ChebyshevNodes(nodes[:])
	lo, hi := tbl.segmentBounds(s)
	peak := 0.0
	for i, u := range nodes {
		vals[i] = g(lo + float64(u*(hi-lo)))
		peak = math.Max(peak, math.Abs(vals[i]))
	}
	var row [Order + 1]float32
	if peak < flushFloor {
		return row
	}
	var c [Order + 1]float64
	if err := oracleSolve(c[:], nodes[:], vals[:]); err != nil {
		t.Fatal(err)
	}
	for i, v := range c {
		if math.Abs(v) >= minNormal32 {
			row[i] = float32(v)
		}
	}
	return row
}

// TestFactorOnceMatchesOracle: a table fitted from one factorisation holds,
// on every segment, the words the full per-segment elimination gives — for
// the four force kernels MDGRAPE-2 loads and the exp(−x) table the SPH
// example loads. The check is a word compare against an oracle built from
// the same float64 operations, so it holds on any host.
func TestFactorOnceMatchesOracle(t *testing.T) {
	kernels := append(productionKernels[:4:4], struct {
		name       string
		g          func(float64) float64
		emin, emax int
	}{"sph-exp", func(x float64) float64 { return math.Exp(-x) }, -16, 16})
	for _, k := range kernels {
		tbl := MustNewTable(k.g, k.emin, k.emax, DefaultSegments)
		bad := 0
		for s := range tbl.coeff {
			if want := oracleRow(t, tbl, k.g, s); tbl.coeff[s] != want {
				if bad++; bad <= 3 {
					t.Errorf("%s: segment %d holds %v, the per-segment elimination gives %v", k.name, s, tbl.coeff[s], want)
				}
			}
		}
		if bad > 3 {
			t.Errorf("%s: %d segments differ in all", k.name, bad)
		}
	}
}

// TestSolveMatchesOracleAnyOrder: the factor + solve path and the oracle
// agree bit for bit at every order and on both node sets in use, for
// right-hand sides that exercise every pivot swap.
func TestSolveMatchesOracleAnyOrder(t *testing.T) {
	for n := 1; n <= MaxFitNodes; n++ {
		for _, centred := range []bool{false, true} {
			u, v, got, want := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
			ChebyshevNodes(u)
			for i := range u {
				if centred {
					u[i] = 2*u[i] - 1
				}
				v[i] = math.Exp(-3*u[i]) + float64(i%3)
			}
			if err := SolveVandermonde(got, u, v); err != nil {
				t.Fatal(err)
			}
			if err := oracleSolve(want, u, v); err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Errorf("%d nodes, centred %v: c[%d] = %.17g, the oracle gives %.17g", n, centred, j, got[j], want[j])
				}
			}
		}
	}
}

// BenchmarkNewTable times one MR1SetTable fit: the real-space Coulomb kernel
// over the span mdgrape2.LoadTable widens it to, 1,024 segments.
func BenchmarkNewTable(b *testing.B) {
	k := productionKernels[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewTable(k.g, k.emin, k.emax, DefaultSegments); err != nil {
			b.Fatal(err)
		}
	}
}
