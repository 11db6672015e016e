package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mdm/internal/vec"
)

func TestNewRDFValidation(t *testing.T) {
	if _, err := NewRDF(10, 6, 50); err == nil {
		t.Error("rmax > L/2 accepted")
	}
	if _, err := NewRDF(10, 4, 0); err == nil {
		t.Error("0 bins accepted")
	}
	if _, err := NewRDF(0, 4, 10); err == nil {
		t.Error("zero box accepted")
	}
}

func TestRDFIdealGasIsFlat(t *testing.T) {
	const l = 20.0
	rng := rand.New(rand.NewSource(1))
	rdf, err := NewRDF(l, 9, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Many frames of uncorrelated particles → g(r) ≈ 1 everywhere.
	for f := 0; f < 40; f++ {
		pos := make([]vec.V, 150)
		for i := range pos {
			pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
		}
		rdf.AddFrame(pos, pos)
	}
	rs, g := rdf.Curve()
	for b := range g {
		if rs[b] < 1.5 {
			continue // tiny shells are noisy
		}
		if math.Abs(g[b]-1) > 0.25 {
			t.Errorf("ideal gas g(%.2f) = %.3f, want ≈ 1", rs[b], g[b])
		}
	}
}

func TestRDFCrystalPeak(t *testing.T) {
	// Rock-salt unlike-pair RDF peaks at the nearest-neighbor distance a/2.
	const a = 5.64
	const cells = 3
	l := float64(cells) * a
	var na, cl []vec.V
	d := a / 2
	for z := 0; z < 2*cells; z++ {
		for y := 0; y < 2*cells; y++ {
			for x := 0; x < 2*cells; x++ {
				p := vec.New(float64(x)*d, float64(y)*d, float64(z)*d)
				if (x+y+z)%2 == 0 {
					na = append(na, p)
				} else {
					cl = append(cl, p)
				}
			}
		}
	}
	rdf, _ := NewRDF(l, l/2*0.99, 100)
	rdf.AddFrame(na, cl)
	rs, g := rdf.Curve()
	pos, height := FirstPeak(rs, g, 1.0)
	if math.Abs(pos-a/2) > 0.2 {
		t.Errorf("first Na-Cl peak at %.2f Å, want %.2f", pos, a/2)
	}
	if height < 5 {
		t.Errorf("crystal peak height = %.1f, want sharp (>5)", height)
	}
}

func TestFirstPeakDegenerate(t *testing.T) {
	if p, h := FirstPeak([]float64{1, 2}, []float64{0, 0}, 0); p != 0 || h != 0 {
		t.Error("no peak should give zeros")
	}
}

func TestMSDStationary(t *testing.T) {
	pos := []vec.V{vec.New(1, 2, 3), vec.New(4, 5, 6)}
	m := NewMSD(10, pos)
	if got := m.Update(pos); got != 0 {
		t.Errorf("MSD of unmoved particles = %g", got)
	}
}

func TestMSDUnwrapsAcrossBoundary(t *testing.T) {
	// A particle drifting +0.4 Å per step crosses the boundary; MSD must
	// keep growing quadratically, not reset.
	const l = 10.0
	pos := []vec.V{vec.New(9.5, 5, 5)}
	m := NewMSD(l, pos)
	var msd float64
	for step := 1; step <= 10; step++ {
		x := 9.5 + 0.4*float64(step)
		msd = m.Update([]vec.V{vec.New(x, 5, 5).Wrap(l)})
	}
	want := 16.0 // (0.4×10)²
	if math.Abs(msd-want) > 1e-9 {
		t.Errorf("MSD after wrap = %g, want %g", msd, want)
	}
}

func TestBlockAverage(t *testing.T) {
	if _, _, err := BlockAverage([]float64{1, 2}, 4); err == nil {
		t.Error("too few samples accepted")
	}
	data := make([]float64, 100)
	for i := range data {
		data[i] = 5 + 0.1*math.Sin(float64(i))
	}
	mean, stderr, err := BlockAverage(data, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("mean = %g", mean)
	}
	if stderr <= 0 || stderr > 0.1 {
		t.Errorf("stderr = %g", stderr)
	}
}

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Error("empty stats nonzero")
	}
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(data); m != 5 {
		t.Errorf("mean = %g", m)
	}
	if s := Std(data); math.Abs(s-2) > 1e-12 {
		t.Errorf("std = %g, want 2", s)
	}
}

func TestFitInverseSqrt(t *testing.T) {
	// Synthetic points exactly on c·N^(-1/2).
	const c0 = 0.8165 // sqrt(2/3)
	var pts []FluctuationPoint
	for _, n := range []int{512, 4096, 32768, 262144} {
		pts = append(pts, FluctuationPoint{N: n, RelFluc: c0 / math.Sqrt(float64(n))})
	}
	c, p, err := FitInverseSqrt(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p+0.5) > 1e-9 {
		t.Errorf("exponent = %g, want -0.5", p)
	}
	if math.Abs(c-c0) > 1e-6 {
		t.Errorf("prefactor = %g, want %g", c, c0)
	}
}

func TestFitInverseSqrtValidation(t *testing.T) {
	if _, _, err := FitInverseSqrt(nil); err == nil {
		t.Error("empty fit accepted")
	}
	if _, _, err := FitInverseSqrt([]FluctuationPoint{{N: 10, RelFluc: 0.1}}); err == nil {
		t.Error("single point accepted")
	}
	if _, _, err := FitInverseSqrt([]FluctuationPoint{{N: 10, RelFluc: 0.1}, {N: 10, RelFluc: 0.2}}); err == nil {
		t.Error("degenerate N accepted")
	}
	if _, _, err := FitInverseSqrt([]FluctuationPoint{{N: 10, RelFluc: -1}, {N: 20, RelFluc: 0.1}}); err == nil {
		t.Error("negative fluctuation accepted")
	}
}

func BenchmarkRDFFrame(b *testing.B) {
	const l = 15.0
	rng := rand.New(rand.NewSource(1))
	pos := make([]vec.V, 500)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
	}
	rdf, _ := NewRDF(l, 7, 70)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rdf.AddFrame(pos, pos)
	}
}

func TestDiffusionCoefficient(t *testing.T) {
	// Exact line MSD = 6·0.25·t + 1.5.
	var times, msd []float64
	for i := 0; i < 50; i++ {
		tt := float64(i) * 0.1
		times = append(times, tt)
		msd = append(msd, 6*0.25*tt+1.5)
	}
	d, c, err := DiffusionCoefficient(times, msd)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.25) > 1e-12 || math.Abs(c-1.5) > 1e-10 {
		t.Errorf("D = %g, c = %g", d, c)
	}
	if _, _, err := DiffusionCoefficient([]float64{1}, []float64{2}); err == nil {
		t.Error("single sample accepted")
	}
	if _, _, err := DiffusionCoefficient([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("degenerate time axis accepted")
	}
	if _, _, err := DiffusionCoefficient([]float64{1, 2}, []float64{2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestDiffusionFromRandomWalk(t *testing.T) {
	// A lattice random walk has MSD = n·step² : D = step²/(6·dt).
	rng := rand.New(rand.NewSource(8))
	const nWalkers = 400
	const step = 0.3
	const l = 1e6 // effectively open boundaries
	pos := make([]vec.V, nWalkers)
	m := NewMSD(l, pos)
	var times, msds []float64
	for s := 1; s <= 200; s++ {
		for i := range pos {
			dir := vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
			n := dir.Norm()
			if n == 0 {
				continue
			}
			pos[i] = pos[i].Add(dir.Scale(step / n))
		}
		times = append(times, float64(s))
		msds = append(msds, m.Update(pos))
	}
	d, _, err := DiffusionCoefficient(times, msds)
	if err != nil {
		t.Fatal(err)
	}
	want := step * step / 6
	if math.Abs(d-want) > 0.15*want {
		t.Errorf("random-walk D = %g, want ≈ %g", d, want)
	}
}

func TestRDFEmptyFrame(t *testing.T) {
	rdf, _ := NewRDF(10, 4, 10)
	rdf.AddFrame(nil, nil) // must not panic
	rs, g := rdf.Curve()
	for b := range g {
		if g[b] != 0 {
			t.Errorf("empty RDF bin %g at %g", g[b], rs[b])
		}
	}
}

// BlockAverage splits data into nblocks contiguous blocks and returns the
// mean and the standard error of the block means — the standard way to
// de-correlate MD time series.
func BlockAverage(data []float64, nblocks int) (mean, stderr float64, err error) {
	if nblocks < 2 || len(data) < nblocks {
		return 0, 0, fmt.Errorf("analysis: need at least %d samples for %d blocks", nblocks, nblocks)
	}
	bs := len(data) / nblocks
	means := make([]float64, nblocks)
	for b := 0; b < nblocks; b++ {
		sum := 0.0
		for i := b * bs; i < (b+1)*bs; i++ {
			sum += data[i]
		}
		means[b] = sum / float64(bs)
		mean += means[b]
	}
	mean /= float64(nblocks)
	varSum := 0.0
	for _, m := range means {
		d := m - mean
		varSum += d * d
	}
	stderr = math.Sqrt(varSum / float64(nblocks-1) / float64(nblocks))
	return mean, stderr, nil
}
