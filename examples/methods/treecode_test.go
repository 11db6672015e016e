package main

import (
	"math"
	"math/rand"
	"testing"

	"mdm/internal/units"
	"mdm/internal/vec"
)

func randomCloud(n int, l float64, seed int64, neutral bool) ([]vec.V, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.V, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
		if neutral {
			q[i] = float64(1 - 2*(i%2))
		} else {
			q[i] = 1
		}
	}
	return pos, q
}

func TestBuildValidation(t *testing.T) {
	if _, err := buildTree(nil, nil, 0.5); err == nil {
		t.Error("empty set accepted")
	}
	pos, q := randomCloud(4, 10, 1, false)
	if _, err := buildTree(pos, q[:3], 0.5); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := buildTree(pos, q, -1); err == nil {
		t.Error("negative theta accepted")
	}
	if _, err := buildTree(pos, q, 3); err == nil {
		t.Error("theta > 2 accepted")
	}
}

func TestTwoBodyExact(t *testing.T) {
	pos := []vec.V{vec.New(0, 0, 0), vec.New(2, 0, 0)}
	q := []float64{1, -1}
	tr, err := buildTree(pos, q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	f := tr.ForceOn(0)
	want := units.Coulomb / 4 // attraction toward +x
	if math.Abs(f.X-want) > 1e-12*want {
		t.Errorf("F_x = %g, want %g", f.X, want)
	}
	if f.Y != 0 || f.Z != 0 {
		t.Errorf("transverse force: %v", f)
	}
}

func TestThetaZeroIsExact(t *testing.T) {
	pos, q := randomCloud(60, 12, 2, true)
	tr, err := buildTree(pos, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.Forces()
	want := directForces(pos, q)
	for i := range got {
		if d := got[i].Sub(want[i]).Norm(); d > 1e-9*(1+want[i].Norm()) {
			t.Fatalf("theta=0 not exact at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if tr.NodeInteractions != 0 {
		t.Errorf("theta=0 accepted %d multipoles", tr.NodeInteractions)
	}
}

func TestAccuracyImprovesWithTheta(t *testing.T) {
	pos, q := randomCloud(300, 20, 3, true)
	want := directForces(pos, q)
	fscale := vec.RMS(want)
	var prev float64 = math.Inf(1)
	for _, theta := range []float64{0.9, 0.6, 0.3} {
		tr, err := buildTree(pos, q, theta)
		if err != nil {
			t.Fatal(err)
		}
		got := tr.Forces()
		rms := 0.0
		for i := range got {
			rms += got[i].Sub(want[i]).Norm2()
		}
		rms = math.Sqrt(rms/float64(len(got))) / fscale
		t.Logf("theta=%.1f: rms force error %.2e, %d node + %d leaf interactions",
			theta, rms, tr.NodeInteractions, tr.LeafInteractions)
		if rms >= prev {
			t.Errorf("error did not shrink at theta=%g (%g >= %g)", theta, rms, prev)
		}
		prev = rms
	}
	if prev > 5e-3 {
		t.Errorf("theta=0.3 rms error = %g, want better than 5e-3", prev)
	}
}

func TestNeutralCloudUsesDipoles(t *testing.T) {
	// A neutral system's cells have tiny monopoles; without dipole moments
	// the tree force would be badly wrong. Verify reasonable accuracy.
	pos, q := randomCloud(400, 25, 4, true)
	tr, _ := buildTree(pos, q, 0.5)
	got := tr.Forces()
	want := directForces(pos, q)
	fscale := vec.RMS(want)
	rms := 0.0
	for i := range got {
		rms += got[i].Sub(want[i]).Norm2()
	}
	rms = math.Sqrt(rms/float64(len(got))) / fscale
	if rms > 2e-2 {
		t.Errorf("neutral-cloud rms error = %g", rms)
	}
	if tr.NodeInteractions == 0 {
		t.Error("walk never accepted a multipole")
	}
}

func TestWorkScalesSubQuadratically(t *testing.T) {
	// Interactions per particle should grow like log N, not N.
	perParticle := func(n int) float64 {
		pos, q := randomCloud(n, 20*math.Cbrt(float64(n)/300), 5, false)
		tr, _ := buildTree(pos, q, 0.6)
		tr.Forces()
		return float64(tr.NodeInteractions+tr.LeafInteractions) / float64(n)
	}
	small := perParticle(200)
	large := perParticle(1600)
	// directForces would grow ×8; tree should be ×<2.5.
	if ratio := large / small; ratio > 2.5 {
		t.Errorf("work per particle grew ×%.2f from N=200 to N=1600", ratio)
	}
}

func TestCoincidentParticles(t *testing.T) {
	// Stacked particles must not loop forever or produce NaN.
	pos := []vec.V{vec.New(1, 1, 1), vec.New(1, 1, 1), vec.New(3, 1, 1)}
	q := []float64{1, 1, -1}
	tr, err := buildTree(pos, q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	f := tr.Forces()
	for i, fi := range f {
		if !fi.IsFinite() {
			t.Errorf("non-finite force on %d: %v", i, fi)
		}
	}
}

func TestMomentumConservationDirect(t *testing.T) {
	pos, q := randomCloud(50, 10, 6, true)
	f := directForces(pos, q)
	if s := vec.Sum(f); s.Norm() > 1e-9*vec.RMS(f)*float64(len(f)) {
		t.Errorf("direct net force = %v", s)
	}
}

func TestDepth(t *testing.T) {
	pos, q := randomCloud(100, 10, 7, false)
	tr, _ := buildTree(pos, q, 0.5)
	if d := tr.Depth(); d < 2 || d > 30 {
		t.Errorf("depth = %d, implausible", d)
	}
}

func BenchmarkTreeForces1000(b *testing.B) {
	pos, q := randomCloud(1000, 30, 1, true)
	tr, _ := buildTree(pos, q, 0.6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Forces()
	}
}

func BenchmarkDirectForces1000(b *testing.B) {
	pos, q := randomCloud(1000, 30, 1, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		directForces(pos, q)
	}
}
