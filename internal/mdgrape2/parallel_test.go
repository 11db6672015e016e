package mdgrape2

import (
	"math"
	"math/rand"
	"testing"

	"mdm/internal/cellindex"
	"mdm/internal/parallelize"
	"mdm/internal/vec"
)

// Sharding stripes whole i-particles across workers, so each particle's
// float64 accumulation order — and therefore every output bit — must match
// the serial pass at any pool width.

type parallelFixture struct {
	grid  *cellindex.Grid
	pos   []vec.V
	types []int
	co    *Coeffs
}

func newParallelFixture(t *testing.T, n int, seed int64) *parallelFixture {
	t.Helper()
	const l = 18.0
	grid, err := cellindex.NewGrid(l, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.V, n)
	types := make([]int, n)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
		types[i] = i % 2
	}
	co, err := NewCoeffs(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	co.Set(0, 1, 1.5, -0.5)
	return &parallelFixture{grid: grid, pos: pos, types: types, co: co}
}

func newParallelSystem(t *testing.T, workers int) *System {
	t.Helper()
	sys, err := NewSystem(CurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadTable("g", func(x float64) float64 {
		return math.Exp(-x)
	}, -10, 10); err != nil {
		t.Fatal(err)
	}
	if workers > 0 {
		sys.SetPool(parallelize.New(workers))
	}
	return sys
}

func sameVecBits(a, b vec.V) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

func TestComputeForcesBitIdenticalAcrossWorkers(t *testing.T) {
	fx := newParallelFixture(t, 300, 11)
	serial := newParallelSystem(t, 0)
	js, err := NewJSet(fx.grid, fx.pos, fx.types)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.ComputeForces("g", fx.co, fx.pos, fx.types, nil, js)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := serial.Stats()

	for _, w := range []int{2, 3, 4, 8} {
		sys := newParallelSystem(t, w)
		pool := parallelize.New(w)
		pjs, err := NewJSetBuilder(fx.grid, pool).Build(fx.pos, fx.types, pool)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.ComputeForces("g", fx.co, fx.pos, fx.types, nil, pjs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !sameVecBits(got[i], want[i]) {
				t.Fatalf("workers=%d: force %d differs: %v vs %v", w, i, got[i], want[i])
			}
		}
		if gs := sys.Stats(); gs.PairsEvaluated != wantStats.PairsEvaluated {
			t.Fatalf("workers=%d: %d pairs evaluated, serial %d", w, gs.PairsEvaluated, wantStats.PairsEvaluated)
		}
	}
}

func TestComputePotentialsBitIdenticalAcrossWorkers(t *testing.T) {
	fx := newParallelFixture(t, 250, 13)
	serial := newParallelSystem(t, 0)
	js, err := NewJSet(fx.grid, fx.pos, fx.types)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.ComputePotentials("g", fx.co, fx.pos, fx.types, nil, js)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		sys := newParallelSystem(t, w)
		got, err := sys.ComputePotentials("g", fx.co, fx.pos, fx.types, nil, js)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: potential %d differs: %v vs %v", w, i, got[i], want[i])
			}
		}
	}
}

// A shard error must surface deterministically and identically to serial.
func TestParallelTypeValidationDeterministic(t *testing.T) {
	fx := newParallelFixture(t, 64, 19)
	ti := make([]int, len(fx.types))
	copy(ti, fx.types)
	ti[40] = 99 // outside the 2-type coefficient RAM
	js, err := NewJSet(fx.grid, fx.pos, fx.types)
	if err != nil {
		t.Fatal(err)
	}
	serialErr := func() error {
		sys := newParallelSystem(t, 0)
		_, err := sys.ComputePotentials("g", fx.co, fx.pos, ti, nil, js)
		return err
	}()
	if serialErr == nil {
		t.Fatal("serial pass accepted out-of-range type")
	}
	sys := newParallelSystem(t, 4)
	_, parErr := sys.ComputePotentials("g", fx.co, fx.pos, ti, nil, js)
	if parErr == nil {
		t.Fatal("parallel pass accepted out-of-range type")
	}
	if parErr.Error() != serialErr.Error() {
		t.Fatalf("parallel error %q differs from serial %q", parErr, serialErr)
	}
}
