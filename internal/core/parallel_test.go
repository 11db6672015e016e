package core

import (
	"fmt"
	"math"
	"testing"

	"mdm/internal/ewald"
	"mdm/internal/md"
	"mdm/internal/mpi"
	"mdm/internal/vec"
)

// oneStep builds a session on world, runs a single force evaluation and frees
// the session again.
func oneStep(world *mpi.World, cfg MachineConfig, nReal, nWave int, s *md.System) (ParallelResult, error) {
	pr, err := NewParallelRun(world, cfg, nReal, nWave)
	if err != nil {
		return ParallelResult{}, err
	}
	defer pr.Free()
	res, err := pr.Step(s)
	if err != nil {
		return ParallelResult{}, err
	}
	return *res, nil
}

func TestParallelMatchesSerial(t *testing.T) {
	s := meltLike(t, 2, 5.64, 1200, 11)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)

	serial := newTestMachine(t, p)
	want, wantPot, err := serial.Forces(s)
	if err != nil {
		t.Fatal(err)
	}

	const nReal, nWave = 4, 2
	world, err := mpi.NewWorld(nReal + nWave)
	if err != nil {
		t.Fatal(err)
	}
	res, err := oneStep(world, cfg, nReal, nWave, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Forces) != s.N() {
		t.Fatalf("parallel forces length %d", len(res.Forces))
	}
	// The pair walks are identical up to summation order; agreement should
	// be at float64 rounding level relative to the force scale.
	fscale := vec.RMS(want)
	worst := 0.0
	for i := range want {
		if d := res.Forces[i].Sub(want[i]).Norm() / fscale; d > worst {
			worst = d
		}
	}
	if worst > 1e-9 {
		t.Errorf("worst parallel-vs-serial force deviation = %g of RMS", worst)
	}
	if math.Abs(res.Potential-wantPot) > 1e-9*math.Abs(wantPot) {
		t.Errorf("potential: parallel %g vs serial %g", res.Potential, wantPot)
	}
	if res.Traffic.Messages == 0 || res.Traffic.Bytes == 0 {
		t.Error("parallel step reported no MPI traffic")
	}
	t.Logf("parallel step traffic: %d messages, %d bytes", res.Traffic.Messages, res.Traffic.Bytes)
}

func TestParallelPaperLayout(t *testing.T) {
	// The paper's 16 real + 8 wavenumber processes, at reduced system size.
	if testing.Short() {
		t.Skip("24-rank layout in -short mode")
	}
	s := meltLike(t, 2, 5.64, 1200, 12)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)
	world, err := mpi.NewWorld(24)
	if err != nil {
		t.Fatal(err)
	}
	res, err := oneStep(world, cfg, 16, 8, s)
	if err != nil {
		t.Fatal(err)
	}
	serial := newTestMachine(t, p)
	want, _, err := serial.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	fscale := vec.RMS(want)
	for i := range want {
		if d := res.Forces[i].Sub(want[i]).Norm() / fscale; d > 1e-9 {
			t.Fatalf("particle %d deviates by %g of RMS", i, d)
		}
	}
}

func TestParallelValidation(t *testing.T) {
	s := meltLike(t, 1, 5.64, 300, 13)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)
	world, _ := mpi.NewWorld(4)
	if _, err := oneStep(world, cfg, 3, 2, s); err == nil {
		t.Error("world-size mismatch accepted")
	}
	if _, err := oneStep(world, cfg, 0, 4, s); err == nil {
		t.Error("zero real processes accepted")
	}
	if _, err := oneStep(world, cfg, 4, 0, s); err == nil {
		t.Error("zero wave processes accepted")
	}
	bad := cfg
	bad.Ewald.L = 2 * p.L
	if _, err := oneStep(world, bad, 2, 2, s); err == nil {
		t.Error("box mismatch accepted")
	}
}

func TestParallelDrivesIntegrator(t *testing.T) {
	// A parallel session drives the integrator as its md.ForceField; energy
	// behaves like the serial machine. (The box must be
	// large enough that the Tosi-Fumi tails at the cell-crossing distances
	// are negligible — the same resolution requirement the real machine
	// had; see the r_cut = 26.4 Å of §5.)
	s := meltLike(t, 2, 5.64, 300, 15)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)
	world, _ := mpi.NewWorld(3)
	pr, err := NewParallelRun(world, cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Free()
	it, err := md.NewIntegrator(s, pr, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &md.Recorder{}
	rec.Sample(it)
	if err := it.Run(15, func(step int) error { rec.Sample(it); return nil }); err != nil {
		t.Fatal(err)
	}
	if drift := rec.EnergyDrift(); drift > 5e-4 {
		t.Errorf("parallel NVE drift = %g", drift)
	}
}

// BenchmarkParallelRunStep times one step of a persistent session — what an
// integrator run pays per force evaluation once the rank sessions exist.
func BenchmarkParallelRunStep(b *testing.B) {
	s, _ := md.NewRockSalt(2, 5.64)
	s.SetMaxwellVelocities(1200, 1)
	p := ewald.Params{L: s.L, Alpha: ewald.SReal / 0.45, RCut: 0.45 * s.L,
		LKCut: ewald.SReal / 0.45 * ewald.SWave / math.Pi}
	cfg := CurrentMachineConfig(p)
	for _, layout := range []struct{ nReal, nWave int }{{1, 1}, {4, 2}, {16, 8}} {
		name := fmt.Sprintf("real%d_wave%d", layout.nReal, layout.nWave)
		b.Run(name, func(b *testing.B) {
			world, err := mpi.NewWorld(layout.nReal + layout.nWave)
			if err != nil {
				b.Fatal(err)
			}
			pr, err := NewParallelRun(world, cfg, layout.nReal, layout.nWave)
			if err != nil {
				b.Fatal(err)
			}
			defer pr.Free()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pr.Step(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestParallelForcesRace is a race-detector stress test: several complete
// parallel sessions run concurrently, each on its own mpi.World but all
// reading the same *md.System. The parallel machinery must treat the input
// system as read-only and confine all mutable state (halo buffers, force
// accumulators, traffic counters) to its own world, so `go test -race`
// passing here means the 6-goroutine force step has no hidden shared writes.
func TestParallelForcesRace(t *testing.T) {
	s := meltLike(t, 2, 5.64, 1200, 17)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)

	serial := newTestMachine(t, p)
	want, wantPot, err := serial.Forces(s)
	if err != nil {
		t.Fatal(err)
	}
	fscale := vec.RMS(want)

	const concurrent = 4
	errs := make(chan error, concurrent)
	for run := 0; run < concurrent; run++ {
		go func() {
			world, err := mpi.NewWorld(4 + 2)
			if err != nil {
				errs <- err
				return
			}
			res, err := oneStep(world, cfg, 4, 2, s)
			if err != nil {
				errs <- err
				return
			}
			// Cross-check against the serial answer so a racy overlap that
			// corrupts data without tripping the detector still fails.
			for i := range want {
				if d := res.Forces[i].Sub(want[i]).Norm() / fscale; d > 1e-9 {
					errs <- fmt.Errorf("force %d deviates by %g of RMS", i, d)
					return
				}
			}
			if math.Abs(res.Potential-wantPot) > 1e-9*math.Abs(wantPot) {
				errs <- fmt.Errorf("potential %g, want %g", res.Potential, wantPot)
				return
			}
			errs <- nil
		}()
	}
	for run := 0; run < concurrent; run++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
