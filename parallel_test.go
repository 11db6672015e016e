package mdm

import (
	"math"
	"testing"
)

// The worker pool stripes the simulated pipelines across host cores without
// changing any accumulation order, so a full protocol run must be
// byte-identical at every pool width — the repo's zero-numerical-drift
// guarantee for the intra-board parallelism layer.

func runProtocolWithWorkers(t *testing.T, workers int) *Simulation {
	t.Helper()
	sim, err := NewSimulation(Config{
		Cells:   2,
		Backend: BackendMDM,
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunNVT(10); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunNVE(50); err != nil {
		t.Fatal(err)
	}
	return sim
}

// The spatial decomposition keeps every cell's particle order serial, so the
// public API must deliver bit-identical protocol runs at any rank count when
// the wavenumber side stays a single group.
func TestNVEProtocolBitIdenticalAcrossRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine protocol comparison in -short mode")
	}
	run := func(ranks int) *Simulation {
		t.Helper()
		sim, err := NewSimulation(Config{
			Cells:   2,
			Backend: BackendMDM,
			Skin:    0.5,
			Ranks:   ranks,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunNVT(5); err != nil {
			t.Fatal(err)
		}
		if err := sim.RunNVE(20); err != nil {
			t.Fatal(err)
		}
		return sim
	}
	serial, err := NewSimulation(Config{Cells: 2, Backend: BackendMDM, Skin: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = serial.Free() }()
	if err := serial.RunNVT(5); err != nil {
		t.Fatal(err)
	}
	if err := serial.RunNVE(20); err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 4} {
		par := run(ranks)
		for i := range serial.System.Pos {
			a, b := serial.System.Pos[i], par.System.Pos[i]
			if math.Float64bits(a.X) != math.Float64bits(b.X) ||
				math.Float64bits(a.Y) != math.Float64bits(b.Y) ||
				math.Float64bits(a.Z) != math.Float64bits(b.Z) {
				t.Fatalf("ranks=%d: position %d differs after the protocol: %v vs %v", ranks, i, b, a)
			}
			if serial.System.Vel[i] != par.System.Vel[i] {
				t.Fatalf("ranks=%d: velocity %d differs", ranks, i)
			}
		}
		sa, pa := serial.Records(), par.Records()
		if len(sa) != len(pa) {
			t.Fatalf("ranks=%d: %d records vs %d", ranks, len(pa), len(sa))
		}
		for k := range sa {
			if math.Float64bits(sa[k].E) != math.Float64bits(pa[k].E) ||
				math.Float64bits(sa[k].PE) != math.Float64bits(pa[k].PE) {
				t.Fatalf("ranks=%d: record %d energies differ: %+v vs %+v", ranks, k, pa[k], sa[k])
			}
		}
		_ = par.Free()
	}
}

func TestNVEProtocolBitIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine protocol comparison in -short mode")
	}
	serial := runProtocolWithWorkers(t, 1)
	defer func() { _ = serial.Free() }()
	for _, w := range []int{4} {
		par := runProtocolWithWorkers(t, w)
		for i := range serial.System.Pos {
			a, b := serial.System.Pos[i], par.System.Pos[i]
			if math.Float64bits(a.X) != math.Float64bits(b.X) ||
				math.Float64bits(a.Y) != math.Float64bits(b.Y) ||
				math.Float64bits(a.Z) != math.Float64bits(b.Z) {
				t.Fatalf("workers=%d: position %d differs after 50-step NVE: %v vs %v", w, i, b, a)
			}
			va, vb := serial.System.Vel[i], par.System.Vel[i]
			if va != vb {
				t.Fatalf("workers=%d: velocity %d differs: %v vs %v", w, i, vb, va)
			}
		}
		sa, pa := serial.Records(), par.Records()
		if len(sa) != len(pa) {
			t.Fatalf("workers=%d: %d records vs %d", w, len(pa), len(sa))
		}
		for k := range sa {
			if math.Float64bits(sa[k].E) != math.Float64bits(pa[k].E) ||
				math.Float64bits(sa[k].PE) != math.Float64bits(pa[k].PE) {
				t.Fatalf("workers=%d: record %d energies differ: %+v vs %+v", w, k, pa[k], sa[k])
			}
		}
		_ = par.Free()
	}
}
