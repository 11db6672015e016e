// Weak-scaling family for the spatial decomposition: fixed work per rank
// (64 ions, one 2×2×2-cell block each) at growing rank counts.
package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"mdm/internal/core"
	"mdm/internal/ewald"
	"mdm/internal/md"
	"mdm/internal/mpi"
)

// WeakScalingResult is one rung of the weak-scaling ladder: p real-space
// ranks each owning a fixed 64-ion block of a box that grows with p.
//
// Two efficiencies are reported because they answer different questions.
// WallEfficiency = t(1)/t(p) is the classic weak-scaling number: 1.0 means p
// ranks finish the p×-larger system in the base wall time — it requires p
// real cores, and on a time-shared host it degenerates to ~1/p. PerParticle-
// Efficiency = (t(1)/N(1))/(t(p)/N(p)) divides the serialization out: it is
// 1.0 when the per-particle step cost stays flat as ranks are added, i.e.
// the decomposition added no per-rank overhead — the honest figure on a host
// with fewer cores than ranks (the artifact's num_cpu field says which
// regime produced the record).
type WeakScalingResult struct {
	Ranks            int     `json:"ranks"`
	Cells            int     `json:"cells"`
	N                int     `json:"n"`
	ParticlesPerRank int     `json:"particles_per_rank"`
	Steps            int     `json:"steps"`
	NsPerStep        float64 `json:"ns_per_step"`
	NsPerParticle    float64 `json:"ns_per_particle_step"`
	WallEfficiency   float64 `json:"wall_efficiency"`
	PerParticleEff   float64 `json:"per_particle_efficiency"`
}

// weakRungs is the ladder: rank count and box side (in rock-salt cells) grow
// together so every rank owns one 2×2×2 block of grid cells — 64 ions.
var weakRungs = []struct{ ranks, cells int }{
	{1, 2}, {8, 4}, {27, 6},
}

// weakParams holds the real-space discretization physical while the box
// grows: r_cut stays at the 64-ion accuracy-suite cutoff (2.633·11.28/5.851
// = 5.076 Å), so with the 0.5 Å skin the cell side is 5.576–5.64 Å and the
// grid has exactly `cells` cells per axis — every rung's rank owns the same
// 8-cell block and sees the same 56-cell ghost shell. The wavenumber cutoff
// is pinned at the base rung's value instead of growing with α (which would
// be the accuracy-balanced choice) so the wavenumber work per particle is
// constant too: the family isolates the real-space decomposition rather
// than re-measuring Ewald cost balancing.
func weakParams(cells int) ewald.Params {
	base := ewald.ParamsForAlpha(2*5.64, ewald.SReal/0.45)
	l := float64(cells) * 5.64
	p := ewald.ParamsForAlpha(l, ewald.SReal*l/base.RCut)
	p.LKCut = base.LKCut
	return p
}

// weakWarmup is the untimed lead-in of every rung: long enough that the
// crystal's face layers are in thermal motion, so the timed steps carry the
// rebuild / reuse mix and the migrations of a running melt.
const weakWarmup = 30

// weakRung times one rung of the ladder: steps NVE steps of the 1200 K melt
// protocol at fixed 64 ions/rank, after weakWarmup untimed ones.
func weakRung(ranks, cells, steps int) (WeakScalingResult, error) {
	p := weakParams(cells)
	cfg := core.CurrentMachineConfig(p)
	cfg.PotentialEvery = 100
	cfg.Skin = 0.5
	world, err := mpi.NewWorld(ranks + 1)
	if err != nil {
		return WeakScalingResult{}, err
	}
	run, err := core.NewParallelRun(world, cfg, ranks, 1)
	if err != nil {
		return WeakScalingResult{}, err
	}
	defer func() { _ = run.Free() }()
	sys, err := md.NewRockSalt(cells, 5.64)
	if err != nil {
		return WeakScalingResult{}, err
	}
	sys.SetMaxwellVelocities(1200, 1)
	it, err := md.NewIntegrator(sys, run, 2.0)
	if err != nil {
		return WeakScalingResult{}, err
	}
	if err := it.Run(weakWarmup, nil); err != nil {
		return WeakScalingResult{}, err
	}

	start := time.Now()
	if err := it.Run(steps, nil); err != nil {
		return WeakScalingResult{}, err
	}
	nsPerStep := float64(time.Since(start).Nanoseconds()) / float64(steps)

	n := sys.N()
	return WeakScalingResult{
		Ranks:            ranks,
		Cells:            cells,
		N:                n,
		ParticlesPerRank: n / ranks,
		Steps:            steps,
		NsPerStep:        nsPerStep,
		NsPerParticle:    nsPerStep / float64(n),
	}, nil
}

// weakScaling runs the ladder and fills in efficiencies against the
// single-rank rung.
func weakScaling(steps int) ([]WeakScalingResult, error) {
	var out []WeakScalingResult
	var base WeakScalingResult
	for _, rung := range weakRungs {
		r, err := weakRung(rung.ranks, rung.cells, steps)
		if err != nil {
			return nil, fmt.Errorf("weak scaling ranks=%d: %w", rung.ranks, err)
		}
		if rung.ranks == 1 {
			base = r
		}
		if base.NsPerStep > 0 {
			r.WallEfficiency = base.NsPerStep / r.NsPerStep
			r.PerParticleEff = base.NsPerParticle / r.NsPerParticle
		}
		out = append(out, r)
		fmt.Fprintf(os.Stderr, "weakScaling ranks=%d N=%d: %.1f ms/step, per-particle efficiency %.2f, wall efficiency %s\n",
			r.Ranks, r.N, r.NsPerStep/1e6, r.PerParticleEff, speedupText(r.WallEfficiency, r.Ranks, runtime.NumCPU()))
	}
	return out, nil
}
