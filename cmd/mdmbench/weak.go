// Weak-scaling family for the spatial decomposition: fixed work per rank
// (64 ions, one 2×2×2-cell block each), growing rank counts, and per-tag
// traffic accounting for the rebuild and reuse step shapes.
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
	"mdm/internal/vec"
)

// TagTraffic is the per-tag MPI traffic of one step, labeled with the
// protocol name of the tag (core.TagName).
type TagTraffic struct {
	Tag      int    `json:"tag"`
	Name     string `json:"name"`
	Messages int64  `json:"messages"`
	Bytes    int64  `json:"bytes"`
}

// WeakScalingResult is one rung of the weak-scaling ladder: p real-space
// ranks each owning a fixed 64-ion block of a box that grows with p.
//
// Two efficiencies are reported because they answer different questions.
// WallEfficiency = t(1)/t(p) is the classic weak-scaling number: 1.0 means p
// ranks finish the p×-larger system in the base wall time — it requires p
// real cores, and on a time-shared host it degenerates to ~1/p. PerParticle-
// Efficiency = (t(1)/N(1))/(t(p)/N(p)) divides the serialization out: it is
// 1.0 when the per-particle step cost stays flat as ranks are added, i.e.
// the decomposition added no per-rank overhead — the honest gate on a host
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

	// RebuildTraffic is the per-tag traffic of one full rebuild step
	// (migration + halo re-exchange); ReuseTraffic is one reuse step, where
	// only ghost positions stream. Tags with no traffic are omitted.
	RebuildTraffic []TagTraffic `json:"rebuild_traffic"`
	ReuseTraffic   []TagTraffic `json:"reuse_traffic"`

	// Relative RMS force error of those two steps against the float64
	// reference Ewald (core.NewReference). Both evaluate the reference's r_cut
	// sphere — a reuse step through the layout of the last rebuild on current
	// coordinates — so both read the pipelines' rounding; they part only if
	// the frozen layout and the coordinates it is read with do.
	RebuildForceRelErr float64 `json:"rebuild_force_rel_err"`
	ReuseForceRelErr   float64 `json:"reuse_force_rel_err"`
}

// weakForceErrCap is the rule both gates (-weak-smoke and -compare) hold a
// rung to: its rebuild and its reuse step each within 5·10⁻⁵ relative RMS of
// the reference Ewald. The rungs read ≈ 1.5·10⁻⁵, the pipelines' rounding; a
// particle read on the wrong periodic image, or a pair set other than the
// sphere, reads 10⁻³ and up.
const weakForceErrCap = 5e-5

// overForceErrCap reports whether either step of the rung breaks the cap.
func (r WeakScalingResult) overForceErrCap() bool {
	return r.RebuildForceRelErr > weakForceErrCap || r.ReuseForceRelErr > weakForceErrCap
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
// crystal's face layers are in thermal motion and some ion crosses the box
// boundary on every step, so the bracketed reuse step has crossers to get
// wrong.
const weakWarmup = 30

// weakTags is the fixed, deterministic order traffic rows are reported in.
var weakTags = []int{core.TagMigrate, core.TagHalo, core.TagGhostPos, core.TagForces, core.TagGroupReduce}

// trafficDelta turns an after-minus-before StatsByTag pair into labeled
// rows, in weakTags order, dropping silent tags.
func trafficDelta(before, after map[int]mpi.Stats) []TagTraffic {
	var out []TagTraffic
	for _, tag := range weakTags {
		d := mpi.Stats{
			Messages: after[tag].Messages - before[tag].Messages,
			Bytes:    after[tag].Bytes - before[tag].Bytes,
		}
		if d.Messages == 0 && d.Bytes == 0 {
			continue
		}
		out = append(out, TagTraffic{Tag: tag, Name: core.TagName(tag), Messages: d.Messages, Bytes: d.Bytes})
	}
	return out
}

// forceRelErr is the relative RMS difference of the integrator's current
// forces from the reference's on the same positions.
func forceRelErr(ref *core.Reference, it *md.Integrator, sys *md.System) (float64, error) {
	want, _, err := ref.Forces(sys)
	if err != nil {
		return 0, err
	}
	return vec.RelRMSDiff(it.Forces(), want), nil
}

// weakRung times one rung of the ladder: steps NVE steps of the 1200 K
// melt protocol at fixed 64 ions/rank, plus a forced-rebuild step and a
// reuse step bracketed by per-tag traffic snapshots and checked against the
// reference Ewald.
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
	ref, err := core.NewReference(p)
	if err != nil {
		return WeakScalingResult{}, err
	}
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

	// One forced rebuild step and one reuse step, each bracketed by per-tag
	// snapshots. The reuse step follows a fresh rebuild, so the skin budget
	// is full and the step cannot spill into another rebuild.
	run.InvalidateGeometry()
	before := world.StatsByTag()
	if err := it.Run(1, nil); err != nil {
		return WeakScalingResult{}, err
	}
	mid := world.StatsByTag()
	rebuildErr, err := forceRelErr(ref, it, sys)
	if err != nil {
		return WeakScalingResult{}, err
	}
	if err := it.Run(1, nil); err != nil {
		return WeakScalingResult{}, err
	}
	after := world.StatsByTag()
	reuseErr, err := forceRelErr(ref, it, sys)
	if err != nil {
		return WeakScalingResult{}, err
	}

	n := sys.N()
	return WeakScalingResult{
		Ranks:              ranks,
		Cells:              cells,
		N:                  n,
		ParticlesPerRank:   n / ranks,
		Steps:              steps,
		NsPerStep:          nsPerStep,
		NsPerParticle:      nsPerStep / float64(n),
		RebuildTraffic:     trafficDelta(before, mid),
		ReuseTraffic:       trafficDelta(mid, after),
		RebuildForceRelErr: rebuildErr,
		ReuseForceRelErr:   reuseErr,
	}, nil
}

// weakScaling runs the ladder and fills in efficiencies against the
// single-rank rung.
func weakScaling(rungs []struct{ ranks, cells int }, steps int) ([]WeakScalingResult, error) {
	var out []WeakScalingResult
	var base WeakScalingResult
	for _, rung := range rungs {
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

// bytesFor returns the byte count of one tag in a traffic row set (0 when
// the tag is silent).
func bytesFor(rows []TagTraffic, tag int) int64 {
	for _, r := range rows {
		if r.Tag == tag {
			return r.Bytes
		}
	}
	return 0
}

// weakSmoke gates CI on the decomposition's structural claims, sized to stay
// quick ({1,8} ranks, a handful of timed steps):
//
//   - correctness: a rebuild and a reuse step are each within weakForceErrCap
//     of the reference Ewald. The 8-rank rung's grid has 4 cells a side,
//     where a particle read on the wrong periodic image is not rescued by the
//     walk covering every image anyway (weakWarmup supplies the crossers);
//   - protocol: a reuse step streams ghost positions only — no halo, no
//     migration — and moves strictly fewer bytes than a rebuild step;
//   - overhead: the per-particle step cost at 8 ranks stays within 2× of the
//     single-rank cost. The wall-clock weak-scaling number needs one real
//     core per rank and is recorded in the artifact instead of gated here:
//     on a host with num_cpu < ranks (CI boxes included) the in-process
//     world time-shares the ranks and wall efficiency measures the host,
//     not the decomposition.
func weakSmoke() error {
	results, err := weakScaling(weakRungs[:2], 3)
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.overForceErrCap() {
			return fmt.Errorf("weak smoke ranks=%d: force error against the reference Ewald %.3g on the reuse step, %.3g on the rebuild step (allowed ≤ %g)",
				r.Ranks, r.ReuseForceRelErr, r.RebuildForceRelErr, weakForceErrCap)
		}
		if r.Ranks == 1 {
			continue
		}
		rebuild := bytesFor(r.RebuildTraffic, core.TagHalo)
		ghost := bytesFor(r.ReuseTraffic, core.TagGhostPos)
		if rebuild == 0 || ghost == 0 {
			return fmt.Errorf("weak smoke ranks=%d: expected halo bytes on rebuild (%d) and ghost-position bytes on reuse (%d)", r.Ranks, rebuild, ghost)
		}
		if b := bytesFor(r.ReuseTraffic, core.TagHalo); b != 0 {
			return fmt.Errorf("weak smoke ranks=%d: reuse step re-sent %d halo bytes", r.Ranks, b)
		}
		if b := bytesFor(r.ReuseTraffic, core.TagMigrate); b != 0 {
			return fmt.Errorf("weak smoke ranks=%d: reuse step migrated %d bytes", r.Ranks, b)
		}
		if ghost >= rebuild {
			return fmt.Errorf("weak smoke ranks=%d: reuse ghost stream (%d B) not smaller than rebuild halo (%d B)", r.Ranks, ghost, rebuild)
		}
		const margin = 2.0
		if r.PerParticleEff < 1/margin {
			return fmt.Errorf("weak smoke ranks=%d: per-particle efficiency %.2f (required ≥ %.2f)", r.Ranks, r.PerParticleEff, 1/margin)
		}
		fmt.Printf("weak smoke: ranks=%d per-particle efficiency %.2f, reuse %d B vs rebuild %d B, force error reuse %.3g vs rebuild %.3g (num_cpu=%d)\n",
			r.Ranks, r.PerParticleEff, ghost, rebuild, r.ReuseForceRelErr, r.RebuildForceRelErr, runtime.NumCPU())
	}
	return nil
}
