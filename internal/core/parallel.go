package core

import (
	"fmt"
	"math"

	"mdm/internal/ewald"
	"mdm/internal/md"
	"mdm/internal/mdgrape2"
	"mdm/internal/mpi"
	"mdm/internal/tosifumi"
	"mdm/internal/vec"
	"mdm/internal/wine2"
)

// The §4 software organization: "We used 16 processes for real-space part,
// and 8 processes for wavenumber-part. The simulation box is divided into 16
// domains, and one process for real-space part performs all the calculation
// in each domain... For real-space part, communication between processes
// must be done by user." ParallelRun reproduces that organization at a
// configurable scale on the in-process MPI substrate, with persistent
// cell-block ownership per real rank; ParallelForces is the one-shot wrapper
// (build a session, run one step, free it).

// Message tags of the parallel step, exported so per-tag traffic (Stats.
// StatsByTag) can be labeled by tools.
const (
	// TagHalo carries rebuild-step ghost records: stride-5
	// (x, y, z, species, globalIndex) per particle.
	TagHalo = 100
	// TagForces carries per-rank (globalIndex, force) records to rank 0;
	// wavenumber payloads lead with a potential slot.
	TagForces = 101
	// TagGroupReduce is the wavenumber group's structure-factor reduction.
	TagGroupReduce = 102
	// TagMigrate carries rebuild-step ownership transfers: the global
	// indices of particles that crossed a domain face.
	TagMigrate = 103
	// TagGhostPos carries reuse-step ghost positions: three SoA planes
	// packed back to back in one slab.
	TagGhostPos = 104
)

// haloStride is the per-particle record width of a TagHalo payload.
const haloStride = 5

// TagName labels the parallel step's message tags for reports.
func TagName(tag int) string {
	switch tag {
	case TagHalo:
		return "halo"
	case TagForces:
		return "forces"
	case TagGroupReduce:
		return "group-reduce"
	case TagMigrate:
		return "migrate"
	case TagGhostPos:
		return "ghost-pos"
	default:
		return fmt.Sprintf("tag%d", tag)
	}
}

// groupComm adapts a subset of world ranks to the wine2.Communicator
// interface, so the WINE-2 library's internal parallelization (Table 2) runs
// unchanged on the sub-group of wavenumber processes.
type groupComm struct {
	c       *mpi.Comm
	members []int // world ranks of the group, ascending
	me      int   // index of this rank within members
}

func (g *groupComm) Rank() int { return g.me }
func (g *groupComm) Size() int { return len(g.members) }

// AllreduceSum gathers to the group root, sums, and broadcasts back, all
// within the group's world ranks.
func (g *groupComm) AllreduceSum(vals []float64) ([]float64, error) {
	if len(g.members) == 1 {
		out := make([]float64, len(vals))
		copy(out, vals)
		return out, nil
	}
	root := g.members[0]
	if g.c.Rank() == root {
		total := make([]float64, len(vals))
		copy(total, vals)
		for _, m := range g.members[1:] {
			part, err := g.c.RecvFloat64s(m, TagGroupReduce) //mdm:recvok -- world deadline (SetTimeout) bounds this receive
			if err != nil {
				return nil, err
			}
			if len(part) != len(vals) {
				return nil, fmt.Errorf("core: group reduce length mismatch")
			}
			for i := range total {
				total[i] += part[i]
			}
		}
		for _, m := range g.members[1:] {
			if err := g.c.Send(m, TagGroupReduce, total); err != nil {
				return nil, err
			}
		}
		return total, nil
	}
	part := make([]float64, len(vals))
	copy(part, vals)
	if err := g.c.Send(root, TagGroupReduce, part); err != nil {
		return nil, err
	}
	return g.c.RecvFloat64s(root, TagGroupReduce) //mdm:recvok -- world deadline (SetTimeout) bounds this receive
}

// ParallelResult is the assembled output of a parallel force step.
type ParallelResult struct {
	Forces    []vec.V
	Potential float64
	// Traffic is the MPI message/byte count of the step (migration, halo
	// exchange, ghost position streaming, structure factor reduction, force
	// gathering).
	Traffic mpi.Stats
	// TrafficByTag breaks Traffic down by message tag (TagName labels
	// them). Filled by the one-shot ParallelForces; persistent sessions
	// leave it nil on the hot path — read World.StatsByTag around a run
	// instead.
	TrafficByTag map[int]mpi.Stats
}

// ParallelForces computes the full force field with the §4 process layout:
// nReal domain processes run the MDGRAPE-2 real-space passes over their own
// cell blocks, nWave processes run the WINE-2 wavenumber library, and world
// rank 0 assembles the result. The world must have exactly nReal+nWave
// ranks. This is the one-shot form — it builds a ParallelRun session, runs a
// single step, and frees the session; integrator runs should hold a
// ParallelRun instead.
func ParallelForces(world *mpi.World, cfg MachineConfig, nReal, nWave int, s *md.System) (*ParallelResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.L != cfg.Ewald.L {
		return nil, fmt.Errorf("core: system box %g differs from machine box %g", s.L, cfg.Ewald.L)
	}
	pr, err := NewParallelRun(world, cfg, nReal, nWave)
	if err != nil {
		return nil, err
	}
	defer func() { _ = pr.Free() }()
	beforeByTag := world.StatsByTag()
	res, err := pr.Step(s)
	if err != nil {
		return nil, err
	}
	res.TrafficByTag = subtractByTag(world.StatsByTag(), beforeByTag)
	return res, nil
}

// subtractByTag returns after − before per tag, dropping zero rows.
func subtractByTag(after, before map[int]mpi.Stats) map[int]mpi.Stats {
	out := make(map[int]mpi.Stats, len(after))
	//mdm:maporderok -- per-tag subtraction into a fresh map: rows are independent, order cannot affect the result
	for tag, a := range after {
		b := before[tag]
		d := mpi.Stats{Messages: a.Messages - b.Messages, Bytes: a.Bytes - b.Bytes}
		if d.Messages != 0 || d.Bytes != 0 {
			out[tag] = d
		}
	}
	return out
}

// machineCoeffsSet bundles the four coefficient RAMs.
type machineCoeffsSet struct {
	coulomb, bm, d6, d8 *mdgrape2.Coeffs
}

// machineCoeffs builds the NaCl coefficient RAMs (shared logic with
// Machine.loadCoefficients).
func machineCoeffs(p ewald.Params) (*machineCoeffsSet, error) {
	tf := tosifumi.Default()
	aC := p.Alpha * p.Alpha / (p.L * p.L)
	coulomb, err := mdgrape2.NewCoeffs(tosifumi.NumSpecies, aC, 0)
	if err != nil {
		return nil, err
	}
	bm, _ := mdgrape2.NewCoeffs(tosifumi.NumSpecies, 0, 0)
	d6, _ := mdgrape2.NewCoeffs(tosifumi.NumSpecies, 0, 0)
	d8, _ := mdgrape2.NewCoeffs(tosifumi.NumSpecies, 0, 0)
	rho2 := tf.Rho * tf.Rho
	for i := 0; i < tosifumi.NumSpecies; i++ {
		for j := i; j < tosifumi.NumSpecies; j++ {
			si, sj := tosifumi.Species(i), tosifumi.Species(j)
			coulomb.Set(i, j, aC, tosifumi.Charge(si)*tosifumi.Charge(sj))
			bm.Set(i, j, 1/rho2, tf.A[i][j]*tf.B*math.Exp((tf.Sigma[i]+tf.Sigma[j])/tf.Rho)/rho2)
			d6.Set(i, j, 1, -6*tf.C[i][j])
			d8.Set(i, j, 1, -8*tf.D[i][j])
		}
	}
	// Load the RAM images while setup is still single-threaded: the domain
	// ranks share this set and read it concurrently on the force path.
	coulomb.Load()
	bm.Load()
	d6.Load()
	d8.Load()
	return &machineCoeffsSet{coulomb: coulomb, bm: bm, d6: d6, d8: d8}, nil
}

// newRankMDG builds an MR1 session over one rank's share of the MDGRAPE-2
// boards (cfg.MDGBoards when set, so a re-stripe after a dropout shrinks
// every rank's share), with the four kernel tables loaded.
func newRankMDG(cfg MachineConfig, nReal, rank int) (*mdgrape2.MR1, error) {
	m, err := mdgrape2.NewMR1(cfg.MDG)
	if err != nil {
		return nil, err
	}
	m.SetFaultHook(cfg.FaultHook)
	if cfg.Heartbeat != nil {
		//mdm:hotallocok -- rank construction: runs at machine build and re-stripe, not per clean step
		scope := fmt.Sprintf("mdg/rank%d", rank)
		m.SetHeartbeat(func() { cfg.Heartbeat(scope) })
	}
	total := cfg.MDGBoards
	if total == 0 {
		total = cfg.MDG.Boards()
	}
	boards := total / nReal
	if boards < 1 {
		boards = 1
	}
	if err := m.AllocateBoards(boards); err != nil {
		return nil, err
	}
	if err := m.Init(); err != nil {
		return nil, err
	}
	if err := loadTables(m, forceTables); err != nil {
		return nil, err
	}
	return m, nil
}

// newRankWine builds a WINE-2 library session over one rank's share of the
// boards (cfg.WineBoards when set, so a re-stripe after a dropout shrinks
// every rank's share).
func newRankWine(cfg MachineConfig, nWave, rank int) (*wine2.Library, error) {
	lib, err := wine2.NewLibrary(cfg.Wine)
	if err != nil {
		return nil, err
	}
	lib.SetFaultHook(cfg.FaultHook)
	if cfg.Heartbeat != nil {
		//mdm:hotallocok -- rank construction: runs at machine build and re-stripe, not per clean step
		scope := fmt.Sprintf("wine2/rank%d", rank)
		lib.SetHeartbeat(func() { cfg.Heartbeat(scope) })
	}
	total := cfg.WineBoards
	if total == 0 {
		total = cfg.Wine.Boards()
	}
	boards := total / nWave
	if boards < 1 {
		boards = 1
	}
	if err := lib.AllocateBoards(boards); err != nil {
		return nil, err
	}
	if err := lib.InitializeBoards(); err != nil {
		return nil, err
	}
	return lib, nil
}
