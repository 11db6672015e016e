package core

import (
	"fmt"

	"mdm/internal/mpi"
	"mdm/internal/vec"
)

// The §4 software organization: "We used 16 processes for real-space part,
// and 8 processes for wavenumber-part. The simulation box is divided into 16
// domains, and one process for real-space part performs all the calculation
// in each domain... For real-space part, communication between processes
// must be done by user." ParallelRun reproduces that organization at a
// configurable scale on the in-process MPI substrate, with persistent
// cell-block ownership per real rank. This file holds the wire protocol: the
// message tags, the wavenumber group's communicator and the step result.

// Message tags of the parallel step, exported so per-tag traffic (Stats.
// StatsByTag) can be labeled by tools.
const (
	// TagHalo carries rebuild-step ghost records: stride-4
	// (x, y, z, species) per particle.
	TagHalo = 100
	// TagForces carries force payloads to rank 0: a real rank's
	// (globalIndex, force) records, then its real-space potential word's bits,
	// or a wave rank's potential and then its stripe's three force planes.
	TagForces = 101
	// TagGroupReduce is the wavenumber group's structure-factor reduction.
	TagGroupReduce = 102
	// TagMigrate carries rebuild-step ownership transfers: the global
	// indices, one float64 word each, of particles that crossed a domain
	// face.
	TagMigrate = 103
	// TagGhostPos carries reuse-step ghost positions: three SoA planes
	// packed back to back in one slab.
	TagGhostPos = 104
)

// haloStride is the per-particle record width of a TagHalo payload.
const haloStride = 4

// groupComm adapts a subset of world ranks to the wine2.Communicator
// interface, so the WINE-2 library's internal parallelization (Table 2) runs
// unchanged on the sub-group of wavenumber processes. A session installs one
// only when the group has two members or more.
type groupComm struct {
	c       *mpi.Comm
	members []int     // world ranks of the group, ascending
	me      int       // index of this rank within members
	total   []float64 // the root's sum, reused across steps
}

func (g *groupComm) Rank() int { return g.me }
func (g *groupComm) Size() int { return len(g.members) }

// AllreduceSum gathers to the group root, sums, and broadcasts back, all
// within the group's world ranks. Nothing is copied per step: a member sends
// vals itself and blocks in Recv until the root has read it, and the root
// sums into its reused buffer and broadcasts that. Every member reads the
// broadcast only within the step, and World.Run waits for every rank, so
// the next step's sum cannot overwrite a buffer still being read; a retried
// step starts a new Run.
func (g *groupComm) AllreduceSum(vals []float64) ([]float64, error) {
	root := g.members[0]
	if g.c.Rank() != root {
		if err := g.c.Send(root, TagGroupReduce, vals); err != nil {
			return nil, err
		}
		return g.c.Recv(root, TagGroupReduce)
	}
	if cap(g.total) < len(vals) {
		g.total = make([]float64, len(vals))
	}
	total := g.total[:len(vals)]
	copy(total, vals)
	for _, m := range g.members[1:] {
		part, err := g.c.Recv(m, TagGroupReduce)
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

// ParallelResult is the assembled output of a parallel force step.
type ParallelResult struct {
	Forces    []vec.V
	Potential float64
	// Traffic is the MPI message/byte count of the step (migration, halo
	// exchange, ghost position streaming, structure factor reduction, force
	// gathering).
	Traffic mpi.Stats
}
