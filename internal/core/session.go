package core

import (
	"fmt"
	"math"
	"slices"

	"mdm/internal/domain"
	"mdm/internal/ewald"
	"mdm/internal/fault"
	"mdm/internal/md"
	"mdm/internal/mdgrape2"
	"mdm/internal/mpi"
	"mdm/internal/parallelize"
	"mdm/internal/soa"
	"mdm/internal/tosifumi"
	"mdm/internal/vec"
)

// ParallelRun is a persistent multi-step rank session for the §4 process
// layout: the MPI world, the spatial decomposition, every rank's MDGRAPE-2 /
// WINE-2 session, j-set layout, and exchange buffers live across an
// integrator run instead of being rebuilt per force call. The serial engine
// (NewMachine) is its 1 + 1 case on a private world.
//
// Ownership is spatial and persistent. The global cell grid (side r_cut +
// skin) is split into contiguous cell blocks, one per real-space rank
// (domain.Blocks); a rank owns the particles whose cell it owns. Between
// layout rebuilds ownership is frozen, like every rank's sorted layout
// (cellindex.Sorted): reuse steps stream only ghost *positions* (tag
// TagGhostPos, slab-allocated SoA planes, zero steady-state allocations) —
// as the integrator wrapped them; the receiving layout's Refresh keeps each
// on the image it was sorted on. On a rebuild step particles that crossed a
// domain face migrate to their new owner (tag TagMigrate, global indices
// only), and the full ghost shell — position, species, global index per
// particle — is re-exchanged (tag TagHalo). The rebuild schedule is the
// skinClock, read on the driver so every rank agrees. A single real rank
// owns every cell and needs no ghost: it reads the system's own arrays, and
// its layout is the serial one.
//
// Determinism: because every cell is filled by exactly one rank and owned
// particle lists are kept ascending by global index, each rank's local
// cell-sorted layout has the same within-cell particle order as the single
// real rank's. The per-particle real-space force is therefore bit-identical
// at any rank count, and with a single wavenumber rank the wavenumber path
// is the serial one too, making whole trajectories bit-identical to the
// serial goldens. With several wavenumber ranks the structure-factor
// reduction reorders float64 sums; that path is pinned by an energy-drift
// parity gate instead (see session tests and DESIGN.md §15).
type ParallelRun struct {
	engineBase   // the rebuild schedule (clock), read on the driver
	world        *mpi.World
	nReal, nWave int
	blocks       *domain.Blocks

	// needGhost[r][c] reports whether real rank r needs cell c as a ghost.
	// ghostSrc[r] / ghostDst[r]: ranks r receives ghosts from / sends ghosts
	// to, ascending. All three are static block-geometry facts, built only
	// at several real ranks.
	needGhost [][]bool
	ghostSrc  [][]int
	ghostDst  [][]int

	real []*realRankState
	wave []*waveRankState

	// Driver state.
	rankStep func(c *mpi.Comm) error // runRank, bound once
	sys      *md.System              // the system of the Step in progress, nil between steps
	n        int                     // particle count, fixed at the first step
	rebuild  bool                    // this step rebuilds (set by the driver, read by ranks)
	initStep bool                    // this step derives ownership from scratch
	t0       int64                   // the spine's reading at the call's start, where both lanes begin

	// On a due call every real rank's sweep carries the host potential
	// (realRank.sweep); realPot is the ranks' words added, written by rank 0
	// during Run and read by the driver after.
	due     bool
	realPot int64

	// lending is where, at the 1 + 1 layout only, the lane that finishes its
	// share of a call first lends its goroutine to the other lane's pool
	// Runs until that lane releases (lend): real rank 0 after its sweep, wave
	// rank 0 after its send. Each rank's pool is its side of it. nil at any
	// other layout, where a lender would take a core from a sweep it cannot
	// join.
	lending *parallelize.Lending

	wavePot float64     // written by rank 0 during Run, read by the driver after
	out     []vec.V     // the step's force slice: the caller's dst, assembled into by rank 0 during Run
	bufs    [][]float64 // rank 0's scratch: the payload each rank sent it this step
	seen    []bool      // rank 0's scratch at several real ranks: a real record carried the particle

	res ParallelResult
}

// realRankState is one real-space (domain) rank: the engine body's real rank
// plus its share of the wire protocol.
type realRankState struct {
	realRank
	rank int
	comm *mpi.Comm

	owned []int // global indices of owned particles, ascending

	// Local j-side arrays: owned particles first, then ghosts grouped by
	// source rank (ascending), each group in the sender's (ascending) order.
	locPos []vec.V
	locTyp []int
	nOwn   int

	// Sender-side scratch, indexed by destination rank, built only at
	// several real ranks. sendIdx is the per-destination ghost list frozen
	// at the last rebuild; haloBuf packs stride-4 rebuild records, posBuf
	// packs the 3 SoA position planes of a reuse step back to back in one
	// slab.
	sendIdx [][]int
	haloBuf [][]float64
	posBuf  [][]float64
	migBuf  [][]float64

	ghostCnt []int // ghosts received per source rank at the last rebuild

	ship []float64 // (index, force) records, then the potential word, to rank 0; rank 0 ships nothing
}

// waveRankState is one wavenumber rank: the engine body's wave rank plus its
// stripe of the particles. Its force planes are views of slab behind a
// leading potential word, and slab is the payload it ships to rank 0.
type waveRankState struct {
	waveRank
	rank   int // world rank
	comm   *mpi.Comm
	lo, hi int // global particle stripe, fixed at the first step
	slab   []float64
}

// NewParallelRun validates the layout and builds the persistent rank
// sessions. The first Forces call derives the initial ownership; Free
// releases every rank's boards.
func NewParallelRun(world *mpi.World, cfg MachineConfig, nReal, nWave int) (*ParallelRun, error) {
	if nReal < 1 || nWave < 1 {
		return nil, fmt.Errorf("core: need at least one process of each kind (got %d real, %d wave)", nReal, nWave)
	}
	if world.Size() != nReal+nWave {
		return nil, fmt.Errorf("core: world size %d != %d real + %d wave", world.Size(), nReal, nWave)
	}
	base, err := newEngineBase(cfg)
	if err != nil {
		return nil, err
	}
	grid := base.grid
	blocks, err := domain.NewBlocks(grid.N, nReal)
	if err != nil {
		return nil, err
	}
	pr := &ParallelRun{
		engineBase: base,
		world:      world,
		nReal:      nReal,
		nWave:      nWave,
		blocks:     blocks,
		bufs:       make([][]float64, nReal+nWave),
	}
	pr.rankStep = pr.runRank

	if nReal > 1 {
		pr.ghostGeometry()
	} else if nWave == 1 {
		pr.lending = parallelize.NewLending(cfg.Phases.now)
	}

	free := func() { _ = pr.Free() }
	pr.real = make([]*realRankState, 0, nReal)
	pr.wave = make([]*waveRankState, 0, nWave)
	for r := 0; r < nReal; r++ {
		comm, err := world.Comm(r)
		if err != nil {
			free()
			return nil, err
		}
		rk, err := pr.newRealRank(nReal, pr.pool(LaneCaller))
		if err != nil {
			free()
			return nil, err
		}
		rr := &realRankState{realRank: rk, rank: r, comm: comm}
		if nReal > 1 {
			rr.sendIdx = make([][]int, nReal)
			rr.haloBuf = make([][]float64, nReal)
			rr.posBuf = make([][]float64, nReal)
			rr.migBuf = make([][]float64, nReal)
			rr.ghostCnt = make([]int, len(pr.ghostSrc[r]))
		}
		pr.real = append(pr.real, rr)
		pr.realRanks = append(pr.realRanks, &pr.real[r].realRank)
	}
	for w := 0; w < nWave; w++ {
		rank := nReal + w
		comm, err := world.Comm(rank)
		if err != nil {
			free()
			return nil, err
		}
		wk, err := pr.newWaveRank(nWave, pr.pool(LaneWave))
		if err != nil {
			free()
			return nil, err
		}
		if nWave > 1 {
			members := make([]int, nWave)
			for i := range members {
				members[i] = nReal + i
			}
			wk.lib.SetMPICommunity(&groupComm{c: comm, members: members, me: w})
		}
		pr.wave = append(pr.wave, &waveRankState{waveRank: wk, rank: rank, comm: comm})
		pr.waveRanks = append(pr.waveRanks, &pr.wave[w].waveRank)
	}
	return pr, nil
}

// ghostGeometry derives the static ghost geometry at several real ranks:
// which cells each rank needs, hence which rank pairs exchange ghosts. Both
// sides derive the same lists, so the message pattern is deterministic and
// deadlock-free.
func (pr *ParallelRun) ghostGeometry() {
	nc := pr.grid.NumCells()
	pr.needGhost = make([][]bool, pr.nReal)
	pr.ghostSrc = make([][]int, pr.nReal)
	pr.ghostDst = make([][]int, pr.nReal)
	srcSet := make([]bool, pr.nReal)
	for r := 0; r < pr.nReal; r++ {
		pr.needGhost[r] = make([]bool, nc)
		for i := range srcSet {
			srcSet[i] = false
		}
		for _, c := range pr.blocks.GhostCells(r) {
			pr.needGhost[r][c] = true
			srcSet[pr.blocks.Owner(c)] = true
		}
		// Ascending rank iteration keeps both lists sorted, so every rank
		// derives the same deterministic message order.
		pr.ghostSrc[r] = make([]int, 0, pr.nReal)
		for src := 0; src < pr.nReal; src++ {
			if srcSet[src] {
				pr.ghostSrc[r] = append(pr.ghostSrc[r], src)
			}
		}
	}
	for src := 0; src < pr.nReal; src++ {
		pr.ghostDst[src] = make([]int, 0, pr.nReal)
		for r := 0; r < pr.nReal; r++ {
			if slices.Contains(pr.ghostSrc[r], src) {
				pr.ghostDst[src] = append(pr.ghostDst[src], r)
			}
		}
	}
}

// pool is a new worker pool for a rank of lane: at the 1 + 1 layout the
// lane's side of the lending, at any other a plain pool.
func (pr *ParallelRun) pool(lane Lane) *parallelize.Pool {
	if pr.lending != nil {
		return pr.lending.Pool(int(lane), pr.cfg.Workers)
	}
	return parallelize.New(pr.cfg.Workers)
}

// Forces implements md.ForceField on the persistent session: the forces in
// a fresh slice.
func (pr *ParallelRun) Forces(s *md.System) ([]vec.V, float64, error) { return pr.ForcesInto(s, nil) }

// ForcesInto implements md.ForceFieldInto: Forces writing into dst.
func (pr *ParallelRun) ForcesInto(s *md.System, dst []vec.V) ([]vec.V, float64, error) {
	res, err := pr.StepInto(s, dst)
	if err != nil {
		return nil, 0, err
	}
	return res.Forces, res.Potential, nil
}

// Step runs one decomposed force evaluation and returns the assembled
// result, its forces in a fresh slice (StepInto).
func (pr *ParallelRun) Step(s *md.System) (*ParallelResult, error) { return pr.StepInto(s, nil) }

// StepInto is Step writing the forces into dst when it holds s.N() vectors,
// else into a fresh slice. The returned value aliases session-owned
// bookkeeping (it is overwritten by the next step); its Forces slice is the
// caller's. A failed step leaves no message in flight: the world is drained
// before StepInto returns, so a retry at the same positions starts clean.
//
//mdm:stepflow -- hot-path root: the decomposed per-step force evaluation; everything it reaches must stay deterministic and allocation-free
func (pr *ParallelRun) StepInto(s *md.System, dst []vec.V) (*ParallelResult, error) {
	if s.L != pr.cfg.Ewald.L {
		return nil, fmt.Errorf("core: system box %g differs from machine box %g", s.L, pr.cfg.Ewald.L)
	}
	if pr.n != 0 && s.N() != pr.n {
		return nil, fmt.Errorf("core: session built for %d particles, got %d", pr.n, s.N())
	}
	if pr.n == 0 {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		pr.n = s.N()
		if pr.nReal > 1 {
			pr.seen = make([]bool, pr.n)
		}
		for w, wr := range pr.wave {
			wr.lo, wr.hi = w*pr.n/pr.nWave, (w+1)*pr.n/pr.nWave
		}
	}
	pr.t0 = pr.cfg.Phases.now()

	// The rebuild decision is the skin clock, read once on the driver so all
	// ranks agree on the step's protocol, and booked before any rank runs.
	pr.rebuild, pr.initStep = pr.clock.due(s.Pos)
	pr.clock.advance(s.Pos, pr.rebuild)
	pr.due = pr.pot.due()
	pr.lending.Reset()

	before := pr.world.Stats()
	pr.sys, pr.out = s, dst
	err := pr.world.Run(pr.rankStep)
	pr.sys = nil
	out := pr.out
	pr.out = nil
	if err != nil {
		pr.world.Reset()
		// A failed rebuild step may have half-applied a migration: the next
		// attempt re-derives the decomposition from scratch, which at the
		// same positions gives the same owned sets and layouts. A failed
		// reuse step changed no ownership or ghost list.
		if pr.rebuild {
			pr.clock.invalidate()
		}
		return nil, err
	}

	// Potential bookkeeping, every PotentialEvery steps: the sweeps'
	// real-space word, plus the wave and self terms.
	pot := pr.pot.book(pr.realPot, pr.wavePot, s)

	after := pr.world.Stats()
	pr.res.Forces = out
	pr.res.Potential = pot
	pr.res.Traffic = mpi.Stats{
		Messages: after.Messages - before.Messages,
		Bytes:    after.Bytes - before.Bytes,
	}
	return &pr.res, nil
}

// errLendCanceled is a lane's error when its run group was canceled while it
// lent: a cancellation echo, like a Recv's.
var errLendCanceled = fmt.Errorf("core: lend: %w", mpi.ErrCanceled)

// lend, at the 1 + 1 layout, releases lane's side of the lending and, until
// the other lane releases, runs chunks of that lane's pool Runs; if it had
// to wait it books the lend on lane from t to the other lane's release, one
// reading the releasing lane took. A canceled run group unwinds it.
func (pr *ParallelRun) lend(lane Lane, c *mpi.Comm, t int64) (int64, error) {
	if pr.lending == nil {
		return t, nil
	}
	until, lent, err := pr.lending.Lend(int(lane), c.Done())
	if err != nil {
		return t, errLendCanceled
	}
	if lent {
		t = pr.cfg.Phases.bookAt(lane, PhaseLend, t, until)
	}
	return t, nil
}

// Waves returns the wavevector set in use.
func (pr *ParallelRun) Waves() []ewald.Wave { return pr.waves }

// MDGStats returns the MDGRAPE-2 work counters, summed over the real ranks.
func (pr *ParallelRun) MDGStats() mdgrape2.Stats {
	var sum mdgrape2.Stats
	for _, rr := range pr.real {
		st := rr.mr1.System().Stats()
		sum.PairsEvaluated += st.PairsEvaluated
		sum.IParticles += st.IParticles
		sum.JLoads += st.JLoads
		sum.Calls += st.Calls
	}
	return sum
}

// runRank is one rank's share of StepInto, bound once in NewParallelRun (as
// rankStep) so a step hands the world no fresh closure.
func (pr *ParallelRun) runRank(c *mpi.Comm) error {
	if c.Rank() < pr.nReal {
		return pr.realStep(pr.real[c.Rank()], pr.sys)
	}
	return pr.waveStep(pr.wave[c.Rank()-pr.nReal], pr.sys)
}

// wireError wraps a malformed incoming payload as a link fault, so the
// recovery ladder treats it like any other transient message corruption
// (retryable; the resend is clean).
//
//mdm:hotallocok -- constructed only when an incoming payload fails validation, never on the clean step path
func wireError(src, dst int, format string, args ...any) error {
	return fmt.Errorf("core: %s: %w", fmt.Sprintf(format, args...), &fault.LinkError{Src: src, Dst: dst})
}

// wireIndex decodes an index word of a src → dst payload (a migrated or
// ghost particle, a ghost's species, a force record's particle): an exact
// integer in [0, n). Any other word — a flipped bit makes most of them
// fractional, negative or huge — is a wireError, never a truncated index.
func wireIndex(w float64, n, src, dst int, what string) (int, error) {
	if !(w >= 0 && w < float64(n)) || w != math.Trunc(w) {
		return 0, wireError(src, dst, "rank %d: %s %v from %d not an integer in [0,%d)", dst, what, w, src, n)
	}
	return int(w), nil
}

// realStep is the per-step body of one real-space rank: migrate (rebuild
// steps), exchange or stream ghosts, run the fused MDGRAPE-2 sweep over the
// owned block, carrying the potential on a due call, ship (index, force)
// records and the potential word to rank 0. Rank 0 ships nothing: after its
// sweep it lends (1 + 1) and assembles. At one real rank it owns every
// particle and reads s.Pos and s.Type as they stand. Real rank 0 books the
// spine's caller lane.
func (pr *ParallelRun) realStep(rr *realRankState, s *md.System) error {
	defer pr.lending.Release(int(LaneCaller)) // every exit, so a parked wave lane wakes
	var spine *PhaseSink
	if rr.rank == 0 {
		spine = pr.cfg.Phases
	}
	t := pr.t0
	pos, typ, nOwn := s.Pos, s.Type, pr.n
	if pr.nReal > 1 {
		if err := pr.exchange(rr, s); err != nil {
			return err
		}
		pos, typ, nOwn = rr.locPos, rr.locTyp, rr.nOwn
	}
	if err := rr.update(pos, typ, pr.rebuild, rr.pool); err != nil {
		return err
	}
	if pr.rebuild {
		t = spine.book(LaneCaller, PhaseJSetBuild, t)
	} else {
		t = spine.book(LaneCaller, PhaseJSetRefresh, t)
	}
	fc, pot, err := rr.sweep(pos, typ, nOwn, pr.due)
	if err != nil {
		return err
	}
	if rr.rank == 0 {
		if pr.due {
			t = spine.book(LaneCaller, PhaseSweepPotential, t)
		} else {
			t = spine.book(LaneCaller, PhaseSweep, t)
		}
		if t, err = pr.lend(LaneCaller, rr.comm, t); err != nil {
			return err
		}
		return pr.assemble(rr, s, fc, pot, t)
	}
	rr.ship = rr.ship[:0]
	for k, g := range rr.owned {
		rr.ship = append(rr.ship, float64(g), fc.X[k], fc.Y[k], fc.Z[k])
	}
	// The word rides as its bits: the payload's checksum covers them, and
	// nothing between Send and Recv does arithmetic on a payload.
	rr.ship = append(rr.ship, math.Float64frombits(uint64(pot)))
	return rr.comm.Send(0, TagForces, rr.ship)
}

// exchange is a real rank's wire step ahead of its sweep at several real
// ranks: derive or migrate ownership on a rebuild, then exchange the ghost
// shell (rebuild) or stream the ghost positions (reuse).
func (pr *ParallelRun) exchange(rr *realRankState, s *md.System) error {
	me := rr.rank
	c := rr.comm
	n := pr.n

	switch {
	case pr.initStep:
		// Derive ownership from scratch: scan all positions once. No
		// messages — every rank sees the same assignment.
		rr.owned = rr.owned[:0]
		for g := 0; g < n; g++ {
			if pr.blocks.Owner(pr.grid.CellOf(s.Pos[g])) == me {
				rr.owned = append(rr.owned, g)
			}
		}
	case pr.rebuild:
		// Migration: re-key my particles by cell; departures go straight to
		// their new owner. Every real rank pair exchanges a (possibly
		// empty) index list — a particle can cross several faces between
		// rebuilds, so arrivals are not restricted to block neighbors.
		for other := 0; other < pr.nReal; other++ {
			rr.migBuf[other] = rr.migBuf[other][:0]
		}
		keep := rr.owned[:0]
		for _, g := range rr.owned {
			owner := pr.blocks.Owner(pr.grid.CellOf(s.Pos[g]))
			if owner == me {
				keep = append(keep, g)
			} else {
				rr.migBuf[owner] = append(rr.migBuf[owner], float64(g))
			}
		}
		rr.owned = keep
		for other := 0; other < pr.nReal; other++ {
			if other == me {
				continue
			}
			if err := c.Send(other, TagMigrate, rr.migBuf[other]); err != nil {
				return err
			}
		}
		for other := 0; other < pr.nReal; other++ {
			if other == me {
				continue
			}
			arrivals, err := c.Recv(other, TagMigrate)
			if err != nil {
				return err
			}
			for _, w := range arrivals {
				g, err := wireIndex(w, n, other, me, "migrated index")
				if err != nil {
					return err
				}
				rr.owned = append(rr.owned, g)
			}
		}
		// Deterministic merge: ownership is a set keyed by global index,
		// independent of message arrival interleaving.
		slices.Sort(rr.owned)
	}

	if pr.rebuild {
		return pr.exchangeGhosts(rr, s)
	}
	return pr.streamGhosts(rr, s)
}

// exchangeGhosts runs the full rebuild-step halo exchange: stride-4 records
// (x, y, z, species) for every owned particle sitting in a cell some other
// rank needs, then rebuilds the local particle arrays (owned first, then
// ghosts grouped by ascending source rank). A ghost carries no global index:
// the receiver sweeps it only as a j-particle, and reuse steps stream its
// position in the same frozen order.
func (pr *ParallelRun) exchangeGhosts(rr *realRankState, s *md.System) error {
	me := rr.rank
	c := rr.comm

	for _, dst := range pr.ghostDst[me] {
		rr.sendIdx[dst] = rr.sendIdx[dst][:0]
	}
	for _, g := range rr.owned {
		cell := pr.grid.CellOf(s.Pos[g])
		for _, dst := range pr.ghostDst[me] {
			if pr.needGhost[dst][cell] {
				rr.sendIdx[dst] = append(rr.sendIdx[dst], g)
			}
		}
	}
	for _, dst := range pr.ghostDst[me] {
		idx := rr.sendIdx[dst]
		buf := rr.haloBuf[dst]
		if cap(buf) < haloStride*len(idx) {
			buf = make([]float64, 0, haloStride*len(idx))
		}
		buf = buf[:0]
		for _, g := range idx {
			buf = append(buf, s.Pos[g].X, s.Pos[g].Y, s.Pos[g].Z, float64(s.Type[g]))
		}
		rr.haloBuf[dst] = buf
		if err := c.Send(dst, TagHalo, buf); err != nil {
			return err
		}
	}

	rr.locPos = rr.locPos[:0]
	rr.locTyp = rr.locTyp[:0]
	for _, g := range rr.owned {
		rr.locPos = append(rr.locPos, s.Pos[g])
		rr.locTyp = append(rr.locTyp, s.Type[g])
	}
	rr.nOwn = len(rr.owned)
	for si, src := range pr.ghostSrc[me] {
		buf, err := c.Recv(src, TagHalo)
		if err != nil {
			return err
		}
		if len(buf)%haloStride != 0 {
			return wireError(src, me, "rank %d: halo payload length %d not a multiple of %d", me, len(buf), haloStride)
		}
		rr.ghostCnt[si] = len(buf) / haloStride
		for k := 0; k+haloStride <= len(buf); k += haloStride {
			typ, err := wireIndex(buf[k+3], tosifumi.NumSpecies, src, me, "ghost species")
			if err != nil {
				return err
			}
			rr.locPos = append(rr.locPos, vec.New(buf[k], buf[k+1], buf[k+2]))
			rr.locTyp = append(rr.locTyp, typ)
		}
	}
	return nil
}

// streamGhosts runs the reuse-step exchange: only ghost positions move, as
// three SoA planes packed back to back in one reused slab per destination.
// The ghost lists themselves are frozen since the last rebuild, so both
// sides already agree on counts and order.
func (pr *ParallelRun) streamGhosts(rr *realRankState, s *md.System) error {
	me := rr.rank
	c := rr.comm

	// Owned positions come straight from the integrator's arrays (the host
	// holds them, §4); ghosts must arrive over the wire.
	for k, g := range rr.owned {
		rr.locPos[k] = s.Pos[g]
	}

	for _, dst := range pr.ghostDst[me] {
		idx := rr.sendIdx[dst]
		cnt := len(idx)
		slab := rr.posBuf[dst]
		if cap(slab) < 3*cnt {
			slab = make([]float64, 3*cnt)
		}
		slab = slab[:3*cnt]
		planes := soa.Coords{X: slab[:cnt], Y: slab[cnt : 2*cnt], Z: slab[2*cnt:]}
		for k, g := range idx {
			planes.Set(k, s.Pos[g])
		}
		rr.posBuf[dst] = slab
		if err := c.Send(dst, TagGhostPos, slab); err != nil {
			return err
		}
	}
	off := rr.nOwn
	for si, src := range pr.ghostSrc[me] {
		buf, err := c.Recv(src, TagGhostPos)
		if err != nil {
			return err
		}
		cnt := rr.ghostCnt[si]
		if len(buf) != 3*cnt {
			return wireError(src, me, "rank %d: ghost position payload %d floats, want %d", me, len(buf), 3*cnt)
		}
		for k := 0; k < cnt; k++ {
			rr.locPos[off+k] = vec.New(buf[k], buf[cnt+k], buf[2*cnt+k])
		}
		off += cnt
	}
	return nil
}

// waveStep is the per-step body of one wavenumber rank: the WINE-2 library
// over this rank's particle stripe, with the group communicator reducing the
// structure factor when the group has more than one member, into planes
// that are views of the rank's payload slab. Wave rank 0 books the spine's
// wave lane and lends (1 + 1) once it has shipped, so the caller never waits
// on a slab it holds back.
func (pr *ParallelRun) waveStep(wr *waveRankState, s *md.System) error {
	defer pr.lending.Release(int(LaneWave)) // every exit, so a parked caller wakes
	var spine *PhaseSink
	if wr.rank == pr.nReal {
		spine = pr.cfg.Phases
	}
	m := wr.hi - wr.lo
	if len(wr.slab) != 1+3*m {
		wr.slab = make([]float64, 1+3*m)
		wr.fc = soa.Coords{X: wr.slab[1 : 1+m : 1+m], Y: wr.slab[1+m : 1+2*m : 1+2*m], Z: wr.slab[1+2*m:]}
	}
	if err := wr.lib.SetNN(max(m, 1)); err != nil {
		return err
	}
	_, pot, err := wr.pass(s.Pos[wr.lo:wr.hi], s.Charge[wr.lo:wr.hi])
	if err != nil {
		return err
	}
	t := spine.book(LaneWave, PhaseWave, pr.t0)
	// The planes are already in the slab; the leading word is the
	// wavenumber potential, which rank 0 reads from wave rank 0 only.
	wr.slab[0] = pot
	if err := wr.comm.Send(0, TagForces, wr.slab); err != nil {
		return err
	}
	_, err = pr.lend(LaneWave, wr.comm, t)
	return err
}

// assemble gathers the forces on s at world rank 0, which holds its own
// sweep's planes fc and potential word pot and books the caller lane from t.
// Rank 0's forces and the (index, force) records of the other real ranks
// each carry an owned particle exactly once, so they are assignments; the
// wave ranks' planes cover their stripes and add on top — the same real +
// wave reduction order at every layout, hence bit-identical sums. The real
// ranks' potential words add exactly, in any order.
func (pr *ParallelRun) assemble(rr *realRankState, s *md.System, fc soa.Coords, pot int64, t int64) error {
	c, n, spine := rr.comm, pr.n, pr.cfg.Phases
	for src := 1; src < c.Size(); src++ {
		buf, err := c.Recv(src, TagForces)
		if err != nil {
			return err
		}
		pr.bufs[src] = buf
	}
	t = spine.book(LaneCaller, PhaseJoinWait, t)

	// The caller's slice when it holds n vectors (StepInto), else a fresh
	// one; every exchange buffer is reused.
	total := pr.out
	if len(total) != n {
		total = make([]vec.V, n)
	}
	if pr.nReal == 1 {
		total = fc.AppendAoS(total)
	} else {
		clear(pr.seen)
		for k, g := range rr.owned {
			total[g], pr.seen[g] = fc.At(k), true
		}
		for src := 1; src < pr.nReal; src++ {
			buf := pr.bufs[src]
			if len(buf)%4 != 1 {
				return wireError(src, 0, "rank 0: force payload length %d not 4 per record plus a potential word", len(buf))
			}
			pot += int64(math.Float64bits(buf[len(buf)-1]))
			buf = buf[:len(buf)-1]
			for k := 0; k < len(buf); k += 4 {
				i, err := wireIndex(buf[k], n, src, 0, "force index")
				if err != nil {
					return err
				}
				// A flipped index bit can land on another valid index (bit 62
				// turns 2 into 0, bit 52 2 into 4).
				if pr.seen[i] {
					return wireError(src, 0, "rank 0: force index %d sent twice", i)
				}
				total[i], pr.seen[i] = vec.New(buf[k+1], buf[k+2], buf[k+3]), true
			}
		}
		// Every particle has one owner, so every slot got a record; a slot
		// that did not would keep the reused slice's last-step force. The
		// refusal names the rank whose block holds the particle now.
		if i := slices.Index(pr.seen, false); i >= 0 {
			return wireError(pr.blocks.Owner(pr.grid.CellOf(s.Pos[i])), 0, "rank 0: no force record for particle %d", i)
		}
	}
	for _, wr := range pr.wave {
		buf, m := pr.bufs[wr.rank], wr.hi-wr.lo
		if len(buf) != 1+3*m {
			return wireError(wr.rank, 0, "rank 0: wave force payload %d floats, want %d", len(buf), 1+3*m)
		}
		x, y, z := buf[1:1+m], buf[1+m:1+2*m], buf[1+2*m:]
		for k := range m {
			i := wr.lo + k
			total[i] = total[i].Add(vec.New(x[k], y[k], z[k]))
		}
	}
	pr.wavePot, pr.realPot = pr.bufs[pr.nReal][0], pot
	pr.out = total
	spine.book(LaneCaller, PhaseCombine, t)
	return nil
}
