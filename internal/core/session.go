package core

import (
	"fmt"
	"math"
	"slices"

	"mdm/internal/domain"
	"mdm/internal/fault"
	"mdm/internal/md"
	"mdm/internal/mdgrape2"
	"mdm/internal/mpi"
	"mdm/internal/soa"
	"mdm/internal/tosifumi"
	"mdm/internal/vec"
)

// ParallelRun is a persistent multi-step rank session for the §4 process
// layout: the MPI world, the spatial decomposition, every rank's MDGRAPE-2 /
// WINE-2 session, j-set layout, and exchange buffers live across an
// integrator run instead of being rebuilt per force call.
//
// Ownership is spatial and persistent. The global cell grid (side r_cut +
// skin, exactly the serial Machine's discretization) is split into
// contiguous cell blocks, one per real-space rank (domain.Blocks); a rank
// owns the particles whose cell it owns. Between layout rebuilds ownership
// is frozen, like every rank's sorted layout (cellindex.Sorted): reuse steps
// stream only ghost *positions* (tag TagGhostPos, slab-allocated SoA planes,
// zero steady-state allocations) — as the integrator wrapped them; the
// receiving layout's Refresh keeps each on the image it was sorted on.
// On a rebuild step particles that crossed a domain face migrate to their
// new owner (tag TagMigrate, global indices only), and the full ghost shell
// — position, species, global index per particle — is re-exchanged (tag
// TagHalo). The rebuild schedule is the serial machine's skinClock, read on
// the driver so every rank agrees.
//
// Determinism: because every cell is filled by exactly one rank and owned
// particle lists are kept ascending by global index, each rank's local
// cell-sorted layout has the same within-cell particle order as the serial
// machine's. The per-particle real-space force is therefore bit-identical to
// the serial machine at any rank count, and with a single wavenumber rank
// the wavenumber path is the serial one too, making whole trajectories
// bit-identical to the serial goldens. With several wavenumber ranks the
// structure-factor reduction reorders float64 sums; that path is pinned by
// an energy-drift parity gate instead (see session tests and DESIGN.md §15).
type ParallelRun struct {
	engineBase   // the rebuild schedule (clock) is the serial Machine's, read on the driver
	world        *mpi.World
	nReal, nWave int
	blocks       *domain.Blocks

	// needGhost[r][c] reports whether real rank r needs cell c as a ghost.
	// ghostSrc[r] / ghostDst[r]: ranks r receives ghosts from / sends ghosts
	// to, ascending. All three are static block-geometry facts.
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

	wavePot   float64    // written by rank 0 during Run, read by the driver after
	out       []vec.V    // written by rank 0 during Run
	seen      []uint8    // rank 0's scratch: bit 1 (2) marks a particle a real (wave) record carried this step
	potLayout jsetLayout // the serial layout the host potential walks

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

	// Sender-side scratch, indexed by destination rank. sendIdx is the
	// per-destination ghost list frozen at the last rebuild; haloBuf packs
	// stride-4 rebuild records, posBuf packs the 3 SoA position planes of a
	// reuse step back to back in one slab.
	sendIdx [][]int
	haloBuf [][]float64
	posBuf  [][]float64
	migBuf  [][]float64

	ghostCnt []int // ghosts received per source rank at the last rebuild

	ship []float64
}

// waveRankState is one wavenumber rank: the engine body's wave rank plus its
// stripe of the particles.
type waveRankState struct {
	waveRank
	rank   int // world rank
	comm   *mpi.Comm
	lo, hi int // global particle stripe
	ship   []float64
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
		potLayout:  jsetLayout{jsb: mdgrape2.NewJSetBuilder(grid, nil)},
	}
	pr.rankStep = pr.runRank

	// Static ghost geometry: which cells each rank needs, hence which rank
	// pairs exchange ghosts. Both sides derive the same lists, so the
	// message pattern is deterministic and deadlock-free.
	nc := grid.NumCells()
	pr.needGhost = make([][]bool, nReal)
	pr.ghostSrc = make([][]int, nReal)
	pr.ghostDst = make([][]int, nReal)
	srcSet := make([]bool, nReal)
	for r := 0; r < nReal; r++ {
		pr.needGhost[r] = make([]bool, nc)
		for i := range srcSet {
			srcSet[i] = false
		}
		for _, c := range blocks.GhostCells(r) {
			pr.needGhost[r][c] = true
			srcSet[blocks.Owner(c)] = true
		}
		// Ascending rank iteration keeps both lists sorted, so every rank
		// derives the same deterministic message order.
		pr.ghostSrc[r] = make([]int, 0, nReal)
		for src := 0; src < nReal; src++ {
			if srcSet[src] {
				pr.ghostSrc[r] = append(pr.ghostSrc[r], src)
			}
		}
	}
	for src := 0; src < nReal; src++ {
		pr.ghostDst[src] = make([]int, 0, nReal)
		for r := 0; r < nReal; r++ {
			if slices.Contains(pr.ghostSrc[r], src) {
				pr.ghostDst[src] = append(pr.ghostDst[src], r)
			}
		}
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
		rk, err := pr.newRealRank(nReal)
		if err != nil {
			free()
			return nil, err
		}
		pr.real = append(pr.real, &realRankState{
			realRank: rk,
			rank:     r,
			comm:     comm,
			sendIdx:  make([][]int, nReal),
			haloBuf:  make([][]float64, nReal),
			posBuf:   make([][]float64, nReal),
			migBuf:   make([][]float64, nReal),
			ghostCnt: make([]int, len(pr.ghostSrc[r])),
		})
		pr.realRanks = append(pr.realRanks, &pr.real[r].realRank)
	}
	for w := 0; w < nWave; w++ {
		rank := nReal + w
		comm, err := world.Comm(rank)
		if err != nil {
			free()
			return nil, err
		}
		wk, err := pr.newWaveRank(nWave)
		if err != nil {
			free()
			return nil, err
		}
		members := make([]int, nWave)
		for i := range members {
			members[i] = nReal + i
		}
		wk.lib.SetMPICommunity(&groupComm{c: comm, members: members, me: w})
		pr.wave = append(pr.wave, &waveRankState{waveRank: wk, rank: rank, comm: comm})
		pr.waveRanks = append(pr.waveRanks, &pr.wave[w].waveRank)
	}
	return pr, nil
}

// Forces implements md.ForceField on the persistent session.
func (pr *ParallelRun) Forces(s *md.System) ([]vec.V, float64, error) {
	res, err := pr.Step(s)
	if err != nil {
		return nil, 0, err
	}
	return res.Forces, res.Potential, nil
}

// Step runs one decomposed force evaluation and returns the assembled
// result. The returned value aliases session-owned bookkeeping (it is
// overwritten by the next Step); the Forces slice itself is fresh each call,
// per the md.ForceField contract.
//
//mdm:stepflow -- hot-path root: the decomposed per-step force evaluation; everything it reaches must stay deterministic and allocation-free
func (pr *ParallelRun) Step(s *md.System) (*ParallelResult, error) {
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
		pr.seen = make([]uint8, pr.n)
	}

	// The rebuild decision is the serial Machine's skin clock, read once on
	// the driver so all ranks agree on the step's protocol, and booked before
	// any rank runs, like the Machine's.
	pr.rebuild, pr.initStep = pr.clock.due(s.Pos)
	pr.clock.advance(s.Pos, pr.rebuild)

	before := pr.world.Stats()
	pr.sys = s
	runErr := pr.world.Run(pr.rankStep)
	pr.sys = nil
	if runErr != nil {
		// A failed rebuild step may have half-applied a migration: the next
		// attempt re-derives the decomposition from scratch, which at the
		// same positions gives the same owned sets and layouts. A failed
		// reuse step changed no ownership or ghost list.
		if pr.rebuild {
			pr.clock.invalidate()
		}
		return nil, runErr
	}

	// Potential bookkeeping on the driver, every PotentialEvery steps like
	// the serial machine: the real-space walk reads the serial layout of the
	// last rebuild (sorted at the skin reference positions, refreshed to the
	// current ones), so the pair set — and the energy — match the serial host
	// potential bit for bit.
	pot, err := pr.pot.eval(&pr.potLayout, &pr.clock, pr.wavePot, s)
	if err != nil {
		return nil, err
	}

	after := pr.world.Stats()
	pr.res.Forces = pr.out
	pr.res.Potential = pot
	pr.res.Traffic = mpi.Stats{
		Messages: after.Messages - before.Messages,
		Bytes:    after.Bytes - before.Bytes,
	}
	pr.out = nil
	return &pr.res, nil
}

// runRank is one rank's share of Step, bound once in NewParallelRun (as
// rankStep) so a step hands the world no fresh closure.
//
//mdm:stepflow -- hot-path root: every rank's share of ParallelRun.Step, run through the rankStep method value; annotated explicitly because that wiring is an assignment the callgraph cannot see
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
// owned block, ship (index, force) records to rank 0.
func (pr *ParallelRun) realStep(rr *realRankState, s *md.System) error {
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
		if err := pr.exchangeGhosts(rr, s); err != nil {
			return err
		}
	} else if err := pr.streamGhosts(rr, s); err != nil {
		return err
	}
	// The serial machine's layout update and sweep, over the owned block of
	// owned + ghosts.
	if err := rr.update(rr.locPos, rr.locTyp, pr.rebuild, rr.pool); err != nil {
		return err
	}
	fc, err := rr.sweep(rr.locPos, rr.locTyp, rr.nOwn)
	if err != nil {
		return err
	}

	// Ship (globalIndex, force) records to rank 0.
	rr.ship = rr.ship[:0]
	for k, g := range rr.owned {
		rr.ship = append(rr.ship, float64(g), fc.X[k], fc.Y[k], fc.Z[k])
	}
	if err := c.Send(0, TagForces, rr.ship); err != nil {
		return err
	}
	if me == 0 {
		return pr.assemble(rr, s)
	}
	return nil
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
// structure factor when the group has more than one member.
func (pr *ParallelRun) waveStep(wr *waveRankState, s *md.System) error {
	w := wr.rank - pr.nReal
	if pr.initStep {
		wr.lo = w * pr.n / pr.nWave
		wr.hi = (w + 1) * pr.n / pr.nWave
	}
	if err := wr.lib.SetNN(max(wr.hi-wr.lo, 1)); err != nil {
		return err
	}
	fc, pot, err := wr.pass(s.Pos[wr.lo:wr.hi], s.Charge[wr.lo:wr.hi])
	if err != nil {
		return err
	}
	wr.ship = wr.ship[:0]
	// Leading slot: the wavenumber potential (only wave rank 0 reports it,
	// to avoid double counting after the group reduction).
	if w == 0 {
		wr.ship = append(wr.ship, pot)
	} else {
		wr.ship = append(wr.ship, math.NaN())
	}
	for k := wr.lo; k < wr.hi; k++ {
		wr.ship = append(wr.ship, float64(k), fc.X[k-wr.lo], fc.Y[k-wr.lo], fc.Z[k-wr.lo])
	}
	return wr.comm.Send(0, TagForces, wr.ship)
}

// assemble gathers force contributions at world rank 0. Real-rank payloads
// (length ≡ 0 mod 4) carry each owned particle exactly once, so they are
// assignments; wave-rank payloads (length ≡ 1 mod 4, leading potential
// slot) add on top — the same real + wave reduction order as the serial
// combine, hence bit-identical sums.
func (pr *ParallelRun) assemble(rr *realRankState, s *md.System) error {
	c := rr.comm
	n := pr.n
	// The one fresh output slice per step the md.ForceField contract
	// requires; every exchange buffer is reused.
	total := make([]vec.V, n)
	clear(pr.seen)
	for src := 0; src < c.Size(); src++ {
		buf, err := c.Recv(src, TagForces)
		if err != nil {
			return err
		}
		k, kind := 0, uint8(1)
		wavePayload := len(buf)%4 == 1
		if wavePayload {
			if !math.IsNaN(buf[0]) {
				pr.wavePot = buf[0]
			}
			k, kind = 1, 2
		} else if len(buf)%4 != 0 {
			return wireError(src, 0, "rank 0: force payload length %d not 4k or 4k+1", len(buf))
		}
		for ; k+4 <= len(buf); k += 4 {
			i, err := wireIndex(buf[k], n, src, 0, "force index")
			if err != nil {
				return err
			}
			// Each kind carries a particle once: a flipped index bit can land
			// on another valid index (bit 62 turns 2 into 0, bit 52 2 into 4).
			if pr.seen[i]&kind != 0 {
				return wireError(src, 0, "rank 0: force index %d sent twice", i)
			}
			pr.seen[i] |= kind
			f := vec.New(buf[k+1], buf[k+2], buf[k+3])
			if wavePayload {
				total[i] = total[i].Add(f)
			} else {
				total[i] = f
			}
		}
	}
	pr.out = total
	return nil
}
