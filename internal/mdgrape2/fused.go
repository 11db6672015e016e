package mdgrape2

import (
	"fmt"
	"math/bits"

	"mdm/internal/cellindex"
	"mdm/internal/fault"
	"mdm/internal/funceval"
	"mdm/internal/soa"
	"mdm/internal/vec"
)

// The real-space sweep. A Tosi–Fumi force step issues four kernel passes
// (Coulomb real-space + Born–Mayer + r⁻⁶ + r⁻⁸) over the same j-set; the
// sweep walks the cell-pair candidates once and evaluates every requested
// table on each j-block — the host-side analogue of the hardware broadcasting
// each j particle to all pipelines once per step. The board streams every
// candidate of the 27 neighbour cells; the pipelines' tables are zero beyond
// the cutoff the grid records (§3.5.4: g(x) is an arbitrary table), so the
// sweep keeps only the pairs inside it and the tables run over those.
// Bookkeeping (stats, the hardware hook) still counts one hardware
// call per pass and every streamed candidate, so the timing model and the
// injector-visible call sequence are those of the passes run back-to-back.
// ComputeForces is the one-pass case of the same body.

// ForcePass describes one table pass of a fused sweep: the function table,
// the coefficient RAM, and the optional per-i host prefactor.
type ForcePass struct {
	Table  string
	Co     *Coeffs
	ScaleI []float64 // per-i scale applied to the accumulated force; nil = 1
}

// maxFusedPasses bounds a fused sweep (a chip evaluates one table per pass
// slot; four slots carry the NaCl force field, eight leave headroom).
const maxFusedPasses = 8

// sweepBlock is how many kept pairs the sweep gathers before the tables run
// over them. The gather streams i's candidates in order and compacts the pairs
// inside the cutoff into the block across run boundaries; a full block, or the
// end of i's walk, runs every pass. Each pass's accumulator adds its pairs in
// walk order whatever the block boundaries, so the compaction moves no bit of
// a kept pair's contribution. It is a power of two: gather masks its slot
// index with sweepBlock−1, which drops the stores' bounds checks.
const sweepBlock = 64

// pairBlock is one worker's gathered j-block — the kept pairs' float32
// displacement and squared distance and their sorted j index, in walk order,
// and the neighbour runs they came in — and the per-pass scratch the tables
// run in.
type pairBlock struct {
	n              int
	dx, dy, dz, r2 [sweepBlock]float32
	j              [sweepBlock]int

	// Run r of the block starts at pair at[r] and came with i's neighbour
	// entry ent[r]; one store per reached run (open), none per candidate.
	nr  int
	at  [maxBlockRuns]uint8
	ent [maxBlockRuns]uint8

	t       [sweepBlock]int     // j's particle type
	w, x, g [sweepBlock]float32 // j's charge field, table argument, table value
}

// maxBlockRuns bounds a block's runs: i's 27 neighbour entries and the run a
// full block was cut in, a power of two so the stores need no bounds check.
const maxBlockRuns = 32

// open starts neighbour entry e's run at the block's next pair.
func (b *pairBlock) open(e int) {
	b.at[b.nr&(maxBlockRuns-1)], b.ent[b.nr&(maxBlockRuns-1)] = uint8(b.n), uint8(e)
	b.nr++
}

// PairSink is a host consumer of a sweep's kept pairs — the j-stream that
// gives the force giving the potential too, as MDGRAPE-2 returns both from
// one pass (§3.5). On a sweep it is installed for (System.SetPairSink), Start
// is called once with the sweep's chunk count before any block, then Pairs
// once per evaluated block, on the goroutine running the block's chunk: a
// sink keeps per-chunk state and merges it after the call, as the sweep
// merges its pair counters.
type PairSink interface {
	Start(chunks int)
	// Pairs receives one evaluated block of i-particle i's kept pairs: a
	// copy, valid during the call, so the sweep's own block stays on its
	// worker's stack.
	Pairs(chunk, i int, b *PairBlock)
}

// PairBlock is an evaluated block as a PairSink sees it: the first N pairs,
// in walk order, by their j-particle's sorted index, in Runs runs — run r
// holds pairs At[r] … At[r+1]−1, j ascending, and came with i's neighbour
// entry Nbrs[Ent[r]], so each pair's displacement is r⃗_i − (r⃗_j +
// Nbrs[Ent[r]].Shift).
type PairBlock struct {
	N    int
	J    [sweepBlock]int32
	Runs int
	At   [maxBlockRuns + 1]uint8
	Ent  [maxBlockRuns]uint8
	Nbrs []cellindex.Neighbor
}

// gather streams the candidates m marks among the stored particles base …
// base+63 of one neighbour run (bit t for particle base+t; cellindex.Run.Mask)
// — i's stored words (pix, piy, piz) against each j's, displaced by the run's
// image shift (sx, sy, sz), the displacement and r² formed as the pipelines
// form them — and appends those with r² below cut2 until the block is full.
// It returns the candidates not yet streamed. A mask that is one contiguous
// stretch, as every mask of an empty index is, streams as a slice; any other
// is taken bit by bit in ascending order. The compaction has no branch: every
// candidate is written to the next free slot, which advances only past a kept
// one. The call streams at most the free slots, so the slot stays below
// sweepBlock and the mask leaves it unchanged.
func (b *pairBlock) gather(p *soa.Coords32, base int, m uint64, pix, piy, piz, sx, sy, sz, cut2 float32) uint64 {
	n := b.n
	lo := bits.TrailingZeros64(m)
	if c := m >> lo; c&(c+1) == 0 {
		j := base + lo
		end := min(j+bits.Len64(c), j+sweepBlock-n)
		jx := p.X[j:end]
		jy := p.Y[j:end:end]
		jz := p.Z[j:end:end]
		for k := range jx {
			ex := pix - (jx[k] + sx)
			ey := piy - (jy[k] + sy)
			ez := piz - (jz[k] + sz)
			// Each square is rounded before it is added, as the pipeline
			// rounds it; the conversions forbid a fused multiply-add (Go spec).
			r2 := float32(ex*ex) + float32(ey*ey) + float32(ez*ez)
			s := n & (sweepBlock - 1)
			b.dx[s], b.dy[s], b.dz[s], b.r2[s], b.j[s] = ex, ey, ez, r2, j+k
			if r2 < cut2 {
				n++
			}
		}
		b.n = n
		return m &^ (1<<(end-base) - 1)
	}
	jx := p.X[base:]
	jy, jz := p.Y[base:], p.Z[base:]
	for ; m != 0 && n < sweepBlock; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		ex := pix - (jx[k] + sx)
		ey := piy - (jy[k] + sy)
		ez := piz - (jz[k] + sz)
		r2 := float32(ex*ex) + float32(ey*ey) + float32(ez*ez)
		s := n & (sweepBlock - 1)
		b.dx[s], b.dy[s], b.dz[s], b.r2[s], b.j[s] = ex, ey, ez, r2, base+k
		if r2 < cut2 {
			n++
		}
	}
	b.n = n
	return m
}

// run evaluates every pass's table over the block for i-particle i of type ti
// and adds the pair forces to the pass accumulators in block order, hands a
// copy of the block to sink (in out, chunk's; nbrs gives the runs' shifts)
// when one is installed, then empties the block: f⃗_ij = b_ij · g(a_ij r²) ·
// r⃗_ij (eq. 14) in float32, the particle-memory charge field, when loaded,
// scaling b_ij.
func (b *pairBlock) run(tbls *[maxFusedPasses]tableRef, np, ti int, js *JSet, acc *[maxFusedPasses][3]float64, sink PairSink, chunk, i int, nbrs []cellindex.Neighbor, out *PairBlock) {
	n := b.n
	t, dx, dy, dz := b.t[:n], b.dx[:n], b.dy[:n], b.dz[:n]
	for k, j := range b.j[:n] {
		t[k] = js.Types[j]
	}
	if js.Weights != nil {
		for k, j := range b.j[:n] {
			b.w[k] = float32(js.Weights[j])
		}
	}
	for p := 0; p < np; p++ {
		ta, tb := tbls[p].a32[ti], tbls[p].b32[ti]
		for k, tj := range t {
			b.x[k] = ta[tj] * b.r2[k]
		}
		tbls[p].tbl.EvalInto(b.g[:n], b.x[:n])
		ax, ay, az := acc[p][0], acc[p][1], acc[p][2]
		if js.Weights == nil {
			for k, tj := range t {
				bg := tb[tj] * b.g[k]
				ax += float64(bg * dx[k])
				ay += float64(bg * dy[k])
				az += float64(bg * dz[k])
			}
		} else {
			for k, tj := range t {
				bg := tb[tj] * b.w[k] * b.g[k]
				ax += float64(bg * dx[k])
				ay += float64(bg * dy[k])
				az += float64(bg * dz[k])
			}
		}
		acc[p] = [3]float64{ax, ay, az}
	}
	nr := min(b.nr, maxBlockRuns)
	if sink != nil {
		out.N, out.Runs, out.Nbrs = n, nr, nbrs
		for k, j := range b.j[:n] {
			out.J[k] = int32(j)
		}
		copy(out.At[:nr], b.at[:nr])
		copy(out.Ent[:nr], b.ent[:nr])
		out.At[nr] = uint8(n)
		sink.Pairs(chunk, i, out)
	}
	// The run in progress goes on at the next block's first pair.
	b.n, b.nr = 0, 1
	b.at[0], b.ent[0] = 0, b.ent[nr-1]
}

// fusedFlip is one captured bit-flip event, replayed onto the pass's
// contribution after its per-i scale, before the ordered combine.
type fusedFlip struct {
	i    int // particle index (word % (3·n) / 3)
	comp int // component 0/1/2
	bit  int // bit to flip (already masked to 0..63)
}

// ComputeForces runs the cell-index force calculation of eqs. 7/8 for the
// given i-particles against the j-set: for every i, every j in the 27
// neighbor cells of i's cell is streamed through a pipeline, and the pairs
// inside the grid's cutoff are evaluated (JSet.ForEachPair). xi and ti are
// the j-set's own leading particles (see JSet): the sweep takes their count
// from xi and their cell and coordinate word from the stored layout. scale
// multiplies the final accumulated force (the host-side prefactor, e.g.
// k_e·q_i·α³/L³ for the Coulomb real-space part when b_ij carries q_j only).
//
// The i-particles are distributed over the pipelines in contiguous blocks,
// mirroring the block distribution of MR1calcvdw_block2; the result is
// deterministic.
func (s *System) ComputeForces(table string, co *Coeffs, xi []vec.V, ti []int, scaleI []float64, js *JSet) ([]vec.V, error) {
	if scaleI != nil && len(scaleI) != len(xi) {
		return nil, fmt.Errorf("mdgrape2: %d i-positions vs %d scales", len(xi), len(scaleI))
	}
	pass := [1]ForcePass{{Table: table, Co: co, ScaleI: scaleI}}
	fc, err := s.ComputeForcesFusedInto(pass[:], xi, ti, js, soa.Coords{})
	if err != nil {
		return nil, err
	}
	return fc.AppendAoS(nil), nil
}

// ComputeForcesFusedInto evaluates up to maxFusedPasses table passes in a
// single cell-index traversal and writes the pass contributions, summed per
// particle in pass order, into structure-of-arrays planes (dst is resized and
// reused when its backing arrays are large enough), so a steady-state step
// path feeds the host combine stage without re-allocating or re-interleaving
// the output. The result is bit-identical to evaluating the passes one at a
// time and combining forces[i] = pass0[i] + pass1[i] + … in order: the
// float32 displacement is a pure function of the positions, each pass keeps
// its own float64 accumulator walked in the same j order, the per-i scale and
// any injected bit flip are applied to the pass's own contribution before the
// ordered combine, and the HardwareCall/PendingFlip sequence per
// pass is issued in pass order up front (the traversal between those calls
// never touches the injector, so the injector-visible event stream is
// unchanged). With a PairSink installed (SetPairSink), every evaluated block
// is handed to it too.
func (s *System) ComputeForcesFusedInto(passes []ForcePass, xi []vec.V, ti []int, js *JSet, dst soa.Coords) (soa.Coords, error) {
	np := len(passes)
	if np == 0 || np > maxFusedPasses {
		return soa.Coords{}, fmt.Errorf("mdgrape2: %d fused passes outside [1, %d]", np, maxFusedPasses)
	}
	if err := s.checkISide(xi, ti, js); err != nil {
		return soa.Coords{}, err
	}
	job := &s.sweep
	for p := range passes {
		tbl, err := s.Table(passes[p].Table)
		if err != nil {
			return soa.Coords{}, err
		}
		job.tbls[p].tbl = tbl
		co := passes[p].Co
		if passes[p].ScaleI != nil && len(passes[p].ScaleI) != len(xi) {
			return soa.Coords{}, fmt.Errorf("mdgrape2: %s: %d i-positions vs %d scales",
				passes[p].Table, len(xi), len(passes[p].ScaleI))
		}
		nt := len(co.A)
		for _, t := range ti {
			if t < 0 || t >= nt {
				return soa.Coords{}, fmt.Errorf("mdgrape2: i-type %d outside coefficient RAM (%d types)", t, nt)
			}
		}
		for _, t := range js.Types {
			if t < 0 || t >= nt {
				return soa.Coords{}, fmt.Errorf("mdgrape2: j-type %d outside coefficient RAM (%d types)", t, nt)
			}
		}
		// The coefficient RAM stores singles; the float32 image is cached on
		// the Coeffs and rebuilt only after a Set.
		job.tbls[p].a32, job.tbls[p].b32 = co.quant32()
	}

	// Per-pass hardware bookkeeping, in pass order: the hook's call (a
	// watchdog beat, an injected fault), armed bit-flip capture — the
	// injector-visible sequence of np back-to-back hardware calls. A
	// scheduled board/transient error aborts the sweep; an armed flip
	// corrupts one force component of that pass after the pipeline loop,
	// where a flipped particle-memory or accumulator bit would surface.
	job.hasFlip = [maxFusedPasses]bool{}
	for p := range passes {
		if s.hook != nil {
			if err := s.hook.HardwareCall(fault.MDG2); err != nil {
				if np > 1 { // a fused sweep names the pass that failed
					err = fmt.Errorf("%s pass: %w", passes[p].Table, err)
				}
				return soa.Coords{}, err
			}
			if len(xi) > 0 {
				if word, bit, ok := s.hook.PendingFlip(fault.MDG2); ok {
					i := word % (3 * len(xi))
					if i < 0 {
						i += 3 * len(xi)
					}
					job.flips[p] = fusedFlip{i: i / 3, comp: i % 3, bit: bit & 63}
					job.hasFlip[p] = true
				}
			}
		}
	}

	dst = dst.Resize(len(xi))
	// The hardware distributes the i-particles over its pipelines in blocks
	// (the time ComputeTime models); on the host they are cut into contiguous
	// chunks that the pool's workers claim, a chunk being only a scheduling
	// unit. Each i-particle's float64 accumulators stay in one chunk, so
	// accumulation order — and the result — is bit-identical at any pool
	// width. Pair counters are per chunk, merged in chunk order below. A
	// chunk returns no error, so the Run's is a panic — in the sweep or in
	// the sink — which fails the call rather than leave the chunk's forces
	// unwritten.
	chunkPairs := s.pairScratch(s.pool.NumShards(len(xi)))
	if s.sink != nil {
		s.sink.Start(len(chunkPairs))
		s.sinkScratch(len(chunkPairs))
	}
	job.passes, job.ti, job.js, job.f = passes, ti, js, dst
	err := s.pool.Run(len(xi), s.sweepChunk)
	job.passes, job.ti, job.js, job.f = nil, nil, nil, soa.Coords{}
	if err != nil {
		return soa.Coords{}, fmt.Errorf("mdgrape2: fused sweep: %w", err)
	}
	var pairs int64
	for _, p := range chunkPairs {
		pairs += p
	}
	// Stats count one hardware pass per table.
	s.stats.PairsEvaluated += pairs * int64(np)
	s.stats.IParticles += int64(len(xi) * np)
	s.stats.JLoads += int64(js.Sorted.Len() * s.cfg.Boards() * np)
	s.stats.Calls += int64(np)
	return dst, nil
}

// sweepJob is a fused sweep's per-call state. Its chunks read it through the
// System: Run is handed sweepChunk, a method value bound once in NewSystem,
// so a sweep allocates no closure.
type sweepJob struct {
	passes  []ForcePass
	ti      []int
	js      *JSet
	f       soa.Coords // the force planes the chunks write
	tbls    [maxFusedPasses]tableRef
	flips   [maxFusedPasses]fusedFlip
	hasFlip [maxFusedPasses]bool
}

// runSweepChunk is one chunk of ComputeForcesFusedInto's sweep: i-particles
// lo … hi−1. It reads its counters and sink blocks through s too: the
// chunk's slots of the session's scratch.
func (s *System) runSweepChunk(chunk, lo, hi int) error {
	job := &s.sweep
	js, ti, passes, np := job.js, job.ti, job.passes, len(job.passes)
	flips, hasFlip := &job.flips, &job.hasFlip
	fX, fY, fZ := job.f.X, job.f.Y, job.f.Z
	cut2, p32 := cutoffWord(js.Sorted.Grid.Cutoff), &js.Sorted.P32
	var pairs int64
	var acc [maxFusedPasses][3]float64 // double-precision accumulators (§3.5.4)
	var blk pairBlock
	sink := s.sink
	var out *PairBlock
	if sink != nil {
		out = &s.sinkBlocks[chunk]
	}
	for i := lo; i < hi; i++ {
		// Cell and single-precision coordinate word as stored at the last
		// Build / Refresh — the word this particle's j-side visits read too.
		nbrs, reach, box, pix, piy, piz := js.iSide(i)
		acc = [maxFusedPasses][3]float64{}
		blk.nr = 0
		for e, nb := range nbrs {
			// Stream the cell's j-run from the float32 planes — the banked
			// particle-memory read of §3.3. The board pays for every run;
			// the host computes only the candidates in i's r_cut box of
			// those that can reach the cutoff.
			jstart, jend := js.Sorted.CellRange(nb.Cell)
			pairs += int64(jend - jstart)
			if reach&(1<<e) == 0 {
				continue
			}
			sx, sy, sz := float32(nb.Shift.X), float32(nb.Shift.Y), float32(nb.Shift.Z)
			run := js.Sorted.Run(&box, e, nb.Cell)
			blk.open(e)
			for w, base := 0, jstart; base < jend; w, base = w+1, base+64 {
				for m := run.Mask(w, min(jend-base, 64)); m != 0; {
					m = blk.gather(p32, base, m, pix, piy, piz, sx, sy, sz, cut2)
					if blk.n == sweepBlock {
						blk.run(&job.tbls, np, ti[i], js, &acc, sink, chunk, i, nbrs, out)
					}
				}
			}
		}
		if blk.n > 0 {
			blk.run(&job.tbls, np, ti[i], js, &acc, sink, chunk, i, nbrs, out)
		}
		// Scale, flip and combine in pass order: forces[i] = pass0 + pass1 + … .
		var f vec.V
		for p := 0; p < np; p++ {
			fp := vec.New(acc[p][0], acc[p][1], acc[p][2])
			if sc := passes[p].ScaleI; sc != nil {
				fp = fp.Scale(sc[i])
			}
			if hasFlip[p] && flips[p].i == i {
				switch flips[p].comp {
				case 0:
					fp.X = fault.FlipFloat64(fp.X, flips[p].bit)
				case 1:
					fp.Y = fault.FlipFloat64(fp.Y, flips[p].bit)
				default:
					fp.Z = fault.FlipFloat64(fp.Z, flips[p].bit)
				}
			}
			if p == 0 {
				f = fp
			} else {
				f = f.Add(fp)
			}
		}
		fX[i], fY[i], fZ[i] = f.X, f.Y, f.Z
	}
	s.chunkPairs[chunk] = pairs
	return nil
}

// tableRef is the resolved per-pass state of a fused sweep.
type tableRef struct {
	tbl      *funceval.Table
	a32, b32 [][]float32
}

// CalcVDWFusedInto computes several real-space kernel passes in one cell-index
// sweep, writing the summed forces into structure-of-arrays planes (see
// System.ComputeForcesFusedInto) — the zero-alloc call the machine's step path
// feeds its combine stage from. The session must be initialized.
//
//mdm:stepflow -- hot-path root: the MDGRAPE-2 session's fused per-step sweep, SoA output (Table 3 loop, four tables at once), and the PairSink it feeds on a due call (the host potential)
func (m *MR1) CalcVDWFusedInto(passes []ForcePass, xi []vec.V, ti []int, js *JSet, dst soa.Coords) (soa.Coords, error) {
	if m.sys == nil {
		return soa.Coords{}, fmt.Errorf("mdgrape2: MR1calcvdw_block2 before MR1init")
	}
	return m.sys.ComputeForcesFusedInto(passes, xi, ti, js, dst)
}
