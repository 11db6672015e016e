// Package parallelize is the shared worker-pool layer that maps the MDM's
// chip-level concurrency onto host OS threads.
//
// The real machine never ran a loop serially: WINE-2 striped the wavenumber
// sum over 2,240 chips and MDGRAPE-2 striped the i-particles over 256
// pipelines (§3.4, §3.5). The simulators reproduce those datapaths
// bit-exactly but, before this layer, executed every pipeline on one OS
// thread. A Pool re-introduces the hardware's parallel axis on the host: an
// index range is cut into contiguous chunks, at most Workers goroutines
// claim chunks until none are left, and the caller merges per-chunk results
// in chunk order. A chunk is only a host scheduling unit; the hardware's
// block distribution is what perf.MachineModel times, not this cut.
//
// Determinism contract. The cut is a pure function of (n, workers,
// lendable): at width w ≥ 2, chunk c of k = min(n, 4w) covers
// [c·n/k, (c+1)·n/k), and a Run on a lendable pool (Lending) that keeps at
// least minLendChunk indices a chunk is cut as at width w + 1. Which
// goroutine runs a chunk, and when, is left to the scheduler; it cannot
// show in the output, because a chunk writes only to the output slots of
// its own range, so any per-index output (forces[i], sn[w]) is
// bit-identical to the serial loop. Reductions (scalar sums) must be kept
// per chunk and merged by the caller in ascending chunk order; the
// fixed-point int64 accumulators of WINE-2 are associative, so even their
// reduced sums stay bit-identical. Pool(1) — and a nil *Pool — runs the
// body inline on the calling goroutine: exactly the pre-pool serial code
// path, with no goroutine, channel, or defer overhead.
//
// Error contract. Every chunk runs, and the error returned by Run is the
// error of the lowest-numbered failing chunk, independent of goroutine
// timing, so fault injection and recovery stay deterministic under
// concurrency. A panicking chunk is converted to a *PanicError rather than
// crashing the process sideways on a worker goroutine; its worker goes on
// claiming.
package parallelize

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// chunksPerWorker is how many chunks Run cuts per worker. With one chunk
// per worker, a worker the OS deschedules holds back a whole 1/w of the
// range while the other cores idle; with four, the running workers claim
// everything else and the straggler holds back at most 1/(4w). On the two-core
// pipeline workload eight read no faster than four, and would double the
// per-chunk scratch callers keep (the cell sort's count tables).
const chunksPerWorker = 4

// minLendChunk is the fewest indices a chunk of a lendable Run holds: a
// lendable pool of width w cuts a Run of n ≥ minLendChunk·4(w+1) indices
// into 4(w+1) chunks and publishes it, and runs a shorter one as a plain
// pool would, publishing nothing. Publishing costs the owner ≈ 0.3 µs a Run
// (BenchmarkRunLent at n = 256, 2 vCPUs: 0.20 µs inline, 0.46 published,
// 0.52 with a lender parked), and a lender's claims pay only on chunks of
// real work. At 32 the 64-ion engine's Runs (64 particles, 182 waves) all
// stay inline, and a 512-ion engine's are cut in 8 at width 1: from ≈ 1 µs
// of quantizing a chunk to ≈ 0.5 ms of DFT at α 14.
const minLendChunk = 32

// Pool is a bounded worker pool: it owns no goroutines between calls. A
// plain pool (New) is stateless, so one Pool may be shared by concurrent
// callers (e.g. the per-rank sessions of the §4 parallel layout) without
// locking. A lendable pool (Lending.Pool) publishes its Runs to its side of
// a Lending, one at a time: only its side's goroutine runs it.
type Pool struct {
	workers int
	lend    *Lending // nil for a plain pool
	side    int      // the pool's side of lend
}

// New returns a pool of the given width. workers <= 0 selects
// runtime.GOMAXPROCS(0), the number of OS threads the Go scheduler will
// actually run; workers == 1 makes every Run execute inline (the serial
// code path).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool width. A nil pool is serial: width 1.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// PanicError wraps a panic recovered while running a chunk.
type PanicError struct {
	Shard int // the chunk that panicked
	Value any
}

// Error implements error.
//
//mdm:hotallocok -- panic rendering: reached only after a worker panicked, never on the clean step path
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallelize: panic in shard %d: %v", e.Shard, e.Value)
}

// Shards cuts the index range [0, n) into the NumShards(n, workers)
// contiguous chunks a plain pool's Run hands out: chunk c of k covers
// [c·n/k, (c+1)·n/k). Every index is covered exactly once, no chunk is
// empty, and the cut depends only on (n, workers) — the deterministic
// partition the bit-exactness contract rests on.
func Shards(n, workers int) [][2]int {
	return appendShards(nil, n, NumShards(n, workers))
}

// appendShards appends the k chunks of [0, n) to dst — the in-place form Run
// uses to keep dispatch records allocation-free once grown.
func appendShards(dst [][2]int, n, k int) [][2]int {
	for c := 0; c < k; c++ {
		//mdm:hotallocok -- appends into dst[:0] of a pooled dispatch record; the backing array grows once per record, then every Run reuses it
		dst = append(dst, [2]int{c * n / k, (c + 1) * n / k})
	}
	return dst
}

// NumShards returns len(Shards(n, workers)) without building the slice: 0
// for an empty range, 1 at width 1, and min(n, 4·workers) above it. Every
// chunk is non-empty because the count never exceeds n.
func NumShards(n, workers int) int {
	if n <= 0 {
		return 0
	}
	if workers <= 1 {
		return 1
	}
	return min(n, chunksPerWorker*workers)
}

// NumShards returns how many chunks p.Run cuts [0, n) into: NumShards(n,
// Workers()) on a plain pool, and as at width Workers()+1 on a lendable one
// when every chunk keeps at least minLendChunk indices. Callers sizing
// per-chunk accumulators on a hot path use this to stay allocation-free.
func (p *Pool) NumShards(n int) int {
	k, _ := p.cut(n)
	return k
}

// cut is the chunk count of a Run over n indices and whether it is lent.
func (p *Pool) cut(n int) (k int, lendable bool) {
	w := p.Workers()
	if p != nil && p.lend != nil {
		if k := NumShards(n, w+1); n >= minLendChunk*k {
			return k, true
		}
	}
	return NumShards(n, w), false
}

// dispatch is the reusable scratch of one multi-chunk Run: the chunk table,
// the per-chunk error slots, the claim cursor, the join WaitGroup, and the
// pre-built spawn closure every worker runs. Records live in a process-wide
// sync.Pool, so a steady-state Run allocates nothing regardless of width —
// the per-width allocation growth of allocating the chunk list, error slice
// and one hidden capture struct per `go fn(args)` statement on every
// dispatch is what the pooling removes (the BENCH_2 machineForces
// 11 → 144 allocs/op climb across widths 1 → 8).
type dispatch struct {
	fn     func(chunk, lo, hi int) error
	chunks [][2]int
	errs   []error
	next   atomic.Int64
	wg     sync.WaitGroup
	// work is d.worker, bound once when the record is built: `go d.work()`
	// passes an existing zero-argument funcval to the scheduler, the one
	// goroutine-spawn shape that does not allocate a capture struct.
	work func()
}

var dispatchPool = sync.Pool{New: func() any {
	d := new(dispatch)
	d.work = d.worker
	return d
}}

// worker is one worker: it claims chunks, then leaves the join.
func (d *dispatch) worker() {
	defer d.wg.Done()
	d.claim()
}

// claim takes the next unclaimed chunk from the cursor until none are left.
func (d *dispatch) claim() {
	for {
		c := int(d.next.Add(1) - 1)
		if c >= len(d.chunks) {
			return
		}
		d.runChunk(c)
	}
}

// unclaimed reports whether a chunk is left for the cursor to hand out.
func (d *dispatch) unclaimed() bool { return int(d.next.Load()) < len(d.chunks) }

// runChunk executes one chunk, keeping the panic and per-chunk error
// contracts of Run.
func (d *dispatch) runChunk(c int) {
	defer func() {
		if v := recover(); v != nil {
			d.errs[c] = &PanicError{Shard: c, Value: v}
		}
	}()
	r := d.chunks[c]
	d.errs[c] = d.fn(c, r[0], r[1])
}

// Run executes fn over the index range [0, n), cut into p.NumShards(n)
// contiguous chunks claimed in ascending order: by min(Workers(), chunks)
// goroutines on a plain pool, and on a lendable one by the caller, the
// min(Workers(), chunks) - 1 goroutines beside it and the other side's
// goroutine when it lends. fn receives its chunk number and half-open range
// [lo, hi); it must write only to per-index state of its own range (or to
// per-chunk state merged by the caller afterwards). With one chunk — a nil
// or width-1 plain pool, or n <= 1 — fn runs inline on the calling
// goroutine.
//
// Every chunk runs. The returned error is the lowest-numbered failing
// chunk's error; a chunk panic surfaces as a *PanicError.
func (p *Pool) Run(n int, fn func(chunk, lo, hi int) error) error {
	k, lendable := p.cut(n)
	switch k {
	case 0:
		return nil
	case 1:
		// Single-chunk fast path without materializing the chunk list: the
		// zero-alloc step path runs through here at width 1.
		return runInline(fn, 0, n)
	}
	d := dispatchPool.Get().(*dispatch)
	d.fn = fn
	d.chunks = appendShards(d.chunks[:0], n, k)
	if cap(d.errs) < k {
		d.errs = make([]error, k)
	}
	d.errs = d.errs[:k]
	for c := range d.errs {
		d.errs[c] = nil
	}
	d.next.Store(0)
	g := min(p.Workers(), k)
	if lendable {
		p.lend.run(p.side, d, g-1)
	} else {
		d.wg.Add(g)
		for range g {
			go d.work()
		}
		d.wg.Wait()
	}
	var err error
	for _, e := range d.errs {
		if e != nil {
			err = e
			break
		}
	}
	d.fn = nil // do not retain the caller's closure across pool reuse
	dispatchPool.Put(d)
	return err
}

// runInline is the single-chunk fast path: no goroutine, no channel — the
// pre-pool serial code path, with only the panic contract kept uniform.
func runInline(fn func(chunk, lo, hi int) error, lo, hi int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Shard: 0, Value: v}
		}
	}()
	return fn(0, lo, hi)
}

// ErrCanceled is Lend's error when its cancel channel closed before the
// other side released.
var ErrCanceled = errors.New("parallelize: lend canceled")

// Lending is where two goroutines, sides 0 and 1, each running Runs on a
// lendable pool of its own (Lending.Pool), lend themselves to each other: a
// side that has finished its share of a call calls Lend, and until the other
// side releases (Lend or Release) it claims chunks of the other side's Runs
// from the same cursor as their owner. A chunk runs exactly as it would on
// the owner, so lending moves no bit.
//
// Admission. A Run is published while its owner claims, and unpublished,
// under the Lending's lock, before the owner joins its workers; a lender
// joins a Run under that lock only while it is published with a chunk
// unclaimed. So a lender never reaches a Run that has returned, whose
// dispatch record a later Run may already be reusing.
//
// A parked lender blocks on a channel: it never spins, so a single OS
// thread loses nothing. It wakes on a newly published Run, on the other
// side's release and on its cancel channel. Between calls, with neither side
// inside, Reset readies the Lending for the next.
type Lending struct {
	clock func() int64

	mu       sync.Mutex
	runs     [2]*dispatch // each side's published Run, nil between Runs
	released [2]bool      // the side is done with its Runs for this call
	parked   [2]bool      // the side waits in Lend
	until    int64        // clock's reading at the release that ended a lend
	wake     [2]chan struct{}
}

// NewLending returns a Lending whose Lend reports the other side's release
// as a reading of clock (nil: 0). The releasing side reads clock under the
// Lending's lock, so it must not block.
func NewLending(clock func() int64) *Lending {
	return &Lending{clock: clock, wake: [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}}
}

// Pool returns side's lendable pool of the given width (as New).
func (l *Lending) Pool(side, workers int) *Pool {
	p := New(workers)
	p.lend, p.side = l, side
	return p
}

// run is a lendable Run's dispatch: helpers goroutines and the caller claim,
// the Run published for the other side while the caller does. The caller
// claims its first chunk before it starts a helper or publishes the Run, so
// chunk 0 runs on the Run's owner at every width and a lender only joins a
// Run under way (TestLendOwnerRunsChunkZero).
func (l *Lending) run(side int, d *dispatch, helpers int) {
	first := int(d.next.Add(1) - 1) // 0: no other goroutine reaches the cursor yet
	d.wg.Add(helpers)
	for range helpers {
		go d.work()
	}
	l.mu.Lock()
	l.runs[side] = d
	if l.parked[1-side] {
		l.poke(1 - side)
	}
	l.mu.Unlock()
	d.runChunk(first)
	d.claim()
	l.mu.Lock()
	l.runs[side] = nil
	l.mu.Unlock()
	d.wg.Wait() // the helpers and every admitted lender
}

// Lend releases side, then, until the other side releases too, claims the
// chunks of the other side's published Runs and parks between them. It
// reports lent when it had to wait, with until the clock's reading at the
// other side's release; a side arriving after the other has released
// returns at once. If cancel closes first it returns ErrCanceled.
func (l *Lending) Lend(side int, cancel <-chan struct{}) (until int64, lent bool, err error) {
	other := 1 - side
	l.mu.Lock()
	l.release(side)
	if l.released[other] {
		l.mu.Unlock()
		return 0, false, nil
	}
	l.parked[side] = true
	for !l.released[other] {
		if d := l.runs[other]; d != nil && d.unclaimed() {
			d.wg.Add(1)
			l.mu.Unlock()
			d.worker()
			l.mu.Lock()
			continue
		}
		l.mu.Unlock()
		select {
		case <-l.wake[side]:
		case <-cancel:
			l.mu.Lock()
			if !l.released[other] {
				l.parked[side] = false
				l.mu.Unlock()
				return 0, false, ErrCanceled
			}
			continue
		}
		l.mu.Lock()
	}
	l.parked[side] = false
	until = l.until
	l.mu.Unlock()
	return until, true, nil
}

// Release marks side done with its Runs for this call without lending,
// waking the other side if it is parked: the exit of a side that fails. A
// nil Lending, or a side already released, is a no-op.
func (l *Lending) Release(side int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.release(side)
	l.mu.Unlock()
}

// release is Release with l.mu held.
func (l *Lending) release(side int) {
	if l.released[side] {
		return
	}
	l.released[side] = true
	if l.parked[1-side] {
		if l.clock != nil {
			l.until = l.clock()
		}
		l.poke(1 - side)
	}
}

// poke leaves a token in side's wake channel, unless one is pending. A stale
// token costs a parked side one spurious look, never a lost wake-up.
func (l *Lending) poke(side int) {
	select {
	case l.wake[side] <- struct{}{}:
	default:
	}
}

// Parked reports whether side waits in Lend.
func (l *Lending) Parked(side int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.parked[side]
}

// Reset readies the Lending for the next call. Call it only while neither
// side is inside Run or Lend. A nil Lending is a no-op.
func (l *Lending) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.runs, l.released, l.parked = [2]*dispatch{}, [2]bool{}, [2]bool{}
	for _, w := range l.wake {
		select {
		case <-w:
		default:
		}
	}
	l.mu.Unlock()
}
