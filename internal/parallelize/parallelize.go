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
// Determinism contract. The cut is a pure function of (n, workers): at
// width w ≥ 2, chunk c of k = min(n, 4w) covers [c·n/k, (c+1)·n/k). Which
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

// Pool is a bounded, stateless worker pool: it owns no goroutines between
// calls, so one Pool may be shared by concurrent callers (e.g. the per-rank
// sessions of the §4 parallel layout) without locking.
type Pool struct {
	workers int
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
// contiguous chunks Run hands out: chunk c of k covers [c·n/k, (c+1)·n/k).
// Every index is covered exactly once, no chunk is empty, and the cut
// depends only on (n, workers) — the deterministic partition the
// bit-exactness contract rests on.
func Shards(n, workers int) [][2]int {
	return appendShards(nil, n, workers)
}

// appendShards appends the chunks of [0, n) to dst — the in-place form Run
// uses to keep dispatch records allocation-free once grown.
func appendShards(dst [][2]int, n, workers int) [][2]int {
	k := NumShards(n, workers)
	for c := 0; c < k; c++ {
		//mdm:hotallocok -- appends into dst[:0] of a pooled dispatch record; the backing array grows once per record, then every Run reuses it
		dst = append(dst, [2]int{c * n / k, (c + 1) * n / k})
	}
	return dst
}

// NumShards returns len(Shards(n, workers)) without building the slice: 0
// for an empty range, 1 at width 1, and min(n, 4·workers) above it. Every
// chunk is non-empty because the count never exceeds n. Callers sizing
// per-chunk accumulators on a hot path use this to stay allocation-free.
func NumShards(n, workers int) int {
	if n <= 0 {
		return 0
	}
	if workers <= 1 {
		return 1
	}
	return min(n, chunksPerWorker*workers)
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
	// work is d.claim, bound once when the record is built: `go d.work()`
	// passes an existing zero-argument funcval to the scheduler, the one
	// goroutine-spawn shape that does not allocate a capture struct.
	work func()
}

var dispatchPool = sync.Pool{New: func() any {
	d := new(dispatch)
	d.work = d.claim
	return d
}}

// claim is one worker: it takes the next unclaimed chunk from the cursor
// until none are left.
func (d *dispatch) claim() {
	defer d.wg.Done()
	for {
		c := int(d.next.Add(1) - 1)
		if c >= len(d.chunks) {
			return
		}
		d.runChunk(c)
	}
}

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

// Run executes fn over the index range [0, n), cut into NumShards(n,
// Workers()) contiguous chunks that min(Workers(), chunks) goroutines claim
// in ascending order. fn receives its chunk number and half-open range
// [lo, hi); it must write only to per-index state of its own range (or to
// per-chunk state merged by the caller afterwards). With one chunk — a nil
// or width-1 pool, or n <= 1 — fn runs inline on the calling goroutine.
//
// Every chunk runs. The returned error is the lowest-numbered failing
// chunk's error; a chunk panic surfaces as a *PanicError.
func (p *Pool) Run(n int, fn func(chunk, lo, hi int) error) error {
	workers := p.Workers()
	k := NumShards(n, workers)
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
	d.chunks = appendShards(d.chunks[:0], n, workers)
	if cap(d.errs) < k {
		d.errs = make([]error, k)
	}
	d.errs = d.errs[:k]
	for c := range d.errs {
		d.errs[c] = nil
	}
	d.next.Store(0)
	g := min(workers, k)
	d.wg.Add(g)
	for range g {
		go d.work()
	}
	d.wg.Wait()
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
