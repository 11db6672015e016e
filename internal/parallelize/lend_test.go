package parallelize

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// goid is the calling goroutine's id, parsed from its stack header.
func goid() int64 {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, _ := strconv.ParseInt(s[:strings.IndexByte(s, ' ')], 10, 64)
	return id
}

// lender parks side 1 of l in Lend on its own goroutine and returns its
// goroutine id once it waits, and a channel that yields Lend's results.
type lendResult struct {
	until int64
	lent  bool
	err   error
}

func startLender(t *testing.T, l *Lending, cancel <-chan struct{}) (int64, <-chan lendResult) {
	t.Helper()
	id := make(chan int64, 1)
	out := make(chan lendResult, 1)
	go func() {
		id <- goid()
		until, lent, err := l.Lend(1, cancel)
		out <- lendResult{until, lent, err}
	}()
	g := <-id
	for deadline := time.Now().Add(10 * time.Second); !l.Parked(1); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("lender never parked")
		}
	}
	return g, out
}

// lendDone is the lender's result, failing the test if it stays parked
// 10 s after what should have woken it.
func lendDone(t *testing.T, done <-chan lendResult) lendResult {
	t.Helper()
	select {
	case r := <-done:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("the lender stayed parked 10 s after its wake-up")
		return lendResult{}
	}
}

// holdChunkZero returns a Run body that counts every chunk it runs and the
// ones the lender (goroutine lg) runs, and holds chunk 0 until every other
// chunk has run (10 s at most): the owner claims chunk 0 before it publishes
// the Run (TestLendOwnerRunsChunkZero), so at width 1 the parked lender must
// run all the others.
func holdChunkZero(k int, lg int64, runs []atomic.Int64, lent *atomic.Int64, body func(chunk int) error) func(chunk, lo, hi int) error {
	var others atomic.Int64
	allRun := make(chan struct{})
	return func(chunk, lo, hi int) error {
		runs[chunk].Add(1)
		if goid() == lg {
			lent.Add(1)
		}
		if chunk != 0 {
			defer func() { // also when body panics
				if others.Add(1) == int64(k-1) {
					close(allRun)
				}
			}()
			return body(chunk)
		}
		select {
		case <-allRun:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("chunk 0 waited 10 s: %d of %d other chunks ran", others.Load(), k-1)
		}
		return body(chunk)
	}
}

// TestLendCutIsPoolNumShards pins the cut of a lendable pool: a Run of at
// least minLendChunk indices a chunk is cut as at width w + 1, a shorter
// one as on a plain pool, and Pool.NumShards names the cut Run makes.
func TestLendCutIsPoolNumShards(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		p := NewLending(nil).Pool(0, w)
		for _, n := range []int{0, 1, 64, 182, 255, 256, 383, 384, 640, 4096} {
			want := Shards(n, w)
			if n >= minLendChunk*chunksPerWorker*(w+1) {
				want = Shards(n, w+1)
			}
			got := make([][2]int, p.NumShards(n))
			if err := p.Run(n, func(chunk, lo, hi int) error {
				got[chunk] = [2]int{lo, hi}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("w=%d n=%d: cut %v, want %v", w, n, got, want)
			}
		}
	}
}

// TestLendSmallRunPublishesNothing: a Run below the lending minimum runs as
// on a plain pool (inline at width 1) and publishes nothing, so a parked
// lender is never woken for it; a Run above it is published while it runs.
func TestLendSmallRunPublishesNothing(t *testing.T) {
	l := NewLending(nil)
	p := l.Pool(0, 1)
	published := func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.runs[0] != nil
	}
	caller := goid()
	n := minLendChunk*chunksPerWorker*2 - 1
	if err := p.Run(n, func(chunk, lo, hi int) error {
		if chunk != 0 || lo != 0 || hi != n || goid() != caller || published() {
			return fmt.Errorf("small Run: chunk (%d, %d, %d), published %v", chunk, lo, hi, published())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(n+1, func(chunk, lo, hi int) error {
		if !published() {
			return fmt.Errorf("chunk %d of a lendable Run ran unpublished", chunk)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if published() {
		t.Fatal("a returned Run is still published")
	}
}

// TestLendRunsEveryChunkOnce lends a parked goroutine into Runs at widths
// 1, 2 and 4: every chunk runs exactly once, every index is covered, and at
// width 1, where the owner holds chunk 0, the lender runs all the others.
func TestLendRunsEveryChunkOnce(t *testing.T) {
	const n = 4096
	for _, w := range []int{1, 2, 4} {
		l := NewLending(nil)
		p := l.Pool(0, w)
		lg, done := startLender(t, l, nil)
		for round := 0; round < 3; round++ {
			k := p.NumShards(n)
			runs := make([]atomic.Int64, k)
			var lent atomic.Int64
			out := make([]int64, n)
			fn := holdChunkZero(k, lg, runs, &lent, func(int) error { return nil })
			if err := p.Run(n, func(chunk, lo, hi int) error {
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&out[i], 1)
				}
				return fn(chunk, lo, hi)
			}); err != nil {
				t.Fatalf("w=%d: %v", w, err)
			}
			for c := range runs {
				if r := runs[c].Load(); r != 1 {
					t.Errorf("w=%d round %d: chunk %d ran %d times", w, round, c, r)
				}
			}
			for i, v := range out {
				if v != 1 {
					t.Fatalf("w=%d round %d: index %d covered %d times", w, round, i, v)
				}
			}
			if w == 1 && lent.Load() != int64(k-1) {
				t.Errorf("w=1 round %d: the lender ran %d chunks, want %d", round, lent.Load(), k-1)
			}
		}
		l.Release(0)
		if r := lendDone(t, done); !r.lent || r.err != nil {
			t.Errorf("w=%d: Lend = %+v, want lent, no error", w, r)
		}
	}
}

// TestLendOwnerRunsChunkZero pins the protocol rule the width-1 counts above
// rest on: a lendable Run's owner claims chunk 0 before it starts a helper
// or publishes the Run, so with a lender parked and woken by every Run,
// chunk 0 runs on the owner at widths 1, 2 and 4, every round.
func TestLendOwnerRunsChunkZero(t *testing.T) {
	const n, rounds = 4096, 200
	for _, w := range []int{1, 2, 4} {
		l := NewLending(nil)
		p := l.Pool(0, w)
		_, done := startLender(t, l, nil)
		owner := goid()
		for round := 0; round < rounds; round++ {
			var zero atomic.Int64
			if err := p.Run(n, func(chunk, lo, hi int) error {
				if chunk == 0 {
					zero.Store(goid())
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if g := zero.Load(); g != owner {
				t.Fatalf("w=%d round %d: chunk 0 ran on goroutine %d, not the owner %d", w, round, g, owner)
			}
		}
		l.Release(0)
		if r := lendDone(t, done); r.err != nil {
			t.Errorf("w=%d: Lend = %+v, want no error", w, r)
		}
	}
}

// TestLendLowestChunkErrorAndPanic: with a lender running chunks, Run still
// returns the lowest-numbered failing chunk's error, and a panic on the
// lender surfaces as that chunk's *PanicError while the lender lives on.
func TestLendLowestChunkErrorAndPanic(t *testing.T) {
	const n = 4096
	for _, w := range []int{1, 2, 4} {
		l := NewLending(nil)
		p := l.Pool(0, w)
		lg, done := startLender(t, l, nil)
		k := p.NumShards(n)
		runs := make([]atomic.Int64, k)
		var lent atomic.Int64
		err := p.Run(n, holdChunkZero(k, lg, runs, &lent, func(chunk int) error {
			if chunk >= 3 {
				return fmt.Errorf("chunk %d", chunk)
			}
			return nil
		}))
		if err == nil || err.Error() != "chunk 3" {
			t.Errorf("w=%d: err = %v, want chunk 3's", w, err)
		}
		runs = make([]atomic.Int64, k)
		lent.Store(0)
		err = p.Run(n, holdChunkZero(k, lg, runs, &lent, func(chunk int) error {
			if chunk == 5 && goid() == lg {
				panic("lender boom")
			}
			if chunk == 5 {
				panic("helper boom")
			}
			return nil
		}))
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Shard != 5 {
			t.Errorf("w=%d: err = %v, want chunk 5's *PanicError", w, err)
		}
		if w == 1 && pe != nil && pe.Value != "lender boom" {
			t.Errorf("w=1: chunk 5 panicked with %v, want it on the lender", pe.Value)
		}
		l.Release(0)
		if r := lendDone(t, done); !r.lent || r.err != nil {
			t.Errorf("w=%d: Lend after a panic = %+v, want lent, no error", w, r)
		}
	}
}

// TestLendLateLenderClaimsNothingRecycled: a lender that arrives after a
// lendable Run has returned must not reach that Run's dispatch record, which
// the next plain Run on the same goroutine takes from the record pool.
// Every chunk of the plain Run runs once, and never on the lender.
func TestLendLateLenderClaimsNothingRecycled(t *testing.T) {
	const n = 4096
	for _, w := range []int{1, 2, 4} {
		for round := 0; round < 20; round++ {
			l := NewLending(nil)
			if err := l.Pool(0, w).Run(n, func(chunk, lo, hi int) error { return nil }); err != nil {
				t.Fatal(err)
			}
			lg, done := startLender(t, l, nil)
			plain := New(2)
			runs := make([]atomic.Int64, NumShards(n, 2))
			if err := plain.Run(n, func(chunk, lo, hi int) error {
				runs[chunk].Add(1)
				time.Sleep(20 * time.Microsecond)
				if goid() == lg {
					return fmt.Errorf("chunk %d of a plain Run ran on the lender", chunk)
				}
				return nil
			}); err != nil {
				t.Fatalf("w=%d: %v", w, err)
			}
			for c := range runs {
				if r := runs[c].Load(); r != 1 {
					t.Fatalf("w=%d: chunk %d ran %d times", w, c, r)
				}
			}
			l.Release(0)
			lendDone(t, done)
		}
	}
}

// TestLendWakes pins the lend protocol's wake-ups: a parked lender blocks
// in a channel wait (its goroutine reads [select], never running), it
// returns lent with the clock's reading at its partner's release, at once
// and not lent when the partner released first, and with ErrCanceled when
// its cancel channel closes.
func TestLendWakes(t *testing.T) {
	var ticks atomic.Int64
	l := NewLending(func() int64 { return ticks.Add(1) })
	lg, done := startLender(t, l, nil)
	for range 5 {
		buf := make([]byte, 1<<16)
		stacks := string(buf[:runtime.Stack(buf, true)])
		hdr := fmt.Sprintf("goroutine %d [", lg)
		i := strings.Index(stacks, hdr)
		if i < 0 {
			t.Fatalf("no goroutine %d in the dump", lg)
		}
		if state := stacks[i+len(hdr):][:6]; state != "select" {
			t.Fatalf("parked lender is [%s…], want [select]", state)
		}
		time.Sleep(time.Millisecond)
	}
	ticks.Store(41)
	l.Release(0)
	if r := lendDone(t, done); r != (lendResult{42, true, nil}) {
		t.Errorf("released: Lend = %+v, want {42 true <nil>}", r)
	}
	if until, lent, err := l.Lend(1, nil); lent || until != 0 || err != nil {
		t.Errorf("after the partner's release: Lend = (%d, %v, %v), want at once", until, lent, err)
	}

	l.Reset()
	cancel := make(chan struct{})
	_, done = startLender(t, l, cancel)
	close(cancel)
	if r := lendDone(t, done); r.err != ErrCanceled || r.lent {
		t.Errorf("canceled: Lend = %+v, want ErrCanceled", r)
	}
}

// TestLendSteadyStateAllocs: a Run with a parked lender allocates nothing
// once its dispatch record is warm, at widths 1, 2 and 4.
func TestLendSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates per goroutine handoff; the pinned counts only hold in uninstrumented builds")
	}
	out := make([]int, 4096)
	for _, w := range []int{1, 2, 4} {
		l := NewLending(nil)
		p := l.Pool(0, w)
		_, done := startLender(t, l, nil)
		fn := func(chunk, lo, hi int) error { // built once: a closure passed to Run escapes
			for i := lo; i < hi; i++ {
				out[i] = chunk
			}
			return nil
		}
		body := func() { _ = p.Run(len(out), fn) }
		body()
		if avg := testing.AllocsPerRun(100, body); avg != 0 {
			t.Errorf("width %d: %.2f allocs per lent Run, want 0", w, avg)
		}
		l.Release(0)
		lendDone(t, done)
	}
}

// BenchmarkRunLent times a Run of n indices of trivial work on a width-1
// lendable pool, with and without a parked lender: the owner's share of a
// lender's wake-up (the publish, its lock and channel send) and what the
// lender's claims take back, against the inline serial loop.
func BenchmarkRunLent(b *testing.B) {
	for _, n := range []int{256, 4096} {
		out := make([]float64, n)
		fn := func(chunk, lo, hi int) error {
			for i := lo; i < hi; i++ {
				out[i] += float64(i)
			}
			return nil
		}
		b.Run(fmt.Sprintf("n=%d/inline", n), func(b *testing.B) {
			for range b.N {
				_ = New(1).Run(n, fn)
			}
		})
		b.Run(fmt.Sprintf("n=%d/lendable", n), func(b *testing.B) {
			p := NewLending(nil).Pool(0, 1)
			for range b.N {
				_ = p.Run(n, fn)
			}
		})
		b.Run(fmt.Sprintf("n=%d/lent", n), func(b *testing.B) {
			l := NewLending(nil)
			p := l.Pool(0, 1)
			done := make(chan struct{})
			go func() { _, _, _ = l.Lend(1, nil); close(done) }()
			for !l.Parked(1) {
				runtime.Gosched()
			}
			b.ResetTimer()
			for range b.N {
				_ = p.Run(n, fn)
			}
			b.StopTimer()
			l.Release(0)
			<-done
		})
	}
}
