package parallelize

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestShardsCoverExactly(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 100, 1000} {
		for _, w := range []int{1, 2, 3, 4, 8, 13, 1000} {
			shards := Shards(n, w)
			covered := make([]int, n)
			prev := 0
			for _, r := range shards {
				if r[0] != prev {
					t.Fatalf("n=%d w=%d: shard starts at %d, want %d", n, w, r[0], prev)
				}
				if r[0] >= r[1] {
					t.Fatalf("n=%d w=%d: empty shard %v survived", n, w, r)
				}
				for i := r[0]; i < r[1]; i++ {
					covered[i]++
				}
				prev = r[1]
			}
			if n > 0 && prev != n {
				t.Fatalf("n=%d w=%d: shards end at %d", n, w, prev)
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d covered %d times", n, w, i, c)
				}
			}
			// One chunk at width 1; min(n, 4w) above it.
			want := min(n, 4*w)
			if w == 1 && n > 0 {
				want = 1
			}
			if len(shards) != want || NumShards(n, w) != want {
				t.Fatalf("n=%d w=%d: %d shards, NumShards %d, want %d", n, w, len(shards), NumShards(n, w), want)
			}
		}
	}
}

func TestShardsDeterministic(t *testing.T) {
	a := fmt.Sprint(Shards(1000, 7))
	b := fmt.Sprint(Shards(1000, 7))
	if a != b {
		t.Fatalf("sharding not deterministic: %s vs %s", a, b)
	}
}

func TestNilAndWidthOnePoolRunInline(t *testing.T) {
	gid := func() string {
		var buf [64]byte
		return string(buf[:runtime.Stack(buf[:], false)])[:20]
	}
	for _, p := range []*Pool{nil, New(1)} {
		if p.Workers() != 1 {
			t.Fatalf("Workers() = %d, want 1", p.Workers())
		}
		caller := gid()
		calls := 0
		err := p.Run(100, func(shard, lo, hi int) error {
			calls++
			if shard != 0 || lo != 0 || hi != 100 {
				t.Fatalf("inline shard = (%d, %d, %d)", shard, lo, hi)
			}
			if gid() != caller {
				t.Fatal("width-1 pool hopped goroutines")
			}
			return nil
		})
		if err != nil || calls != 1 {
			t.Fatalf("inline run: err=%v calls=%d", err, calls)
		}
	}
}

func TestDefaultWidthIsGOMAXPROCS(t *testing.T) {
	if got, want := New(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("New(0).Workers() = %d, want %d", got, want)
	}
	if got := New(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(-3).Workers() = %d", got)
	}
}

// TestRunCoversAllIndices runs every index once, in the chunks Shards
// names, including ranges shorter than 4w (one index a chunk).
func TestRunCoversAllIndices(t *testing.T) {
	for _, n := range []int{1, 3, 7, 997} {
		for _, w := range []int{1, 2, 3, 8} {
			p := New(w)
			out := make([]int64, n)
			got := make([][2]int, NumShards(n, w))
			if err := p.Run(len(out), func(chunk, lo, hi int) error {
				got[chunk] = [2]int{lo, hi}
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&out[i], int64(i)+1)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != int64(i)+1 {
					t.Fatalf("n=%d w=%d: out[%d] = %d", n, w, i, v)
				}
			}
			if want := Shards(n, w); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("n=%d w=%d: ran chunks %v, want %v", n, w, got, want)
			}
		}
	}
}

// TestRunStragglerCannotStrandChunks holds the worker that claims chunk 0
// until every other chunk has run, as a descheduled worker would be held:
// the remaining workers must claim the rest of the range, so the straggler
// holds only its own 1/(4w) of it. A split into one range per worker fails
// here (the straggler's range is never finished by anyone else) and times
// out instead of hanging.
func TestRunStragglerCannotStrandChunks(t *testing.T) {
	const n = 1000
	for _, w := range []int{2, 4} {
		others := int64(n - n/(4*w)) // every index outside chunk 0
		var done atomic.Int64
		allRun := make(chan struct{})
		err := New(w).Run(n, func(chunk, lo, hi int) error {
			if lo == 0 {
				select {
				case <-allRun:
					return nil
				case <-time.After(10 * time.Second):
					return fmt.Errorf("w=%d: chunk [%d, %d) waited 10 s; %d of the %d indices outside chunk 0 ran", w, lo, hi, done.Load(), others)
				}
			}
			if done.Add(int64(hi-lo)) == others {
				close(allRun)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunReturnsLowestShardError(t *testing.T) {
	p := New(8)
	errShard := errors.New("shard failed")
	for trial := 0; trial < 20; trial++ {
		err := p.Run(64, func(shard, lo, hi int) error {
			if shard >= 3 {
				return fmt.Errorf("%w: %d", errShard, shard)
			}
			return nil
		})
		if err == nil || !errors.Is(err, errShard) {
			t.Fatalf("err = %v", err)
		}
		// Deterministic winner: shard 3 is the lowest failing shard.
		if got := err.Error(); got != "shard failed: 3" {
			t.Fatalf("trial %d: nondeterministic error choice: %q", trial, got)
		}
	}
}

// TestRunLowestChunkErrorWinsWhenItFinishesLast returns the lowest failing
// chunk's error even when that chunk is the last to finish, after every
// higher chunk has already failed, and when the only failing chunk is the
// last one claimed.
func TestRunLowestChunkErrorWinsWhenItFinishesLast(t *testing.T) {
	for _, w := range []int{2, 4} {
		p := New(w)
		k := NumShards(64, w)
		var failed atomic.Int64
		higherFailed := make(chan struct{})
		err := p.Run(64, func(chunk, lo, hi int) error {
			if chunk == 1 {
				<-higherFailed
			} else if chunk > 1 && failed.Add(1) == int64(k-2) {
				close(higherFailed)
			}
			if chunk >= 1 {
				return fmt.Errorf("chunk %d", chunk)
			}
			return nil
		})
		if err == nil || err.Error() != "chunk 1" {
			t.Fatalf("w=%d: err = %v, want chunk 1's", w, err)
		}
		err = p.Run(64, func(chunk, lo, hi int) error {
			if chunk == k-1 {
				return fmt.Errorf("chunk %d", chunk)
			}
			return nil
		})
		if want := fmt.Sprintf("chunk %d", k-1); err == nil || err.Error() != want {
			t.Fatalf("w=%d: err = %v, want %q", w, err, want)
		}
	}
}

func TestRunConvertsPanicToError(t *testing.T) {
	p := New(4)
	err := p.Run(16, func(shard, lo, hi int) error {
		if shard == 2 {
			panic("boom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Shard != 2 || pe.Value != "boom" {
		t.Fatalf("panic error = %+v", pe)
	}
	// The inline (single-shard) path must also not crash the process.
	err = New(1).Run(4, func(shard, lo, hi int) error { panic("inline") })
	if !errors.As(err, &pe) || pe.Value != "inline" {
		t.Fatalf("inline panic: err = %v", err)
	}
}

func TestPoolSharedByConcurrentCallers(t *testing.T) {
	// One pool used from many goroutines at once, as the §4 rank sessions do.
	p := New(4)
	done := make(chan error, 8)
	for c := 0; c < 8; c++ {
		go func() {
			var total int64
			err := p.Run(1000, func(shard, lo, hi int) error {
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&total, 1)
				}
				return nil
			})
			if err == nil && total != 1000 {
				err = fmt.Errorf("total = %d", total)
			}
			done <- err
		}()
	}
	for c := 0; c < 8; c++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunZeroLength(t *testing.T) {
	called := false
	if err := New(4).Run(0, func(shard, lo, hi int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for empty range")
	}
}

// TestRunSteadyStateAllocsFlatAcrossWidths pins the dispatch-record pooling:
// once a record has dispatched at a width, further Runs at that width must
// not allocate per shard (the BENCH_2 regression was ~1 capture struct per
// spawned shard plus the shard/error slices, so allocs/op climbed with the
// pool width). The bound is loose enough for scheduler stack growth and an
// occasional GC emptying the sync.Pool, but far below one alloc per shard.
func TestRunSteadyStateAllocsFlatAcrossWidths(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates per goroutine handoff; the pinned counts only hold in uninstrumented builds")
	}
	out := make([]int, 1024)
	for _, w := range []int{2, 4, 8} {
		p := New(w)
		body := func() {
			_ = p.Run(len(out), func(shard, lo, hi int) error {
				for i := lo; i < hi; i++ {
					out[i] = shard
				}
				return nil
			})
		}
		body() // warm the dispatch pool at this width
		avg := testing.AllocsPerRun(100, body)
		if avg > 2 {
			t.Errorf("width %d: %.2f allocs per Run, want ~0 (dispatch scratch not pooled?)", w, avg)
		}
	}
}
