// Fixtures for the shardmerge analyzer: floating-point accumulation into
// captured state from goroutine or worker closures makes the reduction order
// a scheduling artifact. Disjoint per-shard writes, serial pair iterators and
// cold functions stay quiet.
package fixture

import (
	"mdm/internal/cellindex"
	"mdm/internal/vec"
)

// step is the fixture's hot-path root; everything it reaches is stepflow.
//
//mdm:stepflow -- fixture: hot-path root
func step(xs []float64, sorted *cellindex.Sorted) float64 {
	total := gather(xs)
	workers(xs)
	total += disjoint(xs)
	total += serialPairs(sorted)
	total += reviewed(xs)
	return total
}

// runShard stands in for a worker-pool submission.
func runShard(f func(shard int)) { f(0) }

// gather accumulates into a captured float from a goroutine.
func gather(xs []float64) float64 {
	total := 0.0
	done := make(chan struct{})
	go func() {
		for _, x := range xs {
			total += x // want `goroutine in hot-path function gather accumulates into captured float variable total`
		}
		close(done)
	}()
	<-done
	return total
}

// workers accumulates into a captured slice element from a worker closure.
func workers(sums []float64) {
	runShard(func(shard int) {
		sums[0] += float64(shard) // want `worker closure in hot-path function workers accumulates into captured shared float slice sums`
	})
}

// disjoint writes each shard's own slot with plain assignment and merges
// after the join — the sanctioned pattern.
func disjoint(xs []float64) float64 {
	partial := make([]float64, 2)
	runShard(func(shard int) {
		partial[shard] = xs[0]
	})
	return partial[0] + partial[1]
}

// serialPairs accumulates inside a closure handed to the known-serial pair
// iterator; it runs on the calling goroutine in fixed cell order, so the
// exemption applies.
func serialPairs(s *cellindex.Sorted) float64 {
	pot := 0.0
	s.ForEachOrderedPair(func(i, j int, rij vec.V) {
		pot += rij.X
	})
	// The host potential's half walk over a prebuilt neighbor table.
	nbt := cellindex.BuildNeighborTable(s.Grid, nil)
	s.ForEachHalfPair(nbt, func(i, j int, rij vec.V) {
		pot += rij.X
	})
	return pot
}

// reviewed carries a justified suppression on an otherwise-flagged pattern.
func reviewed(xs []float64) float64 {
	total := 0.0
	done := make(chan struct{})
	go func() {
		for _, x := range xs {
			total += x //mdm:shardmergeok -- fixture: single goroutine, sequenced by the channel join below
		}
		close(done)
	}()
	<-done
	return total
}

// coldGather is the offending pattern off the hot path — must not fire.
func coldGather(xs []float64) float64 {
	total := 0.0
	done := make(chan struct{})
	go func() {
		for _, x := range xs {
			total += x
		}
		close(done)
	}()
	<-done
	return total
}
