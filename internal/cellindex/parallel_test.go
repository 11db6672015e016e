package cellindex

import (
	"math/rand"
	"testing"

	"mdm/internal/parallelize"
	"mdm/internal/vec"
)

// The counting sort and the cell-memory build must produce byte-identical
// layouts at every pool width — the foundation of the repo-wide determinism
// contract (a different j ordering would change float32 accumulation order
// everywhere downstream).

func TestSortPoolBitIdentical(t *testing.T) {
	const l = 24.0
	g, err := NewGrid(l, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pos := make([]vec.V, 500)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
	}
	serial := Sort(g, pos)
	for _, w := range []int{1, 2, 3, 4, 8, 16} {
		par := SortPool(g, pos, parallelize.New(w))
		if par.Pos.Len() != serial.Pos.Len() || len(par.Order) != len(serial.Order) {
			t.Fatalf("workers=%d: layout sizes differ", w)
		}
		for k := 0; k < serial.Pos.Len(); k++ {
			if par.At(k) != serial.At(k) || par.Order[k] != serial.Order[k] {
				t.Fatalf("workers=%d: sorted slot %d differs: %v/%d vs %v/%d",
					w, k, par.At(k), par.Order[k], serial.At(k), serial.Order[k])
			}
		}
		for c := range serial.Start {
			if par.Start[c] != serial.Start[c] {
				t.Fatalf("workers=%d: Start[%d] = %d, serial %d", w, c, par.Start[c], serial.Start[c])
			}
		}
	}
}

// TestSortBitIdenticalAcrossWorkers runs the parallel counting sort itself
// (n above serialSortCutoff) at widths 1–8 through one reused Sorter: its
// per-chunk count and base tables must give the serial layout whatever the
// chunk count, and shrink and grow with it between calls.
func TestSortBitIdenticalAcrossWorkers(t *testing.T) {
	const l = 24.0
	g, err := NewGrid(l, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	pos := make([]vec.V, serialSortCutoff+301)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
	}
	serial := Sort(g, pos)
	so := NewSorter(g)
	var got *Sorted
	for _, w := range []int{1, 2, 3, 4, 5, 6, 7, 8, 2} {
		got = so.SortInto(got, pos, parallelize.New(w))
		for k := range serial.Order {
			if got.At(k) != serial.At(k) || got.Order[k] != serial.Order[k] ||
				got.Slot[k] != serial.Slot[k] || got.Cell[k] != serial.Cell[k] {
				t.Fatalf("workers=%d: slot %d differs from the serial sort", w, k)
			}
		}
		for c := range serial.Start {
			if got.Start[c] != serial.Start[c] {
				t.Fatalf("workers=%d: Start[%d] = %d, serial %d", w, c, got.Start[c], serial.Start[c])
			}
		}
	}
}

func TestNeighborTableMatchesGrid(t *testing.T) {
	g, err := NewGrid(30, 3)
	if err != nil {
		t.Fatal(err)
	}
	nt := BuildNeighborTable(g, parallelize.New(4))
	if nt.Grid() != g {
		t.Fatal("table does not reference its grid")
	}
	for c := 0; c < g.NumCells(); c++ {
		want := g.Neighbors(c)
		got := nt.Of(c)
		if len(got) != len(want) {
			t.Fatalf("cell %d: %d cached neighbors, want %d", c, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("cell %d neighbor %d: %+v vs %+v", c, k, got[k], want[k])
			}
		}
	}
}
