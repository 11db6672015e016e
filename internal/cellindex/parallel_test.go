package cellindex

import (
	"errors"
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
		par, err := SortPool(g, pos, parallelize.New(w))
		if err != nil {
			t.Fatal(err)
		}
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
		got = sortInto(t, so, got, pos, parallelize.New(w))
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
	nt := neighborTable(t, g, parallelize.New(4))
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

// neighborTable is BuildNeighborTable, failing tb on an error.
func neighborTable(tb testing.TB, g *Grid, pool *parallelize.Pool) *NeighborTable {
	tb.Helper()
	nt, err := BuildNeighborTable(g, pool)
	if err != nil {
		tb.Fatal(err)
	}
	return nt
}

// sortInto is so.SortInto, failing tb on an error.
func sortInto(tb testing.TB, so *Sorter, dst *Sorted, pos []vec.V, pool *parallelize.Pool) *Sorted {
	tb.Helper()
	s, err := so.SortInto(dst, pos, pool)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestSortPanicFailsTheSort: a sort chunk that panics — here on a reused
// layout whose cell table (both phases index it) or slot table (the scatter
// phase writes it) is too short — fails SortInto with the pool's
// *parallelize.PanicError instead of returning a layout it never wrote, at
// pool widths 1 and 3 (n above serialSortCutoff, so width 3 cuts chunks).
func TestSortPanicFailsTheSort(t *testing.T) {
	const l = 24.0
	g, err := NewGrid(l, 3)
	if err != nil {
		t.Fatal(err)
	}
	pos := randomPositions(serialSortCutoff+301, l, 5)
	half := func(s []int) []int { return s[: len(s)/2 : len(s)/2] }
	for _, table := range []string{"Cell", "Slot"} {
		for _, workers := range []int{1, 3} {
			so := NewSorter(g)
			dst := sortInto(t, so, nil, pos, nil)
			if table == "Cell" {
				dst.Cell = half(dst.Cell)
			} else {
				dst.Slot = half(dst.Slot)
			}
			_, err := so.SortInto(dst, pos, parallelize.New(workers))
			if pe := (*parallelize.PanicError)(nil); !errors.As(err, &pe) {
				t.Errorf("%s table, workers %d: sort into a malformed layout returned %v, want a *parallelize.PanicError", table, workers, err)
			}
		}
	}
}

// TestNeighborTablePanicFailsTheBuild: a chunk of the neighbor-table build
// that panics fails BuildNeighborTable with the *PanicError instead of
// returning a table with that chunk's lists missing, at pool widths 1 and 3
// (a grid above serialCellsCutoff cells, so width 3 cuts chunks).
func TestNeighborTablePanicFailsTheBuild(t *testing.T) {
	g, err := NewGrid(33, 3) // 11³ cells
	if err != nil {
		t.Fatal(err)
	}
	defer func() { neighborsOf = (*Grid).Neighbors }()
	neighborsOf = func(g *Grid, c int) []Neighbor {
		if c == g.NumCells()-1 {
			panic("neighbors")
		}
		return g.Neighbors(c)
	}
	for _, workers := range []int{1, 3} {
		_, err := BuildNeighborTable(g, parallelize.New(workers))
		if pe := (*parallelize.PanicError)(nil); !errors.As(err, &pe) {
			t.Errorf("workers %d: a build whose last chunk panics returned %v, want a *parallelize.PanicError", workers, err)
		}
	}
}
