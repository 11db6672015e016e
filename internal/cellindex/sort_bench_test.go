package cellindex

import (
	"fmt"
	"math"
	"testing"

	"mdm/internal/parallelize"
	"mdm/internal/vec"
)

// benchPositions fills a box of side l with n deterministically scattered
// particles (no RNG so every run sorts the same input).
func benchPositions(n int, l float64) []vec.V {
	pos := make([]vec.V, n)
	for i := range pos {
		h := float64((int64(i)*2654435761)%100003) / 100003.0
		g := float64((i*40503)%9973) / 9973.0
		pos[i] = vec.New(h*l, g*l, math.Mod(h*7+g*3, 1)*l)
	}
	return pos
}

// BenchmarkSortCrossover pins the serial/parallel crossover of the 3-phase
// counting sort: below serialSortCutoff the parallel path was measured slower
// than serial (BENCH_1 jsetBuild 0.61–0.77×), so SortPool must run those sizes
// inline. The "forced" variants bypass the cutoff to expose the raw parallel
// cost at each size.
func BenchmarkSortCrossover(b *testing.B) {
	pool := parallelize.New(4)
	for _, n := range []int{216, 1000, 2048, 8192, 32768} {
		l := 10.0 * math.Cbrt(float64(n)/216.0)
		g, err := NewGrid(l, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		pos := benchPositions(n, l)
		b.Run(fmt.Sprintf("n=%d/auto", n), func(b *testing.B) {
			so := NewSorter(g)
			var dst *Sorted
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = so.SortInto(dst, pos, pool)
			}
		})
		b.Run(fmt.Sprintf("n=%d/serial", n), func(b *testing.B) {
			so := NewSorter(g)
			var dst *Sorted
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = so.SortInto(dst, pos, nil)
			}
		})
	}
}

// TestSorterMatchesSortPool pins SortInto (with and without buffer reuse,
// above and below the serial cutoff) to the reference Sort layout.
func TestSorterMatchesSortPool(t *testing.T) {
	pool := parallelize.New(4)
	for _, n := range []int{0, 1, 216, serialSortCutoff + 100} {
		l := 10.0 * math.Cbrt(math.Max(float64(n), 1)/216.0)
		g, err := NewGrid(l, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		pos := benchPositions(n, l)
		want := Sort(g, pos)
		so := NewSorter(g)
		var got *Sorted
		for trial := 0; trial < 3; trial++ { // reuse across calls
			got = so.SortInto(got, pos, pool)
			if got.Pos.Len() != want.Pos.Len() || len(got.Start) != len(want.Start) {
				t.Fatalf("n=%d trial %d: layout size mismatch", n, trial)
			}
			for k := 0; k < want.Pos.Len(); k++ {
				if got.At(k) != want.At(k) || got.Order[k] != want.Order[k] {
					t.Fatalf("n=%d trial %d: slot %d differs", n, trial, k)
				}
			}
			for c := range want.Start {
				if got.Start[c] != want.Start[c] {
					t.Fatalf("n=%d trial %d: start %d differs", n, trial, c)
				}
			}
		}
	}
}

// TestRefreshMatchesResort checks Refresh on cell-center particles (so a
// small nudge cannot change any cell assignment): the refreshed layout must
// equal a full re-sort of the moved positions bit-for-bit.
func TestRefreshMatchesResort(t *testing.T) {
	g, err := NewGrid(10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// One particle per cell center in a scrambled original order.
	n := g.NumCells()
	pos := make([]vec.V, n)
	for i := range pos {
		c := (i * 37) % n
		cx, cy, cz := g.Coords(c)
		pos[i] = vec.New(
			(float64(cx)+0.5)*g.CellSize,
			(float64(cy)+0.5)*g.CellSize,
			(float64(cz)+0.5)*g.CellSize,
		)
	}
	s := Sort(g, pos)
	moved := make([]vec.V, len(pos))
	for i, p := range pos {
		moved[i] = p.Add(vec.New(1e-3, -1e-3, 5e-4))
	}
	s.Refresh(moved)
	want := Sort(g, moved)
	for k := 0; k < want.Pos.Len(); k++ {
		if s.Order[k] != want.Order[k] {
			t.Fatalf("slot %d: order %d != %d", k, s.Order[k], want.Order[k])
		}
		if s.At(k) != want.At(k) {
			t.Fatalf("slot %d: pos %v != %v", k, s.At(k), want.At(k))
		}
	}
	for c := range want.Start {
		if s.Start[c] != want.Start[c] {
			t.Fatalf("start %d differs", c)
		}
	}
}

// TestRefreshKeepsCellSlotAndImage names the trap of refreshing a sorted
// layout: a particle that crosses a box face between the sort and the Refresh
// comes back from the integrator wrapped to the other side of the box, but its
// cell — and the image shifts every neighboring cell reaches it through — are
// those of the sort. The layout must keep it on the image it was sorted on,
// stored just outside [0, L), in the same cell and slot; re-wrapping it would
// put it a box length from where its cell's neighbors look for it.
func TestRefreshKeepsCellSlotAndImage(t *testing.T) {
	const l = 12.0
	g, err := NewGrid(l, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	pos := randomPositions(200, l, 9)
	const up, down = 17, 42 // cross x = L upward, x = 0 downward
	pos[up] = vec.New(l-0.02, 5, 7)
	pos[down] = vec.New(0.03, 8, 2)
	s := Sort(g, pos)
	order := append([]int(nil), s.Order...)
	slot := append([]int(nil), s.Slot...)
	cell := append([]int(nil), s.Cell...)
	start := append([]int(nil), s.Start...)

	// What the integrator hands back: every particle nudged, every position
	// wrapped into the box.
	moved := make([]vec.V, len(pos))
	for i, p := range pos {
		moved[i] = p.Add(vec.New(0.05, -0.01, 0.02)).Wrap(l)
	}
	moved[down] = pos[down].Add(vec.New(-0.05, 0.01, 0.02)).Wrap(l)
	if !(moved[up].X < 1 && moved[down].X > l-1) {
		t.Fatalf("fixture: crossers at x = %v and %v did not wrap", moved[up].X, moved[down].X)
	}

	for pass := 0; pass < 2; pass++ { // a second Refresh on the same positions is stable
		s.Refresh(moved)
		for i := range pos {
			if s.Slot[i] != slot[i] || s.Cell[i] != cell[i] || s.Order[slot[i]] != order[slot[i]] {
				t.Fatalf("pass %d: particle %d moved in the layout", pass, i)
			}
		}
		for c := range start {
			if s.Start[c] != start[c] {
				t.Fatalf("pass %d: start %d moved", pass, c)
			}
		}
		if x := s.At(slot[up]).X; !(x >= l) {
			t.Errorf("pass %d: upward crosser stored at x = %v, inside the box", pass, x)
		}
		if x := s.At(slot[down]).X; !(x < 0) {
			t.Errorf("pass %d: downward crosser stored at x = %v, inside the box", pass, x)
		}
		// The stored coordinate is the image of the current position on the
		// sorted particle's side of the box.
		sameSide := func(x, sortedAt float64) float64 {
			switch {
			case x-sortedAt > l/2:
				return x - l
			case x-sortedAt < -l/2:
				return x + l
			}
			return x
		}
		for i, m := range moved {
			got := s.At(s.Slot[i])
			want := vec.New(sameSide(m.X, pos[i].X), sameSide(m.Y, pos[i].Y), sameSide(m.Z, pos[i].Z))
			if got != want {
				t.Fatalf("pass %d: particle %d stored at %v, want %v", pass, i, got, want)
			}
			if s.P32.X[s.Slot[i]] != float32(got.X) || s.P32.Y[s.Slot[i]] != float32(got.Y) || s.P32.Z[s.Slot[i]] != float32(got.Z) {
				t.Fatalf("pass %d: particle %d: float32 mirror out of step with the stored coordinate", pass, i)
			}
		}
	}
}
