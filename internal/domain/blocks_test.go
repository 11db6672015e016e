package domain

import (
	"testing"
)

// bruteAxisOwner is the linear-scan oracle for the closed-form axisOwner.
func bruteAxisOwner(ic, nc, p int) int {
	for k := 0; k < p; k++ {
		lo, hi := k*nc/p, (k+1)*nc/p
		if lo <= ic && ic < hi {
			return k
		}
	}
	return -1
}

func TestBlocksAxisOwnerClosedForm(t *testing.T) {
	for nc := 1; nc <= 12; nc++ {
		for p := 1; p <= 20; p++ {
			b := &Blocks{NC: nc, Px: p, Py: 1, Pz: 1}
			for ic := 0; ic < nc; ic++ {
				want := bruteAxisOwner(ic, nc, p)
				if got := b.axisOwner(ic, p); got != want {
					t.Fatalf("nc=%d p=%d: axisOwner(%d) = %d, want %d", nc, p, ic, got, want)
				}
			}
		}
	}
}

func TestBlocksOwnerPartitionsCells(t *testing.T) {
	for _, tc := range []struct{ nc, n int }{
		{3, 1}, {3, 4}, {4, 8}, {5, 16}, {2, 16}, {6, 12}, {7, 7}, {1, 8},
	} {
		b, err := NewBlocks(tc.nc, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if b.NumRanks() != tc.n {
			t.Fatalf("nc=%d n=%d: NumRanks = %d", tc.nc, tc.n, b.NumRanks())
		}
		// Every cell owned by exactly one rank, and OwnedCells inverts Owner.
		ownerOf := make([]int, tc.nc*tc.nc*tc.nc)
		for c := range ownerOf {
			ownerOf[c] = -1
		}
		for r := 0; r < b.NumRanks(); r++ {
			for _, c := range b.OwnedCells(r) {
				if ownerOf[c] != -1 {
					t.Fatalf("nc=%d n=%d: cell %d owned by both %d and %d", tc.nc, tc.n, c, ownerOf[c], r)
				}
				ownerOf[c] = r
				if b.Owner(c) != r {
					t.Fatalf("nc=%d n=%d: Owner(%d) = %d, OwnedCells says %d", tc.nc, tc.n, c, b.Owner(c), r)
				}
			}
		}
		for c, r := range ownerOf {
			if r == -1 {
				t.Fatalf("nc=%d n=%d: cell %d unowned", tc.nc, tc.n, c)
			}
		}
	}
}

func TestBlocksGhostCells(t *testing.T) {
	for _, tc := range []struct{ nc, n int }{
		{3, 4}, {4, 8}, {5, 16}, {2, 16}, {6, 12}, {3, 27},
	} {
		b, err := NewBlocks(tc.nc, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		nc := tc.nc
		// Oracle: cell g is a ghost of rank r iff r does not own g and g is a
		// periodic 27-neighbor of some cell r owns.
		adjacent := func(a, g int) bool {
			ax, ay, az := a%nc, (a/nc)%nc, a/(nc*nc)
			gx, gy, gz := g%nc, (g/nc)%nc, g/(nc*nc)
			near := func(u, v int) bool {
				d := u - v
				if d < 0 {
					d = -d
				}
				return d <= 1 || d >= nc-1
			}
			return near(ax, gx) && near(ay, gy) && near(az, gz)
		}
		for r := 0; r < b.NumRanks(); r++ {
			owned := b.OwnedCells(r)
			got := map[int]bool{}
			prev := -1
			for _, g := range b.GhostCells(r) {
				if g <= prev {
					t.Fatalf("nc=%d n=%d rank %d: ghost cells not strictly ascending", tc.nc, tc.n, r)
				}
				prev = g
				got[g] = true
			}
			for g := 0; g < nc*nc*nc; g++ {
				want := false
				if b.Owner(g) != r {
					for _, a := range owned {
						if adjacent(a, g) {
							want = true
							break
						}
					}
				}
				if got[g] != want {
					t.Fatalf("nc=%d n=%d rank %d: ghost(%d) = %v, want %v", tc.nc, tc.n, r, g, got[g], want)
				}
			}
		}
	}
}

func TestBlocksEmptyRanks(t *testing.T) {
	// 16 ranks on a 2³ grid: only 8 cells, so at least 8 blocks are empty.
	b, err := NewBlocks(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for r := 0; r < b.NumRanks(); r++ {
		if len(b.OwnedCells(r)) == 0 {
			empty++
			if g := b.GhostCells(r); g != nil {
				t.Fatalf("empty rank %d has ghost cells %v", r, g)
			}
		}
	}
	if empty != 8 {
		t.Fatalf("16 ranks on 2³ cells: %d empty ranks, want 8", empty)
	}
}

func TestBlocksValidation(t *testing.T) {
	if _, err := NewBlocks(0, 4); err == nil {
		t.Error("zero grid accepted")
	}
	if _, err := NewBlocks(3, 0); err == nil {
		t.Error("zero ranks accepted")
	}
}

func TestFactor3(t *testing.T) {
	cases := map[int][3]int{
		16: {4, 2, 2}, // the paper's decomposition
		8:  {2, 2, 2},
		1:  {1, 1, 1},
		12: {3, 2, 2},
		27: {3, 3, 3},
		7:  {7, 1, 1},
	}
	for n, want := range cases {
		a, b, c := factor3(n)
		if a*b*c != n {
			t.Errorf("factor3(%d) = %d×%d×%d ≠ %d", n, a, b, c, n)
		}
		if [3]int{a, b, c} != want {
			t.Errorf("factor3(%d) = (%d,%d,%d), want %v", n, a, b, c, want)
		}
	}
}

// The paper's 16 real-space processes tile the box 4×2×2.
func TestPaperDecomposition(t *testing.T) {
	b, err := NewBlocks(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRanks() != 16 {
		t.Errorf("ranks = %d", b.NumRanks())
	}
	if b.Px != 4 || b.Py != 2 || b.Pz != 2 {
		t.Errorf("rank grid = %d×%d×%d", b.Px, b.Py, b.Pz)
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	b, _ := NewBlocks(6, 12)
	for r := 0; r < b.NumRanks(); r++ {
		x, y, z := b.RankCoords(r)
		if got := b.RankIndex(x, y, z); got != r {
			t.Fatalf("round trip %d -> %d", r, got)
		}
	}
}

// TestFactor3Property: for every n the three factors multiply back to n,
// are non-increasing, and have the minimal spread over all factorizations
// (the near-cubic requirement of the §4 decomposition).
func TestFactor3Property(t *testing.T) {
	for n := 1; n <= 400; n++ {
		a, b, c := factor3(n)
		if a*b*c != n {
			t.Fatalf("factor3(%d) = %d×%d×%d ≠ %d", n, a, b, c, n)
		}
		if !(a >= b && b >= c) {
			t.Fatalf("factor3(%d) = (%d,%d,%d) not non-increasing", n, a, b, c)
		}
		// Brute-force minimal spread.
		best := n - 1
		for x := 1; x*x*x <= n; x++ {
			if n%x != 0 {
				continue
			}
			m := n / x
			for y := x; y*y <= m; y++ {
				if m%y == 0 && m/y-x < best {
					best = m/y - x
				}
			}
		}
		if a-c != best {
			t.Fatalf("factor3(%d) spread %d, minimal %d", n, a-c, best)
		}
	}
}

// NumRanks returns the number of blocks.
func (b *Blocks) NumRanks() int { return b.Px * b.Py * b.Pz }
