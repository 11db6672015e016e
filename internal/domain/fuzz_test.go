package domain

import "testing"

// FuzzBlocks drives the decomposition with arbitrary (nc, p). NewBlocks either
// refuses them, or its blocks are a decomposition: p ranks whose OwnedCells
// partition the nc³ cells, Owner naming the rank whose block holds each cell,
// and no rank receiving one of its own cells as a ghost. Prime p (a 1×1×p
// slab) and p > nc³ (empty blocks) are the shapes most likely to break it.
func FuzzBlocks(f *testing.F) {
	for _, seed := range [][2]int{
		{2, 16}, {3, 8}, {4, 24}, // the paper's 16 and the lattice's layouts
		{3, 7}, {5, 13}, {2, 31}, // prime p
		{2, 9}, {1, 2}, {3, 100}, // p > nc³
		{0, 4}, {4, 0}, {-3, -5}, // refused
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, nc, p int) {
		if nc > 10 || p > 512 {
			return // the checks below cost p·nc³
		}
		b, err := NewBlocks(nc, p)
		if err != nil {
			if nc >= 1 && p >= 1 {
				t.Fatalf("NewBlocks(%d, %d): %v", nc, p, err)
			}
			return
		}
		if nc < 1 || p < 1 {
			t.Fatalf("NewBlocks(%d, %d) accepted", nc, p)
		}
		if b.NumRanks() != p {
			t.Fatalf("NewBlocks(%d, %d): %d×%d×%d blocks", nc, p, b.Px, b.Py, b.Pz)
		}
		owner := make([]int, nc*nc*nc)
		for c := range owner {
			owner[c] = -1
		}
		for r := 0; r < p; r++ {
			owned := map[int]bool{}
			for _, c := range b.OwnedCells(r) {
				if c < 0 || c >= len(owner) {
					t.Fatalf("nc %d, p %d: rank %d owns cell %d, off the grid", nc, p, r, c)
				}
				if owner[c] != -1 {
					t.Fatalf("nc %d, p %d: rank %d owns cell %d, already rank %d's", nc, p, r, c, owner[c])
				}
				owner[c], owned[c] = r, true
			}
			for _, c := range b.GhostCells(r) {
				if owned[c] {
					t.Fatalf("nc %d, p %d: rank %d receives its own cell %d as a ghost", nc, p, r, c)
				}
			}
		}
		for c, r := range owner {
			if r == -1 {
				t.Fatalf("nc %d, p %d: cell %d has no owner", nc, p, c)
			}
			if got := b.Owner(c); got != r {
				t.Fatalf("nc %d, p %d: Owner(%d) = %d, but rank %d's block holds it", nc, p, c, got, r)
			}
		}
	})
}
