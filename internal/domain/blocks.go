// Package domain implements the spatial domain decomposition of the paper's
// MD software (§4): "The simulation box is divided into 16 domains, and one
// process for real-space part performs all the calculation in each domain."
// Blocks splits the real-space cell grid into one block of whole cells per
// process (16 → 4×2×2) and names the ghost cells each block must receive
// before the MDGRAPE-2 force call — "that is what you have to manage with MPI
// routines".
package domain

import "fmt"

// Blocks is a cell-aligned spatial decomposition: the nc×nc×nc cell grid of
// the real-space discretization is split into px×py×pz contiguous blocks of
// whole cells, one block per real-space rank. Cells are the atomic unit of
// ownership — every cell belongs to exactly one rank, and a rank owns
// exactly the particles whose cell it owns. Aligning ownership to the cell
// grid keeps the decomposed pair walk identical to the serial one: each cell
// is filled by a single rank, so the within-cell particle order (ascending
// global index) is preserved no matter how many ranks share the box.
//
// Axis splits follow the same balanced convention as the wavenumber stripes:
// rank k along an axis of p ranks owns cells [k·nc/p, (k+1)·nc/p). When p
// exceeds nc some blocks are empty; empty ranks still participate in every
// exchange with empty payloads, so any rank count works on any grid.
type Blocks struct {
	NC         int // cells per axis of the underlying grid
	Px, Py, Pz int // ranks per axis, near-equal factors of the rank count, largest along x
}

// NewBlocks splits an nc×nc×nc cell grid across n ranks.
func NewBlocks(nc, n int) (*Blocks, error) {
	if nc < 1 {
		return nil, fmt.Errorf("domain: cell grid side %d must be positive", nc)
	}
	if n < 1 {
		return nil, fmt.Errorf("domain: %d blocks must be positive", n)
	}
	px, py, pz := factor3(n)
	return &Blocks{NC: nc, Px: px, Py: py, Pz: pz}, nil
}

// factor3 factors n into three factors as close to each other as possible,
// returned in non-increasing order.
func factor3(n int) (int, int, int) {
	best := [3]int{n, 1, 1}
	bestSpread := n - 1
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		m := n / a
		for b := a; b*b <= m; b++ {
			if m%b != 0 {
				continue
			}
			c := m / b
			spread := c - a
			if spread < bestSpread {
				bestSpread = spread
				best = [3]int{c, b, a}
			}
		}
	}
	return best[0], best[1], best[2]
}

// RankIndex flattens per-axis rank coordinates, x fastest.
func (b *Blocks) RankIndex(rx, ry, rz int) int {
	return (rz*b.Py+ry)*b.Px + rx
}

// RankCoords inverts RankIndex.
func (b *Blocks) RankCoords(r int) (rx, ry, rz int) {
	rx = r % b.Px
	ry = (r / b.Px) % b.Py
	rz = r / (b.Px * b.Py)
	return rx, ry, rz
}

// axisSpan returns the half-open cell range [lo, hi) owned by rank k of p
// along one axis. The range may be empty when p > nc.
func (b *Blocks) axisSpan(k, p int) (lo, hi int) {
	return k * b.NC / p, (k + 1) * b.NC / p
}

// axisOwner returns which of the p ranks along an axis owns cell ic: the
// unique k with k·nc/p ≤ ic < (k+1)·nc/p, in closed form
// k = ceil((ic+1)·p/nc) − 1.
func (b *Blocks) axisOwner(ic, p int) int {
	return ((ic+1)*p - 1) / b.NC
}

// Owner returns the rank owning flat cell index c. The flat layout matches
// cellindex.Grid.Index: c = (iz·nc + iy)·nc + ix.
func (b *Blocks) Owner(c int) int {
	ix := c % b.NC
	iy := (c / b.NC) % b.NC
	iz := c / (b.NC * b.NC)
	return b.RankIndex(b.axisOwner(ix, b.Px), b.axisOwner(iy, b.Py), b.axisOwner(iz, b.Pz))
}

// CellSpan returns the half-open cell ranges of rank r's block along each
// axis. Any range may be empty.
func (b *Blocks) CellSpan(r int) (xlo, xhi, ylo, yhi, zlo, zhi int) {
	rx, ry, rz := b.RankCoords(r)
	xlo, xhi = b.axisSpan(rx, b.Px)
	ylo, yhi = b.axisSpan(ry, b.Py)
	zlo, zhi = b.axisSpan(rz, b.Pz)
	return
}

// OwnedCells returns the flat indices of the cells in rank r's block,
// ascending. Empty blocks return nil.
func (b *Blocks) OwnedCells(r int) []int {
	xlo, xhi, ylo, yhi, zlo, zhi := b.CellSpan(r)
	var out []int
	for iz := zlo; iz < zhi; iz++ {
		for iy := ylo; iy < yhi; iy++ {
			for ix := xlo; ix < xhi; ix++ {
				out = append(out, (iz*b.NC+iy)*b.NC+ix)
			}
		}
	}
	return out
}

// GhostCells returns the flat indices of the cells rank r needs as ghosts:
// every cell in the periodic one-cell dilation of its block that it does not
// own itself, ascending and deduplicated (small grids wrap the dilation onto
// the block itself). An empty block has no ghost shell.
func (b *Blocks) GhostCells(r int) []int {
	xlo, xhi, ylo, yhi, zlo, zhi := b.CellSpan(r)
	if xlo >= xhi || ylo >= yhi || zlo >= zhi {
		return nil
	}
	need := make([]bool, b.NC*b.NC*b.NC)
	for iz := zlo - 1; iz < zhi+1; iz++ {
		wz := wrapIdx(iz, b.NC)
		for iy := ylo - 1; iy < yhi+1; iy++ {
			wy := wrapIdx(iy, b.NC)
			for ix := xlo - 1; ix < xhi+1; ix++ {
				wx := wrapIdx(ix, b.NC)
				need[(wz*b.NC+wy)*b.NC+wx] = true
			}
		}
	}
	out := make([]int, 0, len(need))
	for c, n := range need {
		if n && b.Owner(c) != r {
			out = append(out, c)
		}
	}
	return out
}

func wrapIdx(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}
