// The Barnes–Hut hierarchical force calculation
// [Barnes & Hut 1986], the O(N log N) method the paper discusses as the
// alternative to the Ewald summation (§6.3: "If we use tree-code with MDM,
// we can not only compare the accuracy with Ewald method but also perform
// larger simulation that cannot be done with Ewald method"). GRAPE-style
// machines accelerate it by evaluating the node–particle interactions on the
// pipelines [Makino 1991]; here the walk produces exactly the central-force
// evaluations a MDGRAPE-2 pipeline would execute.
//
// The implementation handles open (non-periodic) boundary conditions, as
// tree codes classically do. For charge-neutral systems the cells' monopole
// moments nearly vanish, so cells carry monopole AND dipole moments; the
// multipole acceptance criterion is the standard s/d < θ.

package main

import (
	"fmt"
	"math"

	"mdm/internal/units"
	"mdm/internal/vec"
)

// node is one octree cell.
type node struct {
	center    vec.V   // geometric center of the cube
	half      float64 // half side length
	q         float64 // total charge (monopole)
	qCenter   vec.V   // charge-weighted position numerator Σ q_i r_i
	dipole    vec.V   // Σ q_i (r_i - center)
	particles []int   // leaf bucket (non-empty only for leaves)
	children  [8]*node
	count     int // particles in the subtree
}

// Tree is a built Barnes–Hut octree over a particle set.
type Tree struct {
	Theta float64 // opening angle; smaller is more accurate
	pos   []vec.V
	q     []float64
	root  *node

	// NodeInteractions counts particle–node multipole evaluations done by
	// the last Forces call — the work a GRAPE pipeline would execute.
	NodeInteractions int64
	// LeafInteractions counts direct particle–particle evaluations.
	LeafInteractions int64
}

// buildTree constructs the octree. theta in (0, 1] is the usual accuracy range;
// theta = 0 forces the walk to open every cell (exact direct summation).
func buildTree(pos []vec.V, q []float64, theta float64) (*Tree, error) {
	if len(pos) == 0 {
		return nil, fmt.Errorf("treecode: empty particle set")
	}
	if len(pos) != len(q) {
		return nil, fmt.Errorf("treecode: %d positions vs %d charges", len(pos), len(q))
	}
	if theta < 0 || theta > 2 {
		return nil, fmt.Errorf("treecode: theta %g outside [0, 2]", theta)
	}
	// Bounding cube.
	lo, hi := pos[0], pos[0]
	for _, p := range pos {
		lo = vec.New(math.Min(lo.X, p.X), math.Min(lo.Y, p.Y), math.Min(lo.Z, p.Z))
		hi = vec.New(math.Max(hi.X, p.X), math.Max(hi.Y, p.Y), math.Max(hi.Z, p.Z))
	}
	center := lo.Add(hi).Scale(0.5)
	half := math.Max(hi.X-lo.X, math.Max(hi.Y-lo.Y, hi.Z-lo.Z))/2 + 1e-9

	t := &Tree{Theta: theta, pos: pos, q: q}
	t.root = &node{center: center, half: half}
	for i := range pos {
		t.insert(t.root, i, 0)
	}
	t.computeMoments(t.root)
	return t, nil
}

const maxDepth = 48

// insert places particle i into the subtree rooted at n. Leaves hold one
// particle, except at maxDepth where they become buckets — the safety valve
// for coincident particles.
func (t *Tree) insert(n *node, i, depth int) {
	n.count++
	if n.count == 1 || depth >= maxDepth {
		n.particles = append(n.particles, i)
		return
	}
	if len(n.particles) > 0 {
		// Push the resident particle(s) down first.
		resident := n.particles
		n.particles = nil
		for _, r := range resident {
			t.insertChild(n, r, depth)
		}
	}
	t.insertChild(n, i, depth)
}

func (t *Tree) insertChild(n *node, i, depth int) {
	p := t.pos[i]
	oct := 0
	if p.X >= n.center.X {
		oct |= 1
	}
	if p.Y >= n.center.Y {
		oct |= 2
	}
	if p.Z >= n.center.Z {
		oct |= 4
	}
	if n.children[oct] == nil {
		h := n.half / 2
		off := vec.New(
			h*float64(2*(oct&1)-1),
			h*float64(2*((oct>>1)&1)-1),
			h*float64(2*((oct>>2)&1)-1),
		)
		n.children[oct] = &node{center: n.center.Add(off), half: h}
	}
	t.insert(n.children[oct], i, depth+1)
}

// computeMoments fills monopole and dipole moments bottom-up.
func (t *Tree) computeMoments(n *node) {
	if n == nil {
		return
	}
	if len(n.particles) > 0 {
		for _, pi := range n.particles {
			qi := t.q[pi]
			n.q += qi
			n.qCenter = n.qCenter.Add(t.pos[pi].Scale(qi))
			n.dipole = n.dipole.Add(t.pos[pi].Sub(n.center).Scale(qi))
		}
		return
	}
	for _, c := range n.children {
		if c == nil {
			continue
		}
		t.computeMoments(c)
		n.q += c.q
		n.qCenter = n.qCenter.Add(c.qCenter)
		// Shift the child dipole to this node's center:
		// d_parent = Σ q (r - C_p) = d_child + q_child (C_c - C_p).
		n.dipole = n.dipole.Add(c.dipole).Add(c.center.Sub(n.center).Scale(c.q))
	}
}

// ForceOn returns the Coulomb force on particle i (in eV/Å with charges in
// e), computed by the tree walk.
func (t *Tree) ForceOn(i int) vec.V {
	f := t.walk(t.root, i)
	return f.Scale(units.Coulomb * t.q[i])
}

// Forces returns the force on every particle and resets the interaction
// counters before accumulating them.
func (t *Tree) Forces() []vec.V {
	t.NodeInteractions = 0
	t.LeafInteractions = 0
	out := make([]vec.V, len(t.pos))
	for i := range out {
		out[i] = t.walk(t.root, i).Scale(units.Coulomb * t.q[i])
	}
	return out
}

// walk returns the field (force per unit source charge factor) at particle i
// from the subtree n.
func (t *Tree) walk(n *node, i int) vec.V {
	if n == nil || n.count == 0 {
		return vec.Zero
	}
	if len(n.particles) > 0 {
		var acc vec.V
		for _, pj := range n.particles {
			if pj == i {
				continue
			}
			t.LeafInteractions++
			r := t.pos[i].Sub(t.pos[pj])
			d2 := r.Norm2()
			if d2 == 0 {
				continue
			}
			d := math.Sqrt(d2)
			acc = acc.Add(r.Scale(t.q[pj] / (d2 * d)))
		}
		return acc
	}
	r := t.pos[i].Sub(n.center)
	d := r.Norm()
	if d > 0 && (2*n.half)/d < t.Theta {
		// Accepted: monopole + dipole field about the cell center.
		t.NodeInteractions++
		d2 := d * d
		d3 := d2 * d
		f := r.Scale(n.q / d3)
		// Dipole term: E = (3 (p·r̂) r̂ - p) / d³.
		pr := n.dipole.Dot(r) / d
		f = f.Add(r.Scale(3 * pr / (d3 * d)).Sub(n.dipole.Scale(1 / d3)))
		return f
	}
	var acc vec.V
	for _, c := range n.children {
		if c != nil {
			acc = acc.Add(t.walk(c, i))
		}
	}
	return acc
}

// directForces computes the exact open-boundary Coulomb forces by the O(N²) sum.
func directForces(pos []vec.V, q []float64) []vec.V {
	out := make([]vec.V, len(pos))
	for i := range pos {
		var acc vec.V
		for j := range pos {
			if j == i {
				continue
			}
			r := pos[i].Sub(pos[j])
			d2 := r.Norm2()
			if d2 == 0 {
				continue
			}
			d := math.Sqrt(d2)
			acc = acc.Add(r.Scale(q[j] / (d2 * d)))
		}
		out[i] = acc.Scale(units.Coulomb * q[i])
	}
	return out
}

// Depth returns the maximum depth of the built tree (diagnostics).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n == nil {
		return 0
	}
	best := 0
	for _, c := range n.children {
		if d := depth(c); d > best {
			best = d
		}
	}
	return best + 1
}
