// Package soa provides structure-of-arrays particle storage for the
// step-critical kernels. The MDM's pipelines stream particle data from flat
// banked memories — j-particle memory on MDGRAPE-2 (§3.3), coordinate words
// on WINE-2 (§3.2) — one coordinate plane per bank, never as interleaved
// structs. The software reproduction mirrors that layout on the hot path:
// three contiguous float64 planes (plus an optional float32 mirror feeding
// the single-precision pipelines), converted to and from the []vec.V
// array-of-structs form only at the public md/mdm API boundary.
//
// Conversions are pure data movement: loading X[i] from a plane yields the
// same float64 the AoS form holds in Pos[i].X, so every kernel refactored
// onto planes stays bit-identical to its AoS ancestor.
package soa

import "mdm/internal/vec"

// Coords is one particle block in structure-of-arrays form: three equal-
// length coordinate planes.
type Coords struct {
	X, Y, Z []float64
}

// Make returns planes of length n, carved from one backing slab (one bank
// allocation per block, as the hardware commits one SDRAM region). The
// three-index slices cap each plane at its own length, so a plane can never
// grow into its neighbor and Resize's capacity check stays sound.
func Make(n int) Coords {
	s := make([]float64, 3*n)
	return Coords{X: s[0:n:n], Y: s[n : 2*n : 2*n], Z: s[2*n : 3*n : 3*n]}
}

// Len returns the plane length.
func (c Coords) Len() int { return len(c.X) }

// Resize returns planes of length n, reusing c's backing arrays when they
// are large enough (the amortized step-path contract: no steady-state
// allocation once capacity has been reached).
func (c Coords) Resize(n int) Coords {
	if cap(c.X) >= n {
		return Coords{X: c.X[:n], Y: c.Y[:n], Z: c.Z[:n]}
	}
	return Make(n)
}

// At gathers element i into a vector.
func (c Coords) At(i int) vec.V { return vec.V{X: c.X[i], Y: c.Y[i], Z: c.Z[i]} }

// Set scatters v into element i.
func (c Coords) Set(i int, v vec.V) {
	c.X[i] = v.X
	c.Y[i] = v.Y
	c.Z[i] = v.Z
}

// AppendAoS gathers the planes into dst (reused when large enough) and
// returns it in array-of-structs form.
func (c Coords) AppendAoS(dst []vec.V) []vec.V {
	n := c.Len()
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]vec.V, n)
	}
	for i := range dst {
		dst[i] = vec.V{X: c.X[i], Y: c.Y[i], Z: c.Z[i]}
	}
	return dst
}

// Zero clears the planes.
func (c Coords) Zero() {
	for i := range c.X {
		c.X[i] = 0
		c.Y[i] = 0
		c.Z[i] = 0
	}
}

// Coords32 is the float32 mirror of a Coords block — the j-particle image the
// single-precision pipelines read. Each element is float32(plane[i]), the
// same conversion the pair sweep previously performed per pair, hoisted to
// one conversion per particle per rebuild.
type Coords32 struct {
	X, Y, Z []float32
}

// Resize returns float32 planes of length n, reusing backing arrays when
// large enough; fresh planes are carved from one slab like Make's.
func (c Coords32) Resize(n int) Coords32 {
	if cap(c.X) >= n {
		return Coords32{X: c.X[:n], Y: c.Y[:n], Z: c.Z[:n]}
	}
	s := make([]float32, 3*n)
	return Coords32{X: s[0:n:n], Y: s[n : 2*n : 2*n], Z: s[2*n : 3*n : 3*n]}
}

// Set narrows v into element i.
func (c Coords32) Set(i int, v vec.V) {
	c.X[i] = float32(v.X)
	c.Y[i] = float32(v.Y)
	c.Z[i] = float32(v.Z)
}

// Frame is a full SoA particle block: coordinate planes plus the per-particle
// charge and species slices the force field reads alongside them.
type Frame struct {
	Pos     Coords
	Charge  []float64
	Species []int
}
