package core

import (
	"math"

	"mdm/internal/vec"
)

// skinClock is the Verlet-skin rebuild schedule of a force engine, serial or
// decomposed: the positions the j-set layout was last sorted from, the one
// test against them, and the rebuild / reuse counters JSetStats reports. The
// grid covers r_cut + skin, so a sorted layout (cellindex.Sorted) stays valid
// — refreshed, not re-sorted — until some particle has moved more than skin/2
// from where it was sorted. With skin = 0 every moved particle forces a
// rebuild. The zero clock has no reference and calls for a rebuild.
type skinClock struct {
	l     float64 // box side
	half2 float64 // (skin/2)²

	ref   []vec.V // positions at the last rebuild
	valid bool    // ref describes the engine's current layout

	rebuilds, reuses int
}

func newSkinClock(l, skin float64) skinClock {
	return skinClock{l: l, half2: (skin / 2) * (skin / 2)}
}

// due reports whether a force call on pos must rebuild the layout, and whether
// it does so from scratch — nothing to carry over from the last rebuild
// (first call, after invalidate, or a different particle count) — rather than
// because a particle has outrun the skin.
func (c *skinClock) due(pos []vec.V) (rebuild, scratch bool) {
	if !c.valid || len(c.ref) != len(pos) {
		return true, true
	}
	return maxDisp2(c.l, pos, c.ref) > c.half2, false
}

// advance books a layout update on pos, before the call's hardware runs: a
// rebuild makes pos the new reference. A failed call thus leaves the clock
// and the layout in agreement, and its retry at pos reuses the layout.
func (c *skinClock) advance(pos []vec.V, rebuilt bool) {
	if !rebuilt {
		c.reuses++
		return
	}
	if len(c.ref) != len(pos) {
		c.ref = make([]vec.V, len(pos))
	}
	copy(c.ref, pos)
	c.valid = true
	c.rebuilds++
}

// invalidate drops the reference, so the next call rebuilds from scratch
// whatever the displacements say: after an external position rewrite
// (checkpoint restore), which the minimum-image test cannot be trusted to
// catch — a particle moved by a near-multiple of the box looks stationary —
// and after a failed decomposed rebuild step, which may have half-applied a
// migration.
func (c *skinClock) invalidate() { c.valid = false }

// maxDisp2 returns the largest squared minimum-image displacement of any
// position from its reference.
func maxDisp2(l float64, pos, ref []vec.V) float64 {
	worst := 0.0
	for i := range pos {
		d := pos[i].Sub(ref[i])
		d.X -= float64(l * math.Round(d.X/l))
		d.Y -= float64(l * math.Round(d.Y/l))
		d.Z -= float64(l * math.Round(d.Z/l))
		if d2 := d.Norm2(); d2 > worst {
			worst = d2
		}
	}
	return worst
}
