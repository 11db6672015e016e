package soa

import (
	"math"
	"testing"

	"mdm/internal/vec"
)

func TestRoundTripBitIdentical(t *testing.T) {
	pos := make([]vec.V, 37)
	for i := range pos {
		// Irrational-ish values exercise every mantissa bit.
		pos[i] = vec.New(math.Sqrt(float64(i)+2), -math.Pi*float64(i), 1/float64(i+3))
	}
	var c Coords
	c = c.FromAoS(pos)
	if c.Len() != len(pos) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(pos))
	}
	back := c.AppendAoS(nil)
	for i := range pos {
		if back[i] != pos[i] {
			t.Fatalf("round trip changed element %d: %v != %v", i, back[i], pos[i])
		}
		if c.At(i) != pos[i] {
			t.Fatalf("At(%d) = %v, want %v", i, c.At(i), pos[i])
		}
	}
}

func TestResizeReusesBacking(t *testing.T) {
	c := Make(64)
	x0 := &c.X[0]
	c = c.Resize(32)
	if &c.X[0] != x0 {
		t.Fatal("Resize to a smaller length reallocated")
	}
	c = c.Resize(64)
	if &c.X[0] != x0 {
		t.Fatal("Resize within capacity reallocated")
	}
	if got := c.Resize(65); got.Len() != 65 {
		t.Fatalf("grow length = %d, want 65", got.Len())
	}
}

func TestCoords32MirrorsNarrowing(t *testing.T) {
	var c32 Coords32
	c32 = c32.Resize(3)
	v := vec.New(1.0000000001, -math.Pi, 1e-40)
	c32.Set(1, v)
	if c32.X[1] != float32(v.X) || c32.Y[1] != float32(v.Y) || c32.Z[1] != float32(v.Z) {
		t.Fatal("float32 mirror differs from per-element float32() conversion")
	}
}

func TestFrameFromAoS(t *testing.T) {
	pos := []vec.V{vec.New(1, 2, 3), vec.New(4, 5, 6)}
	q := []float64{1, -1}
	sp := []int{0, 1}
	var f Frame
	f = f.FromAoS(pos, q, sp)
	if f.Pos.At(1) != pos[1] || f.Charge[0] != 1 || f.Species[1] != 1 {
		t.Fatal("Frame conversion lost data")
	}
	// Mutating the frame must not alias the source.
	f.Charge[0] = 7
	if q[0] != 1 {
		t.Fatal("Frame aliases the source charge slice")
	}
}

// FromAoS scatters an array-of-structs block into planes, growing them as
// needed, and returns the (possibly reallocated) planes.
func (c Coords) FromAoS(pos []vec.V) Coords {
	c = c.Resize(len(pos))
	for i, p := range pos {
		c.X[i] = p.X
		c.Y[i] = p.Y
		c.Z[i] = p.Z
	}
	return c
}

// FromAoS converts an AoS particle block (positions, charges, species) into
// a Frame, reusing f's storage.
func (f Frame) FromAoS(pos []vec.V, charge []float64, species []int) Frame {
	f.Pos = f.Pos.FromAoS(pos)
	if cap(f.Charge) >= len(charge) {
		f.Charge = f.Charge[:len(charge)]
	} else {
		f.Charge = make([]float64, len(charge))
	}
	copy(f.Charge, charge)
	if cap(f.Species) >= len(species) {
		f.Species = f.Species[:len(species)]
	} else {
		f.Species = make([]int, len(species))
	}
	copy(f.Species, species)
	return f
}
