// Package vec provides the 3-component vector arithmetic used throughout the
// MDM reproduction: particle positions, velocities, forces and wavenumber
// vectors are all vec.V values.
//
// The package also implements the periodic-boundary helpers (wrapping into
// the computational box and the minimum-image convention) that the Ewald
// real-space sum and the cell-index method rely on.
package vec

import (
	"fmt"
	"math"
)

// V is a 3-component vector of float64.
type V struct {
	X, Y, Z float64
}

// Zero is the zero vector.
var Zero = V{}

// New returns the vector (x, y, z).
func New(x, y, z float64) V { return V{x, y, z} }

// Add returns a + b.
func (a V) Add(b V) V { return V{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a V) Sub(b V) V { return V{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns s * a. Each product is rounded on its own (the explicit
// conversion forbids fusing it into a caller's sum, e.g. Add(Scale(…))).
func (a V) Scale(s float64) V { return V{float64(s * a.X), float64(s * a.Y), float64(s * a.Z)} }

// Neg returns -a.
func (a V) Neg() V { return V{-a.X, -a.Y, -a.Z} }

// Dot returns the inner product a . b, each product rounded before the sum.
func (a V) Dot(b V) float64 { return float64(a.X*b.X) + float64(a.Y*b.Y) + float64(a.Z*b.Z) }

// Cross returns the cross product a x b, each product rounded before the
// difference.
func (a V) Cross(b V) V {
	return V{
		float64(a.Y*b.Z) - float64(a.Z*b.Y),
		float64(a.Z*b.X) - float64(a.X*b.Z),
		float64(a.X*b.Y) - float64(a.Y*b.X),
	}
}

// Norm2 returns |a|^2.
func (a V) Norm2() float64 { return a.Dot(a) }

// Norm returns |a|.
func (a V) Norm() float64 { return math.Sqrt(a.Norm2()) }

// Mul returns the component-wise product of a and b.
func (a V) Mul(b V) V { return V{a.X * b.X, a.Y * b.Y, a.Z * b.Z} }

// Component returns the i-th component (0=X, 1=Y, 2=Z).
// It panics if i is outside [0, 2].
func (a V) Component(i int) float64 {
	switch i {
	case 0:
		return a.X
	case 1:
		return a.Y
	case 2:
		return a.Z
	}
	panic(fmt.Sprintf("vec: component index %d out of range", i))
}

// String implements fmt.Stringer.
func (a V) String() string { return fmt.Sprintf("(%g, %g, %g)", a.X, a.Y, a.Z) }

// IsFinite reports whether all components are finite (no NaN or Inf).
func (a V) IsFinite() bool {
	return !math.IsNaN(a.X) && !math.IsInf(a.X, 0) &&
		!math.IsNaN(a.Y) && !math.IsInf(a.Y, 0) &&
		!math.IsNaN(a.Z) && !math.IsInf(a.Z, 0)
}

// Wrap maps a into the periodic box [0, l) in each dimension.
// l must be positive.
func (a V) Wrap(l float64) V {
	return V{wrap1(a.X, l), wrap1(a.Y, l), wrap1(a.Z, l)}
}

func wrap1(x, l float64) float64 {
	x -= float64(l * math.Floor(x/l))
	// Guard against x == l from floating-point rounding when x was a tiny
	// negative number: Floor(-eps/l) = -1 gives x = l - eps which can round
	// to exactly l.
	if x >= l {
		x -= l
	}
	return x
}

// MinImage returns the minimum-image displacement of a in a cubic periodic
// box with side l: each component is shifted by a multiple of l into
// [-l/2, l/2).
func (a V) MinImage(l float64) V {
	return V{minImage1(a.X, l), minImage1(a.Y, l), minImage1(a.Z, l)}
}

func minImage1(x, l float64) float64 {
	x -= float64(l * math.Round(x/l))
	if x < -l/2 {
		x += l
	} else if x >= l/2 {
		x -= l
	}
	return x
}

// Dist returns the Euclidean distance |a-b|.
func Dist(a, b V) float64 { return a.Sub(b).Norm() }

// DistPeriodic returns the minimum-image distance between a and b in a cubic
// box with side l.
func DistPeriodic(a, b V, l float64) float64 { return a.Sub(b).MinImage(l).Norm() }

// Sum returns the sum of all vectors in vs.
func Sum(vs []V) V {
	var s V
	for _, v := range vs {
		s = s.Add(v)
	}
	return s
}

// MaxNorm returns the largest |v| over vs, or 0 for an empty slice.
func MaxNorm(vs []V) float64 {
	m := 0.0
	for _, v := range vs {
		if n := v.Norm(); n > m {
			m = n
		}
	}
	return m
}

// RMS returns the root-mean-square magnitude of vs, or 0 for an empty slice.
func RMS(vs []V) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v.Norm2()
	}
	return math.Sqrt(s / float64(len(vs)))
}

// RelRMSDiff returns the RMS magnitude of got − want relative to the RMS
// magnitude of want — the relative RMS force error of one force set against a
// reference. The slices must have the same length.
func RelRMSDiff(got, want []V) float64 {
	s := 0.0
	for i, w := range want {
		s += got[i].Sub(w).Norm2()
	}
	return math.Sqrt(s/float64(len(want))) / RMS(want)
}
