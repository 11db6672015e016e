package vec

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func close(a, b float64) bool { return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b)) }

func vclose(a, b V) bool { return close(a.X, b.X) && close(a.Y, b.Y) && close(a.Z, b.Z) }

func TestAddSub(t *testing.T) {
	a := New(1, 2, 3)
	b := New(-4, 5, 0.5)
	if got := a.Add(b); !vclose(got, New(-3, 7, 3.5)) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); !vclose(got, New(5, -3, 2.5)) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Sub(a); !vclose(got, Zero) {
		t.Errorf("a-a = %v, want zero", got)
	}
}

func TestScaleNeg(t *testing.T) {
	a := New(1, -2, 3)
	if got := a.Scale(2); !vclose(got, New(2, -4, 6)) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Neg(); !vclose(got, a.Scale(-1)) {
		t.Errorf("Neg = %v", got)
	}
}

func TestDotCross(t *testing.T) {
	x := New(1, 0, 0)
	y := New(0, 1, 0)
	z := New(0, 0, 1)
	if got := x.Dot(y); got != 0 {
		t.Errorf("x.y = %g", got)
	}
	if got := x.Cross(y); !vclose(got, z) {
		t.Errorf("x cross y = %v, want z", got)
	}
	if got := y.Cross(x); !vclose(got, z.Neg()) {
		t.Errorf("y cross x = %v, want -z", got)
	}
	a := New(2, 3, 4)
	if got := a.Cross(a); !vclose(got, Zero) {
		t.Errorf("a cross a = %v", got)
	}
}

func TestNorm(t *testing.T) {
	a := New(3, 4, 0)
	if got := a.Norm(); !close(got, 5) {
		t.Errorf("Norm = %g", got)
	}
	if got := a.Norm2(); !close(got, 25) {
		t.Errorf("Norm2 = %g", got)
	}
}

func TestComponent(t *testing.T) {
	a := New(7, 8, 9)
	for i, want := range []float64{7, 8, 9} {
		if got := a.Component(i); got != want {
			t.Errorf("Component(%d) = %g, want %g", i, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Component(3) did not panic")
		}
	}()
	a.Component(3)
}

func TestWrapBasics(t *testing.T) {
	l := 10.0
	cases := []struct{ in, want V }{
		{New(1, 2, 3), New(1, 2, 3)},
		{New(11, -2, 3), New(1, 8, 3)},
		{New(-0.5, 25, 10), New(9.5, 5, 0)},
		{New(0, 0, 0), New(0, 0, 0)},
	}
	for _, c := range cases {
		if got := c.in.Wrap(l); !vclose(got, c.want) {
			t.Errorf("Wrap(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWrapTinyNegative(t *testing.T) {
	l := 850.0
	got := New(-1e-300, 0, 0).Wrap(l)
	if got.X < 0 || got.X >= l {
		t.Errorf("Wrap(-1e-300) = %g, outside [0,%g)", got.X, l)
	}
}

func TestMinImageBasics(t *testing.T) {
	l := 10.0
	cases := []struct{ in, want V }{
		{New(1, 2, 3), New(1, 2, 3)},
		{New(6, -6, 0), New(-4, 4, 0)},
		{New(15, -15, 5), New(-5, -5, -5)}, // 5 maps to -5 (half-open interval)
	}
	for _, c := range cases {
		if got := c.in.MinImage(l); !vclose(got, c.want) {
			t.Errorf("MinImage(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIsFinite(t *testing.T) {
	if !New(1, 2, 3).IsFinite() {
		t.Error("finite vector reported as non-finite")
	}
	if New(math.NaN(), 0, 0).IsFinite() {
		t.Error("NaN vector reported as finite")
	}
	if New(0, math.Inf(1), 0).IsFinite() {
		t.Error("Inf vector reported as finite")
	}
}

func TestSumRMSMaxNorm(t *testing.T) {
	vs := []V{New(1, 0, 0), New(0, 2, 0), New(0, 0, 2)}
	if got := Sum(vs); !vclose(got, New(1, 2, 2)) {
		t.Errorf("Sum = %v", got)
	}
	if got := MaxNorm(vs); !close(got, 2) {
		t.Errorf("MaxNorm = %g", got)
	}
	if got := RMS(vs); !close(got, math.Sqrt(3)) {
		t.Errorf("RMS = %g", got)
	}
	if got := RMS(nil); got != 0 {
		t.Errorf("RMS(nil) = %g", got)
	}
	off := []V{New(1, 0, 0), New(0, 2, 0), New(0, 1, 2)} // one component off by 1
	if got := RelRMSDiff(off, vs); !close(got, 1.0/3) {
		t.Errorf("RelRMSDiff = %g", got)
	}
	if got := MaxNorm(nil); got != 0 {
		t.Errorf("MaxNorm(nil) = %g", got)
	}
}

// Property: Wrap always lands in [0, l) and preserves the value modulo l.
func TestWrapProperty(t *testing.T) {
	f := func(x, y, z float64) bool {
		v := New(clamp(x), clamp(y), clamp(z))
		l := 17.0
		w := v.Wrap(l)
		in := w.X >= 0 && w.X < l && w.Y >= 0 && w.Y < l && w.Z >= 0 && w.Z < l
		// difference must be an integer multiple of l (within rounding)
		kx := (v.X - w.X) / l
		mod := math.Abs(kx-math.Round(kx)) < 1e-9
		return in && mod
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MinImage lands in [-l/2, l/2) and distance is symmetric.
func TestMinImageProperty(t *testing.T) {
	f := func(x, y, z float64) bool {
		v := New(clamp(x), clamp(y), clamp(z))
		l := 11.0
		m := v.MinImage(l)
		in := m.X >= -l/2 && m.X < l/2 && m.Y >= -l/2 && m.Y < l/2 && m.Z >= -l/2 && m.Z < l/2
		sym := close(v.MinImage(l).Norm(), v.Neg().MinImage(l).Norm())
		return in && sym
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: dot product is bilinear and the norm matches Dot.
func TestDotProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, s float64) bool {
		a := New(clamp(ax), clamp(ay), clamp(az))
		b := New(clamp(bx), clamp(by), clamp(bz))
		s = clamp(s)
		lhs := a.Scale(s).Dot(b)
		rhs := s * a.Dot(b)
		return math.Abs(lhs-rhs) <= 1e-6*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a x b is orthogonal to both a and b.
func TestCrossOrthogonality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := New(clamp(ax), clamp(ay), clamp(az))
		b := New(clamp(bx), clamp(by), clamp(bz))
		c := a.Cross(b)
		scale := 1 + a.Norm()*b.Norm()
		return math.Abs(c.Dot(a))/scale < 1e-8 && math.Abs(c.Dot(b))/scale < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clamp maps arbitrary quick-generated floats into a sane finite range so the
// properties test numerics rather than overflow behaviour.
func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return math.Mod(x, 1e6)
}

func BenchmarkMinImage(b *testing.B) {
	v := New(123.4, -567.8, 901.2)
	var sink V
	for i := 0; i < b.N; i++ {
		sink = v.MinImage(850)
	}
	_ = sink
}
