// Fixtures for the hotalloc analyzer: per-step allocation patterns (growing
// append, Sprintf, string concatenation, capturing go closures, capturing
// pool Run bodies) in stepflow code undo the zero-allocation step.
// Preallocated loops, error paths, bound method values, self-contained
// literals and cold functions stay quiet.
package fixture

import (
	"fmt"

	"mdm/internal/parallelize"
)

// step is the fixture's hot-path root; everything it reaches is stepflow.
//
//mdm:stepflow -- fixture: hot-path root
func step(xs []float64, names []string) string {
	grow(xs)
	prealloc(xs)
	appendOnce(xs)
	launch(xs)
	reviewedLaunch(xs)
	_ = fail(3)
	_ = label(1)
	sc := newScaler(xs)
	_ = sc.scale(2)
	_ = sc.scaleCapturing(2)
	_ = sc.scaleStatic()
	return join(names)
}

// scaler scales its slice in place over a pool.
type scaler struct {
	pool   *parallelize.Pool
	xs     []float64
	by     float64
	chunkf func(chunk, lo, hi int) error // chunk, bound once
	namef  func(chunk, lo, hi int) error // name, bound once
	names  []string
}

func newScaler(xs []float64) *scaler {
	s := &scaler{pool: parallelize.New(2), xs: xs, names: make([]string, len(xs))}
	s.chunkf, s.namef = s.chunk, s.name
	return s
}

// name is a chunk body the step reaches only through the field it is bound
// to: the callgraph follows the binding, so its Sprintf is found.
func (s *scaler) name(_, lo, hi int) error {
	for i := lo; i < hi; i++ {
		s.names[i] = fmt.Sprintf("x%d", i) // want `fmt.Sprintf in hot-path function name allocates on every call`
	}
	return nil
}

func (s *scaler) chunk(_, lo, hi int) error {
	for i := lo; i < hi; i++ {
		s.xs[i] *= s.by
	}
	return nil
}

// scale hands Run the method value bound once, its argument in a field — the
// sanctioned pattern.
func (s *scaler) scale(by float64) error {
	s.by = by
	if err := s.pool.Run(len(s.xs), s.chunkf); err != nil {
		return err
	}
	return s.pool.Run(len(s.xs), s.namef)
}

// scaleCapturing hands Run a closure over its receiver and argument.
func (s *scaler) scaleCapturing(by float64) error {
	return s.pool.Run(len(s.xs), func(_, lo, hi int) error { // want `pool Run in hot-path function scaleCapturing is handed a closure capturing s`
		for i := lo; i < hi; i++ {
			s.xs[i] *= by
		}
		return nil
	})
}

// scaleStatic hands Run a literal that captures nothing: a static funcval,
// no allocation.
func (s *scaler) scaleStatic() error {
	return s.pool.Run(4, func(_, lo, hi int) error { return nil })
}

// grow appends inside a loop — the growing-slice pattern.
func grow(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, x*2) // want `append in a loop in hot-path function grow grows its slice per step`
	}
	return out
}

// prealloc sizes the output up front and indexes — the sanctioned pattern.
func prealloc(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * 2
	}
	return out
}

// appendOnce appends outside any loop; a one-shot append is amortized by the
// caller and not flagged.
func appendOnce(xs []float64) []float64 {
	return append(xs, 1)
}

// label formats on the step path.
func label(n int) string {
	return fmt.Sprintf("step %d", n) // want `fmt.Sprintf in hot-path function label allocates on every call`
}

// join concatenates strings in a loop.
func join(names []string) string {
	s := ""
	for _, n := range names {
		s = s + n // want `string concatenation in hot-path function join allocates on every call`
	}
	return s
}

// fail builds an error — fmt.Errorf is exempt, error paths run on failure.
func fail(n int) error {
	return fmt.Errorf("step %d failed", n)
}

// launch starts a goroutine whose closure captures outer state.
func launch(xs []float64) {
	done := make(chan struct{})
	go func() { // want `go statement in hot-path function launch captures xs`
		_ = xs[0]
		close(done)
	}()
	<-done
}

// reviewedLaunch carries a justified suppression on the same pattern.
func reviewedLaunch(xs []float64) {
	done := make(chan struct{})
	//mdm:hotallocok -- fixture: one launch per call, joined immediately below
	go func() {
		_ = xs[0]
		close(done)
	}()
	<-done
}

// coldGrow is the offending pattern off the hot path — must not fire.
func coldGrow(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}
