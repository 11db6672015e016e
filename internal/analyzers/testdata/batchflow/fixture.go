// Fixtures for a hot path behind an adapter: the stepflow fact must propagate
// from a driver root through interface dispatch into an adapter that swaps
// state around the evaluator it wraps, the way md.Integrator.Step reaches
// ParallelRun.Forces through core.Resilient — otherwise the determinism analyzers
// would silently skip everything behind the ForceField seam.
package fixture

// state is one slot's trajectory-dependent scratch.
type state struct{ xs []float64 }

// field is the dispatch seam, shaped like md.ForceField.
type field interface {
	forces(n int) []float64
}

// machine is the shared evaluator every slot runs through.
type machine struct{ cur state }

// swapField adapts one slot to field: adopt the slot state, delegate to the
// shared machine, stash the state back.
type swapField struct {
	m     *machine
	slots []state
	i     int
}

func (f swapField) forces(n int) []float64 {
	f.m.cur = f.slots[f.i]
	out := f.m.eval(n)
	f.slots[f.i] = f.m.cur
	return out
}

// eval allocates per call; it is hot only because the root reaches it through
// the interface fan-out and the swap adapter.
func (m *machine) eval(n int) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		out = append(out, float64(i)) // want `append in a loop in hot-path function eval grows its slice per step`
	}
	return out
}

// stepBatch is the per-step driver.
//
//mdm:stepflow -- fixture: driver root
func stepBatch(ff field, k int) {
	for i := 0; i < k; i++ {
		_ = ff.forces(k)
	}
}

// coldEval is the same growing-append pattern off the hot path — must stay
// quiet.
func coldEval(n int) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		out = append(out, float64(i))
	}
	return out
}
