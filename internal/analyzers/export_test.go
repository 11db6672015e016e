package analyzers

import "mdm/internal/analyzers/load"

// RunPackage runs the analyzers over one loaded package without module-wide
// facts: the per-package analyzers behave as always and the fact-aware ones
// (wallclock, hotalloc) stay silent.
func RunPackage(pkg *load.Package, analyzers []*Analyzer) []Diagnostic {
	return RunPackageFacts(pkg, analyzers, nil)
}

// StepFlowName reports whether the function with the given FullName is on
// the simulation hot path.
func (f *Facts) StepFlowName(name string) bool {
	return f != nil && f.stepflow[name]
}

// Roots returns the annotated root function names, sorted.
func (f *Facts) Roots() []string {
	if f == nil {
		return nil
	}
	return append([]string(nil), f.roots...)
}
