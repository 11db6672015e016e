//go:build race

package mdm

// raceDetectorEnabled reports whether this test binary was built with the
// race detector. TestJournaledStepAllocs skips under race: the detector's
// instrumentation allocates per goroutine handoff, so the count it pins is
// only meaningful in an uninstrumented build.
const raceDetectorEnabled = true
