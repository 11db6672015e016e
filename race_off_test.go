//go:build !race

package mdm

const raceDetectorEnabled = false
