// Command mdmaccuracy judges the simulated machine stage by stage against
// float64 over its own pair set and wave set (core.MeasureAccuracy): the
// accuracy claims of §3.4.4 (WINE-2: relative F(wn) error ≈ 10^-4.5) and
// §3.5.4 (MDGRAPE-2: ≈ 10^-7 per pair; a whole force sums many pairs). Each
// trial is a different thermal snapshot off the rock-salt lattice, measured
// at mdm's default α and at α = 14, where the wavenumber sum carries the force
// (at 2 cells a side α = 14 puts r_cut under the ion spacing: the real stage
// is empty and reads 0). The truncation column is the discretization's own
// error: the float64 sum over the machine's pair and wave sets against a
// converged Ewald of the same α.
//
//	mdmaccuracy -cells 3 -trials 3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mdm"
	"mdm/internal/core"
	"mdm/internal/md"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command; it returns the exit status: 2 for usage, 1 for a
// failed measurement.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdmaccuracy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cells := fs.Int("cells", 3, "rock-salt cells per side (≥ 1)")
	trials := fs.Int("trials", 3, "independent thermal snapshots (≥ 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cells < 1 || *trials < 1 {
		fmt.Fprintf(stderr, "usage: mdmaccuracy [-cells n] [-trials n], both ≥ 1; got -cells %d -trials %d\n", *cells, *trials)
		return 2
	}
	fmt.Fprintf(stdout, "machine vs float64 over its own pair and wave sets, %d ions: RMS |ΔF| / RMS F per stage, |ΔU|/|U|;\n", 8**cells**cells**cells)
	fmt.Fprintf(stdout, "truncation is float64 over those sets vs a converged Ewald (r_cut = L, 1.7·Lk_cut), not a pipeline error\n\n")
	fmt.Fprintf(stdout, "%5s %6s %10s %10s %10s %10s %10s\n", "trial", "alpha", "real", "wave", "total", "potential", "truncation")
	for trial := 1; trial <= *trials; trial++ {
		s, _ := md.NewRockSalt(*cells, 5.64) // refuses only cells < 1
		s.SetMaxwellVelocities(1200, int64(trial))
		for i, v := range s.Vel { // 20 fs of free flight: ~0.12 Å off the lattice per axis
			s.Pos[i] = s.Pos[i].Add(v.Scale(20)).Wrap(s.L)
		}
		for _, alpha := range []float64{0, 14} {
			p, err := mdm.Config{Cells: *cells, Alpha: alpha}.EwaldParams()
			var acc core.Accuracy
			if err == nil {
				acc, err = core.MeasureAccuracy(core.CurrentMachineConfig(p), s)
			}
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "%5d %6.2f %10.2e %10.2e %10.2e %10.2e %10.2e\n",
				trial, p.Alpha, acc.Real.RMS, acc.Wave.RMS, acc.Total.RMS, acc.Potential, acc.Truncation.RMS)
		}
	}
	fmt.Fprintln(stdout, "\npaper: WINE-2 ~10^-4.5 (§3.4.4); MDGRAPE-2 ~10^-7 per pair (§3.5.4, TestPairwiseAccuracy)")
	return 0
}
