// Melt: the molten-salt workload of the paper's §5 at laptop scale — heat a
// NaCl crystal past its melting point and watch it lose crystalline order
// (the radial distribution function's first peak broadens) and start to
// diffuse. Figure 2's temperature fluctuation is a row of cmd/mdmpaper.
package main

import (
	"fmt"
	"log"

	"mdm"
	"mdm/internal/analysis"
)

func main() {
	fmt.Println("== molten NaCl (scaled-down §5 run) ==")

	// A crystal at low temperature vs the same box driven to the melt.
	for _, tK := range []float64{300, 1800} {
		sim, err := mdm.NewSimulation(mdm.Config{
			Cells:       2,
			Temperature: tK,
			Backend:     mdm.BackendReference, // float64 path: fastest for the demo
			Seed:        7,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.RunNVT(150); err != nil {
			log.Fatal(err)
		}
		// RDF and mean-squared displacement over the last configurations.
		rdf, err := analysis.NewRDF(sim.System.L, sim.System.L/2*0.99, 60)
		if err != nil {
			log.Fatal(err)
		}
		msd := analysis.NewMSD(sim.System.L, sim.System.Pos)
		var times, msds []float64
		for k := 0; k < 10; k++ {
			if err := sim.RunNVT(5); err != nil {
				log.Fatal(err)
			}
			rdf.AddFrame(sim.System.Pos, sim.System.Pos)
			times = append(times, float64(5*(k+1))*2) // fs
			msds = append(msds, msd.Update(sim.System.Pos))
		}
		rs, g := rdf.Curve()
		pos, height := analysis.FirstPeak(rs, g, 1.5)
		d, _, err := analysis.DiffusionCoefficient(times, msds)
		if err != nil {
			log.Fatal(err)
		}
		// Å²/fs → cm²/s: ×1e-16 cm²/Å² ÷ 1e-15 s/fs = ×0.1.
		fmt.Printf("T = %4.0f K: first g(r) peak at %.2f Å, height %.2f, D ≈ %.1e cm²/s",
			tK, pos, height, d*0.1)
		if height > 2.5 {
			fmt.Println("  (sharp: solid-like order)")
		} else {
			fmt.Println("  (broad: liquid-like)")
		}
		_ = sim.Free()
	}
}
