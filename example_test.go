package mdm_test

import (
	"fmt"
	"log"

	"mdm"
)

// The minimal §5 protocol: build a crystal, thermostat it, free-run it, and
// read the observables.
func ExampleNewSimulation() {
	sim, err := mdm.NewSimulation(mdm.Config{
		Cells:       1,
		Temperature: 300,
		Dt:          1,
		Backend:     mdm.BackendReference,
		Seed:        2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = sim.Free() }()
	if err := sim.RunNVT(5); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d NaCl ions in a %.2f Å box\n", sim.N(), sim.System.L)
	fmt.Printf("thermostatted to %.0f K\n", sim.System.Temperature())
	// Output:
	// 8 NaCl ions in a 5.64 Å box
	// thermostatted to 300 K
}
