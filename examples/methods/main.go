// Methods: the §6.3 comparison — "One of the purpose of our hardware is to
// investigate the accuracy and speed of the Ewald summation compared with
// other fast methods." This example evaluates the Coulomb problem four ways
// on the same configuration and reports accuracy and operation counts:
//
//  1. direct Ewald summation in float64 (the reference — what MDM computes),
//  2. the WINE-2 fixed-point pipelines (hardware accuracy ~1e-4.5),
//  3. smooth particle-mesh Ewald (the O(N log N) mesh method, ref. [4]),
//  4. Barnes–Hut tree code on the open-boundary problem (refs. [2], [18]).
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"mdm/internal/ewald"
	"mdm/internal/pme"
	"mdm/internal/vec"
	"mdm/internal/wine2"
)

const (
	n     = 512
	l     = 20.0
	alpha = 8.0
)

func main() {
	rng := rand.New(rand.NewSource(9))
	pos := make([]vec.V, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*l, rng.Float64()*l, rng.Float64()*l)
		q[i] = float64(1 - 2*(i%2))
	}
	p := ewald.Params{L: l, Alpha: alpha, RCut: 0.45 * l, LKCut: alpha * ewald.SWave / math.Pi}
	waves := ewald.Waves(p)

	// 1. Reference: direct structure-factor sums.
	t0 := time.Now()
	sn, cn := ewald.StructureFactors(waves, pos, q)
	ref := ewald.WavenumberForces(p, waves, sn, cn, pos, q)
	tRef := time.Since(t0)
	fscale := vec.RMS(ref)
	fmt.Printf("N = %d, %d wavevectors, reference RMS F(wn) = %.4f eV/Å\n\n", n, len(waves), fscale)
	fmt.Printf("%-28s %12s %12s %s\n", "method", "worst err", "rms err", "time")
	fmt.Printf("%-28s %12s %12s %v\n", "direct Ewald (float64)", "-", "-", tRef)

	// 2. WINE-2 pipelines.
	wsys, err := wine2.NewSystem(wine2.CurrentConfig())
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	hs, hc, err := wsys.DFT(l, waves, pos, q)
	if err != nil {
		log.Fatal(err)
	}
	hw, err := wsys.IDFT(l, waves, hs, hc, pos, q)
	if err != nil {
		log.Fatal(err)
	}
	report("WINE-2 (fixed point)", hw, ref, fscale, time.Since(t0))

	// 3. Smooth particle-mesh Ewald.
	mesh, err := pme.ParamsFor(p, 4)
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	res, err := mesh.Compute(pos, q)
	if err != nil {
		log.Fatal(err)
	}
	report(fmt.Sprintf("PME (K=%d, order 4)", mesh.K), res.Forces, ref, fscale, time.Since(t0))

	// 4. Tree code on the open-boundary problem (different physics: no
	// periodic images), compared against the exact open-boundary sum.
	fmt.Println("\nopen-boundary Coulomb (tree code vs direct O(N²)):")
	t0 = time.Now()
	direct := directForces(pos, q)
	tDirect := time.Since(t0)
	dscale := vec.RMS(direct)
	for _, theta := range []float64{0.8, 0.4} {
		tr, err := buildTree(pos, q, theta)
		if err != nil {
			log.Fatal(err)
		}
		t0 = time.Now()
		f := tr.Forces()
		report(fmt.Sprintf("Barnes-Hut θ=%.1f", theta), f, direct, dscale, time.Since(t0))
		fmt.Printf("%-28s %d node + %d leaf interactions (direct: %d pairs in %v)\n",
			"", tr.NodeInteractions, tr.LeafInteractions, n*(n-1), tDirect)
	}
}

func report(name string, got, want []vec.V, scale float64, dt time.Duration) {
	worst, rms := 0.0, 0.0
	for i := range got {
		d := got[i].Sub(want[i]).Norm() / scale
		if d > worst {
			worst = d
		}
		rms += d * d
	}
	rms = math.Sqrt(rms / float64(len(got)))
	fmt.Printf("%-28s %12.2e %12.2e %v\n", name, worst, rms, dt)
}
