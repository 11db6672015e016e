package mdm

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"mdm/internal/md"
	"mdm/internal/vec"
)

// Golden 50-step NVE trajectory hashes of the machine backend, pinning its
// numbers across every bit-identity knob: worker width, pipeline overlap and
// the structure-of-arrays step path. The real-space pair set is the r_cut
// sphere at every skin; a skin still has rows of its own, because it widens
// the cells and so changes the sweep's visit order and the stored coordinate
// words — rounding, not physics (TestSkinLeavesThePhysics). Config:
// Cells/Temperature=1200/Seed=1/Dt=2/BackendMDM/PotentialEvery=100,
// RunNVE(50). The skin 0.5 rows are the frozen-layout reuse step's
// (cellindex.Sorted.Refresh); a hash pins bits, not accuracy — that is
// TestSkinReuseStepsMatchRebuildSteps.
//
// If one of these ever changes, the step path's arithmetic changed: that is a
// physics regression (or an intentional discretization change that must
// re-capture the goldens and say so in the commit).
var goldenNVE = []struct {
	cells int
	skin  float64
	init  string // hash of all positions before the run
	final string // hash of positions then velocities after 50 NVE steps
}{
	{cells: 2, skin: 0, init: "b10ea6a48da85105", final: "0edcdd5dc0021e23"},
	{cells: 2, skin: 0.5, init: "b10ea6a48da85105", final: "9bccf1ed88c43ac1"},
	{cells: 3, skin: 0, init: "faf5142d2a2f554d", final: "8bf1fac726e34385"},
	{cells: 3, skin: 0.5, init: "faf5142d2a2f554d", final: "1eb6e18b562a9f80"},
}

// hashVecs folds vectors into an FNV-64a running hash, little-endian float64
// bits — stable across architectures for identical values.
func hashVecs(h interface{ Write([]byte) (int, error) }, vs []vec.V) {
	var buf [8]byte
	w := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	for _, v := range vs {
		w(v.X)
		w(v.Y)
		w(v.Z)
	}
}

func hashPos(s *md.System) string {
	h := fnv.New64a()
	hashVecs(h, s.Pos)
	return fmt.Sprintf("%016x", h.Sum64())
}

func hashState(s *md.System) string {
	h := fnv.New64a()
	hashVecs(h, s.Pos)
	hashVecs(h, s.Vel)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenNVEBitIdentity drives every bit-identity axis of the machine
// backend — SoA hot path vs the captured AoS goldens, worker widths 1/2/4/8,
// pipeline on/off — at two system sizes and two skins, and demands the exact
// seed trajectory hash from each. The width and pipeline axes are contracts
// (same discretization, same bits); the skin axis has one golden per value.
func TestGoldenNVEBitIdentity(t *testing.T) {
	widths := []int{1, 2, 4, 8}
	if testing.Short() {
		widths = []int{1, 4}
	}
	for _, g := range goldenNVE {
		for _, workers := range widths {
			for _, pipeline := range []bool{false, true} {
				name := fmt.Sprintf("cells=%d/skin=%g/workers=%d/pipeline=%v", g.cells, g.skin, workers, pipeline)
				t.Run(name, func(t *testing.T) {
					if testing.Short() && g.cells == 3 && workers != 1 {
						t.Skip("short mode: cells=3 width sweep skipped")
					}
					sim, err := NewSimulation(Config{
						Cells:          g.cells,
						Temperature:    1200,
						Backend:        BackendMDM,
						PotentialEvery: 100,
						Workers:        workers,
						Pipeline:       pipeline,
						Skin:           g.skin,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer func() { _ = sim.Free() }()
					if got := hashPos(sim.System); got != g.init {
						t.Fatalf("initial positions hash %s, golden %s", got, g.init)
					}
					if err := sim.RunNVE(50); err != nil {
						t.Fatal(err)
					}
					if got := hashState(sim.System); got != g.final {
						t.Fatalf("50-step NVE state hash %s, golden %s", got, g.final)
					}
				})
			}
		}
	}
}
