package mdm

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mdm/internal/core"
	"mdm/internal/md"
	"mdm/internal/vec"
)

// Golden 50-step NVE trajectory hashes of the machine backend, one row per
// (cells, skin), for Cells/Temperature=1200/Seed=1/Dt=2/BackendMDM/
// PotentialEvery=100, RunNVE(50). Every execution mode of
// TestBitIdentityLattice must land on its row. A skin has rows of its own: it
// widens the cells, which changes the sweep's visit order and stored
// coordinate words — rounding, not physics (TestSkinLeavesThePhysics). A run
// keeps its engine and layout through every retry and re-stripe, so the
// fault scenarios land on their row too. A hash pins bits, not accuracy;
// that is judgeAccuracy's and TestSkinReuseStepsMatchRebuildSteps'. If one of
// these ever changes, the step path's arithmetic changed: a physics
// regression, or an intentional discretization change that must re-capture
// the goldens and say so in the commit.
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

// hashVecs is the FNV-64a hash of the vectors' little-endian float64 bits —
// stable across architectures for identical values.
func hashVecs(vss ...[]vec.V) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, vs := range vss {
		for _, v := range vs {
			for _, f := range [3]float64{v.X, v.Y, v.Z} {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
				h.Write(buf[:])
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

const latticeSteps = 50 // the golden protocol's NVE segment

// A latticeScenario is one fault schedule: the layouts it runs at and the
// recovery counts its reference cell must report (Events are checked by
// agreement unless want names them). Hardware faults are keyed by step=, so one scenario means the
// same events at every rank count.
type latticeScenario struct {
	name     string
	faults   string
	watchdog time.Duration // Supervise.Watchdog
	runsAt   func(cells, ranks int) bool
	want     FaultReport
}

var latticeScenarios = []latticeScenario{
	{name: "clean", runsAt: func(int, int) bool { return true }},
	{
		// The recovery layer over a healthy run: nothing to report but the
		// steps served.
		name:     "supervised",
		watchdog: 30 * time.Second,
		runsAt:   func(int, int) bool { return true },
	},
	{
		name:   "restripe",
		faults: "mdg:transient@step=7; wine2:board-drop@step=12,board=1; wine2:transient@step=20",
		runsAt: func(int, int) bool { return true },
		want:   FaultReport{Retries: 2, Restripes: 1, WineBoardsLost: 1},
	},
	{
		// With no guard configured the recovery layer still rejects a
		// non-finite force. Word 96 of the 216-ion run is a Coulomb-pass
		// force component in [1, 2) eV/Å at step 18, so bit 62 makes it
		// infinite and the retry recomputes the step; no Coulomb-pass
		// component of the 64-ion run reaches 1 eV/Å. Words are numbered
		// per rank, so the flip stays at ranks 0.
		name:   "bitflip",
		faults: "mdg:bitflip@step=18,word=96,bit=62",
		runsAt: func(cells, ranks int) bool { return cells == 3 && ranks == 0 },
		want:   FaultReport{Retries: 1, SuspectSteps: 1},
	},
	{
		// A lost message wedges a collective until the watchdog cancels it:
		// ~130 ms, where the world's own deadline would wait 30 s. From
		// Ranks 2 on, ranks 1 and 0 are real-space ranks and the message is
		// lost in the first step.
		name:     "mpi-drop",
		faults:   "mpi:drop@src=1,dst=0,n=2",
		watchdog: 100 * time.Millisecond,
		runsAt:   func(_, ranks int) bool { return ranks >= 2 },
		want:     FaultReport{Retries: 1, Stalls: 1},
	},
	{
		// A failed send is a typed link error: World.Run returns it ahead of
		// the peers' cancellation echoes, and one retry absorbs it with no
		// watchdog. The one 2 + 1 layout pins the link-error rung; its event
		// is pinned too.
		name:   "link-error",
		faults: "mpi:senderr@src=1,dst=0,n=2",
		runsAt: func(cells, ranks int) bool { return cells == 2 && ranks == 2 },
		want:   FaultReport{Retries: 1, Events: []string{"step 1: retry 1 after link error 1→0"}},
	},
	{
		// A flipped payload word is a link error too: the receiver's
		// checksum refuses it before any decoder or guard reads the payload.
		// Message 1 from rank 0 to 1 is the first halo; bit 40 of its first
		// x coordinate moves one ghost by a relative 2^-12, which nothing
		// else on the step would see.
		name:   "mpi-corrupt",
		faults: "mpi:corrupt@src=0,dst=1,n=1,word=0,bit=40",
		runsAt: func(cells, ranks int) bool { return cells == 2 && ranks == 2 },
		want:   FaultReport{Retries: 1, Events: []string{"step 1: retry 1 after link error 0→1"}},
	},
}

// A latticeCell is one execution mode of the golden protocol.
type latticeCell struct {
	cells, workers, ranks int
	pipeline              bool
	skin                  float64
	sc                    *latticeScenario
}

func (c latticeCell) name() string {
	return fmt.Sprintf("cells=%d/skin=%g/%s/ranks=%d/workers=%d/pipeline=%v",
		c.cells, c.skin, c.sc.name, c.ranks, c.workers, c.pipeline)
}

var latticeRanks = []int{0, 1, 2, 4, 8} // 0: the serial machine, no world

// latticeCells enumerates every cell at one system size.
func latticeCells(cells int) []latticeCell {
	var out []latticeCell
	for _, skin := range []float64{0, 0.5} {
		for i := range latticeScenarios {
			for _, ranks := range latticeRanks {
				for _, workers := range []int{1, 2, 4, 8} {
					for _, pipeline := range []bool{false, true} {
						if latticeScenarios[i].runsAt(cells, ranks) {
							out = append(out, latticeCell{cells, workers, ranks, pipeline, skin, &latticeScenarios[i]})
						}
					}
				}
			}
		}
	}
	return out
}

// reference is the cell c's row is judged against: the same system, skin and
// scenario at one worker, pipeline unset and the fewest ranks the scenario
// runs at.
func (c latticeCell) reference() latticeCell {
	c.workers, c.pipeline = 1, false
	for _, r := range latticeRanks {
		if c.sc.runsAt(c.cells, r) {
			c.ranks = r
			break
		}
	}
	return c
}

// row is the reference cell of c's golden row: the clean serial machine at
// one worker on c's system and skin.
func (c latticeCell) row() latticeCell {
	return latticeCell{cells: c.cells, workers: 1, skin: c.skin, sc: &latticeScenarios[0]}
}

// freshPotentials is the bits of the potentials records evaluated at their
// own step, with those steps.
func freshPotentials(records []Record) [][2]uint64 {
	var out [][2]uint64
	for _, r := range records {
		if r.PEFresh {
			out = append(out, [2]uint64{uint64(r.Step), math.Float64bits(r.PE)})
		}
	}
	return out
}

func (c latticeCell) config() Config {
	watchdog := c.sc.watchdog
	if raceDetectorEnabled {
		watchdog *= 10 // an instrumented step can stay silent past 100 ms
	}
	return Config{
		Cells: c.cells, Temperature: 1200, Seed: 1, Dt: 2, Backend: BackendMDM, PotentialEvery: 100,
		Workers: c.workers, Pipeline: c.pipeline, Skin: c.skin, Ranks: c.ranks, // one wavenumber rank, the default
		Faults: c.sc.faults, Supervise: SuperviseConfig{Watchdog: watchdog},
	}
}

// pairwise returns seed plus cells of pool, picked greedily, until every pair
// of axis values that some cell of pool holds is held by a returned cell.
func pairwise(seed, pool []latticeCell) []latticeCell {
	covered := map[[2]string]bool{}
	// cover counts the pairs of c not yet covered and, with mark, covers them.
	cover := func(c latticeCell, mark bool) (fresh int) {
		axes := strings.Split(c.name(), "/")[1:] // cells= is fixed
		for i, a := range axes {
			for _, b := range axes[i+1:] {
				p := [2]string{a, b}
				if !covered[p] {
					fresh++
				}
				covered[p] = covered[p] || mark
			}
		}
		return fresh
	}
	out := append([]latticeCell(nil), seed...)
	for _, c := range seed {
		cover(c, true)
	}
	for {
		best, most := 0, 0
		for i, c := range pool {
			if n := cover(c, false); n > most {
				best, most = i, n
			}
		}
		if most == 0 {
			return out
		}
		out = append(out, pool[best])
		cover(pool[best], true)
	}
}

// sampledLattice is what a test run covers: at cells 2 the full product,
// except that the scenarios under a watchdog are sampled pairwise (a dropped
// message waits out its deadline); at cells 3 the reference row, the clean
// serial machine at every width and pipeline setting (a reordered sum shows
// here first: at 64 ions the float64 accumulation of single-precision pair
// terms is often exact in any order) and a pairwise-covering sample; under
// -short a pairwise sample at cells 2.
func sampledLattice(short bool) []latticeCell {
	pick := func(cells int, keep func(latticeCell) bool) (out []latticeCell) {
		for _, c := range latticeCells(cells) {
			if keep(c) {
				out = append(out, c)
			}
		}
		return out
	}
	isRef := func(c latticeCell) bool { return c == c.reference() }
	if short {
		return pairwise(pick(2, isRef), latticeCells(2))
	}
	full := pick(2, func(c latticeCell) bool { return isRef(c) || c.sc.watchdog == 0 })
	serial := pick(3, func(c latticeCell) bool { return isRef(c) || c.sc.name == "clean" && c.ranks == 0 })
	return append(pairwise(full, latticeCells(2)), pairwise(serial, latticeCells(3))...)
}

// latticeRun is what a cell produced.
type latticeRun struct {
	init, final string
	records     []Record
	report      FaultReport
	first, last *md.System
}

func runLatticeCell(cfg Config) (latticeRun, error) {
	sim, err := NewSimulation(cfg)
	if err != nil {
		return latticeRun{}, err
	}
	defer func() { _ = sim.Free() }()
	first := *sim.System // the run moves Pos and Vel in place
	first.Pos, first.Vel = append([]vec.V(nil), first.Pos...), append([]vec.V(nil), first.Vel...)
	if err := sim.RunNVE(latticeSteps); err != nil {
		return latticeRun{}, err
	}
	r := latticeRun{init: hashVecs(first.Pos), final: hashVecs(sim.System.Pos, sim.System.Vel),
		records: sim.Records(), first: &first, last: sim.System}
	r.report, _ = sim.FaultReport()
	return r, nil
}

// TestBitIdentityLattice is the bit-identity oracle of every execution mode:
// worker width × pipeline × rank count (one wavenumber rank) × skin × fault
// scenario, at 64 and 216 ions (sampledLattice picks the cells). The pipeline
// axis sets the deprecated Config.Pipeline, which selects nothing: its true
// cells pin that the field leaves every trajectory bit for bit as it is, and
// the axis goes with the field (ROADMAP item 3 (b)). Each cell
// lands on its golden row and reports its reference cell's records and fault
// report bit for bit; agreement cannot see a wrong answer every mode shares,
// so judgeAccuracy holds each clean reference cell to float64. Cells run in
// parallel: a dropped message's cell mostly waits for its watchdog.
func TestBitIdentityLattice(t *testing.T) {
	cells := sampledLattice(testing.Short())
	// A reference cell runs once, for whichever cell of its row asks first;
	// the map is filled before any cell runs and only read after.
	refs := map[latticeCell]func() (latticeRun, error){}
	for _, c := range cells {
		for _, ref := range []latticeCell{c.reference(), c.row()} {
			if refs[ref] == nil {
				refs[ref] = sync.OnceValues(func() (latticeRun, error) { return runLatticeCell(ref.config()) })
			}
		}
	}
	for _, c := range cells {
		t.Run(c.name(), func(t *testing.T) {
			t.Parallel()
			ref, err := refs[c.reference()]()
			if err != nil {
				t.Fatalf("reference cell %s: %v", c.reference().name(), err)
			}
			got := ref
			if c != c.reference() {
				if got, err = runLatticeCell(c.config()); err != nil {
					t.Fatal(err)
				}
			}

			var g = goldenNVE[0]
			for _, row := range goldenNVE {
				if row.cells == c.cells && row.skin == c.skin {
					g = row
				}
			}
			if got.init != g.init {
				t.Fatalf("initial positions hash %s, golden %s", got.init, g.init)
			}
			if got.final != g.final {
				t.Errorf("%d-step NVE state hash %s, golden %s", latticeSteps, got.final, g.final)
			}
			// The potential is exact (an integer sum of per-pair words), so
			// every cell reports its row's potentials bit for bit, fault
			// scenarios and several ranks included.
			row, err := refs[c.row()]()
			if err != nil {
				t.Fatalf("row reference cell %s: %v", c.row().name(), err)
			}
			if gp, rp := freshPotentials(got.records), freshPotentials(row.records); !reflect.DeepEqual(gp, rp) {
				t.Errorf("evaluated potentials' bits %x, row reference cell %x", gp, rp)
			}

			if c == c.reference() {
				// Only a run under the recovery layer reports, and it counts
				// every force call: the integrator's first and the run's.
				recovered := c.sc.faults != "" || c.sc.watchdog > 0
				wantRep, counts := c.sc.want, got.report
				if recovered {
					wantRep.Steps = latticeSteps + 1
				}
				if wantRep.Events == nil {
					counts.Events = nil
				}
				if !reflect.DeepEqual(counts, wantRep) {
					t.Errorf("fault report %+v, want %+v", got.report, wantRep)
				}
				if !recovered {
					judgeAccuracy(t, c, got)
				}
				return
			}
			if !reflect.DeepEqual(got.report, ref.report) {
				t.Errorf("fault report %+v, reference cell %+v", got.report, ref.report)
			}
			// %v prints each float64 with the digits that round-trip it: equal
			// strings are equal bits.
			if gs, rs := fmt.Sprint(got.records), fmt.Sprint(ref.records); gs != rs {
				t.Errorf("records\n%s\nreference cell\n%s", gs, rs)
			}
		})
	}
}

// judgeAccuracy holds a clean reference cell to float64: core.MeasureAccuracy
// against core.AccuracyBound, and NVE drift. The run starts from the perfect
// crystal, where every force is zero by symmetry and a relative force error
// has no scale, so the first state is judged on the potential only. Drift
// needs the potential every step: the cell runs again at PotentialEvery 1,
// which moves no force bit, so it must land on the same hash.
func judgeAccuracy(t *testing.T, c latticeCell, run latticeRun) {
	t.Helper()
	cfg := c.config()
	p, _ := cfg.EwaldParams() // the cell has just run on them
	mcfg := core.CurrentMachineConfig(p)
	mcfg.Skin = c.skin
	first, err := core.MeasureAccuracy(mcfg, run.first)
	if err != nil {
		t.Fatal(err)
	}
	last, err := core.MeasureAccuracy(mcfg, run.last)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, got, bound float64) {
		if !(got <= bound) {
			t.Errorf("%s error %.3g > %.3g", what, got, bound)
		}
	}
	bound := core.AccuracyBound
	check("first state potential", first.Potential, bound.Potential)
	check("final state real", last.Real.RMS, bound.Real.RMS)
	check("final state wave", last.Wave.RMS, bound.Wave.RMS)
	check("final state total", last.Total.RMS, bound.Total.RMS)
	check("final state potential", last.Potential, bound.Potential)

	cfg.PotentialEvery = 1
	every, err := runLatticeCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if every.final != run.final {
		t.Errorf("PotentialEvery 1: state hash %s, PotentialEvery 100 %s", every.final, run.final)
	}
	// 3.5e-5 at both sizes and skins.
	if drift := (&md.Recorder{Records: every.records}).EnergyDrift(); !(drift < 1e-4) {
		t.Errorf("NVE drift %.3g over %d steps, want < 1e-4", drift, latticeSteps)
	}
}
