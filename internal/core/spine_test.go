package core

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mdm/internal/ewald"
	"mdm/internal/fault"
	"mdm/internal/md"
	"mdm/internal/vec"
)

// stallHook orders every clock reading of an attempt: it holds each WINE-2
// call until a sweep has begun (its first MDGRAPE-2 call, after the caller's
// j-set reading), and each MDGRAPE-2 call until the wave rank has shipped
// its forces and, at the 1 + 1 layout, is parked in lend. begin readies it
// for the next attempt.
type stallHook struct {
	t     *testing.T
	m     *ParallelRun
	sent  int64        // TagForces messages before the attempt in progress
	swept atomic.Int64 // MDGRAPE-2 calls of the attempt in progress that have begun
}

func (h *stallHook) begin() {
	h.sent = h.m.world.StatsByTag()[TagForces].Messages
	h.swept.Store(0)
}

func (h *stallHook) HardwareCall(site fault.Site) error {
	if site == fault.MDG2 {
		h.swept.Add(1)
		holdCall(h.t, site, "the wave lane never shipped", func() bool {
			return h.m.world.StatsByTag()[TagForces].Messages > h.sent && (h.m.lending == nil || h.m.lending.Parked(int(LaneWave)))
		})
		return nil
	}
	holdCall(h.t, site, "no sweep began", func() bool { return h.swept.Load() > 0 })
	return nil
}

func (h *stallHook) PendingFlip(fault.Site) (int, int, bool) { return 0, 0, false }

func (h *stallHook) attach(t *testing.T, m *ParallelRun) { h.t, h.m = t, m }

// holdCall holds a site's hardware call until done, at most 10 s.
func holdCall(t *testing.T, site fault.Site, why string, done func() bool) {
	for deadline := time.Now().Add(10 * time.Second); !done(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Errorf("%v call stalled 10 s: %s", site, why)
			return
		}
	}
}

// attemptHook is a test's hardware hook over a session: attached once the
// session is built, readied before every attempt.
type attemptHook interface {
	fault.HardwareHook
	attach(t *testing.T, m *ParallelRun)
	begin()
}

// retryOnce is a force field over a session that retries a failed call once
// at the same positions, as the recovery layer does, and keeps what every
// successful call returned and every failed one's error.
type retryOnce struct {
	m        *ParallelRun
	hook     attemptHook // nil when unstalled
	failures int
	errs     []error
	forces   [][]vec.V
	pots     []float64
}

func (r *retryOnce) Forces(s *md.System) ([]vec.V, float64, error) {
	f, pot, err := r.attempt(s)
	if err != nil {
		r.failures++
		r.errs = append(r.errs, err)
		f, pot, err = r.attempt(s)
	}
	if err == nil {
		r.forces, r.pots = append(r.forces, f), append(r.pots, pot)
	}
	return f, pot, err
}

func (r *retryOnce) attempt(s *md.System) ([]vec.V, float64, error) {
	if r.hook != nil {
		r.hook.begin()
	}
	return r.m.Forces(s)
}

// claimRun integrates 5 steps (6 Forces calls) of a small melt of 8·cells³
// ions on a session of nReal real ranks and one wave rank (the serial
// Machine at 1) built with hook and sink, at splitting params of the melt's
// box, and returns the successful calls' forces and potentials and how many
// calls failed.
func claimRun(t *testing.T, cfg MachineConfig, cells int, params func(l float64) ewald.Params, nReal int, hook attemptHook) *retryOnce {
	t.Helper()
	s := meltLike(t, cells, 5.64, 1200, 7)
	cfg.Ewald = params(s.L)
	if hook != nil {
		cfg.FaultHook = hook
	}
	var m *ParallelRun
	var err error
	if nReal == 1 {
		m, err = NewMachine(cfg)
	} else {
		m, err = NewParallelRun(testWorld(t, nReal+1, 30*time.Second), cfg, nReal, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Free() }()
	if hook != nil {
		hook.attach(t, m)
	}
	ff := &retryOnce{m: m, hook: hook}
	it, err := md.NewIntegrator(s, ff, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := it.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return ff
}

// TestPotentialExactAcrossLayouts pins that the potential the sweeps carry
// is exact and layout-independent: over 6 force calls of a 512-ion melt at
// the short-cutoff lending fixture, the potential due at steps 0 and 3, every
// reported potential equals the unlent serial width-1 run's bit for bit, and
// so does every force — at Workers 1, 2 and 4, unlent and with the wave lane
// lending into the sweep (whose lent chunks then carry their share of U), at
// 1 + 1 and 2 + 1 ranks (where the word crosses the wire), and when a due
// call's sweep fails once and is retried at the same positions (step 3's
// sweeps are MDGRAPE-2 calls 13–16 at 1 + 1, 25–32 at 2 + 1).
func TestPotentialExactAcrossLayouts(t *testing.T) {
	cfg := CurrentMachineConfig(smallParams(1)) // Ewald set per system in claimRun
	cfg.PotentialEvery, cfg.Workers = 3, 1
	clean := claimRun(t, cfg, 4, lendParams, 1, unlent{})
	for _, workers := range []int{1, 2, 4} {
		for _, tc := range []struct {
			name   string
			nReal  int
			lend   bool   // hold the sweep until the wave lane lends into it
			faults string // an injector behind the hook
		}{
			{"unlent", 1, false, ""},
			{"lent", 1, true, ""},
			{"lent/mdg-transient", 1, true, "mdg:transient@call=13"},
			{"ranks=2+1", 2, false, ""},
			{"ranks=2+1/mdg-transient", 2, false, "mdg:transient@call=25"},
		} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, tc.name), func(t *testing.T) {
				cfg := cfg
				cfg.Workers = workers
				var hook attemptHook = unlent{}
				if tc.lend || tc.nReal > 1 {
					h := &lendHook{site: fault.MDG2}
					if tc.faults != "" {
						h.in = injector(t, tc.faults)
					}
					hook = h
				}
				got := claimRun(t, cfg, 4, lendParams, tc.nReal, hook)
				if want := min(len(tc.faults), 1); got.failures != want {
					t.Errorf("%d failed calls (%v), want %d", got.failures, got.errs, want)
				}
				if len(got.pots) != len(clean.pots) {
					t.Fatalf("%d successful calls, want %d", len(got.pots), len(clean.pots))
				}
				for c := range clean.pots {
					if math.Float64bits(got.pots[c]) != math.Float64bits(clean.pots[c]) {
						t.Errorf("call %d: potential %.17g, unlent serial width 1 %.17g", c, got.pots[c], clean.pots[c])
					}
					for i := range clean.forces[c] {
						if got.forces[c][i] != clean.forces[c][i] {
							t.Fatalf("call %d: particle %d: %v, unlent serial width 1 %v", c, i, got.forces[c][i], clean.forces[c][i])
						}
					}
				}
			})
		}
	}
}

// TestPhaseSpineDeterministic pins the spine's booking on a counter clock
// (one tick per reading). The MDGRAPE-2 stall orders every clock reading of
// a call — the driver's start, the caller's j-set, then the whole wave lane
// (its pass, then it parks in lend), then the caller's sweep, its release of
// the parked wave lane (the one reading of the lend), join and combine — so
// the snapshot of 6 Forces calls (5 integrator steps, the potential due on
// steps 0 and 3) is exact: both lanes start at the driver's reading, the
// wave pass's span also holds the caller's j-set reading, the sweep's the
// wave lane's, the lend's the sweep's and the join's the release's. The two
// due calls' sweeps book as sweep_potential, at no extra reading.
func TestPhaseSpineDeterministic(t *testing.T) {
	var ticks atomic.Int64
	cfg := CurrentMachineConfig(smallParams(1))
	cfg.PotentialEvery, cfg.Workers = 3, 1
	cfg.Phases = NewPhaseSink(func() int64 { return ticks.Add(1) })
	claimRun(t, cfg, 2, smallParams, 1, &stallHook{})

	var want PhaseRecord
	want[LaneCaller][PhaseJSetBuild] = PhaseTotal{6, 6}
	want[LaneCaller][PhaseSweep] = PhaseTotal{4, 4 * 2}
	want[LaneCaller][PhaseSweepPotential] = PhaseTotal{2, 2 * 2}
	want[LaneCaller][PhaseJoinWait] = PhaseTotal{6, 12}
	want[LaneCaller][PhaseCombine] = PhaseTotal{6, 6}
	want[LaneWave][PhaseWave] = PhaseTotal{6, 12}
	want[LaneWave][PhaseLend] = PhaseTotal{6, 12}
	got := cfg.Phases.Snapshot()
	if got != want {
		t.Errorf("snapshot\n%v\nwant\n%v", got, want)
	}
	if n := ticks.Load(); n != 6*7 {
		t.Errorf("%d clock readings, want %d", n, 6*7)
	}
}
