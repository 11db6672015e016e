package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mdm/internal/fault"
	"mdm/internal/md"
	"mdm/internal/vec"
)

// stallHook holds one site's hardware calls until the other lane is done
// with the potential walk, so a due call's walk runs on the other lane. Under
// an MDGRAPE-2 stall a sweep's call waits until the wave rank has shipped its
// forces, which it does after its pass and its walk, and at the 1 + 1 layout
// until it is parked in lend after them; a WINE-2 call waits
// until every real rank's sweep has begun, so the wave pass ends after real
// rank 0 armed the claim. Under a WINE-2 stall a wave pass's call on a due
// call waits until real rank 0 has begun its sweep (a sweep makes 4 calls, so
// the other real ranks make at most 4 each) and the walk is claimed, which
// only the caller can do while the wave lane waits. in, when set, then
// decides the call's fate. begin readies the hook for the next attempt.
type stallHook struct {
	t     *testing.T
	site  fault.Site
	m     *ParallelRun
	in    fault.HardwareHook
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
	}
	switch {
	case site == h.site && site == fault.MDG2:
		h.wait(site, func() bool {
			return h.m.world.StatsByTag()[TagForces].Messages > h.sent && (h.m.lending == nil || h.m.lending.Parked(int(LaneWave)))
		})
	case site == h.site:
		h.wait(site, func() bool {
			return !h.m.due || h.swept.Load() > 4*int64(h.m.nReal-1) && h.m.walked.Load()
		})
	case h.site == fault.MDG2:
		h.wait(site, func() bool { return h.swept.Load() >= int64(h.m.nReal) })
	}
	if h.in == nil {
		return nil
	}
	return h.in.HardwareCall(site)
}

func (h *stallHook) attach(t *testing.T, m *ParallelRun) { h.t, h.m = t, m }

func (h *stallHook) wait(site fault.Site, done func() bool) {
	holdCall(h.t, site, "the other lane never finished its walk", done)
}

// holdCall holds a site's hardware call until done, at most 10 s.
func holdCall(t *testing.T, site fault.Site, why string, done func() bool) {
	for deadline := time.Now().Add(10 * time.Second); !done(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Errorf("%v call stalled 10 s: %s", site, why)
			return
		}
	}
}

func (h *stallHook) PendingFlip(site fault.Site) (int, int, bool) {
	if h.in == nil {
		return 0, 0, false
	}
	return h.in.PendingFlip(site)
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
// Machine at 1) built with hook and sink, and returns the successful calls'
// forces and potentials and how many calls failed.
func claimRun(t *testing.T, cfg MachineConfig, cells, nReal int, hook attemptHook) *retryOnce {
	t.Helper()
	s := meltLike(t, cells, 5.64, 1200, 7)
	cfg.Ewald = smallParams(s.L)
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

// TestPotentialClaimEitherLane pins the claim rule of ParallelRun.Step: a
// due call's host potential walk runs on whichever of real rank 0 and wave
// rank 0 finishes its pass first, exactly once, and no lane walks a call
// that is not due. Stalling one site puts the walk on the other lane, as the
// spine's per-lane counts show, and the forces and potentials equal an
// unstalled serial run's bit for bit — on the serial engine, where the walk
// reads rank 0's layout, and at 2 + 1 ranks, where it reads the driver's;
// also when a sweep fails on a due call (the walk of the failed attempt is
// dropped) and the retry at the same positions lands on the clean values.
func TestPotentialClaimEitherLane(t *testing.T) {
	cfg := CurrentMachineConfig(smallParams(1)) // Ewald set per system in claimRun
	cfg.PotentialEvery, cfg.Workers = 3, 1
	clean := claimRun(t, cfg, 2, 1, nil)

	for _, tc := range []struct {
		name   string
		nReal  int
		site   fault.Site
		faults string // an injector behind the stall
		walker Lane   // the lane that must run every walk
		walks  int64  // due attempts: steps 0 and 3 of calls 0…5, plus a failed one
	}{
		{"stall=mdg", 1, fault.MDG2, "", LaneWave, 2},
		{"stall=wine2", 1, fault.WINE2, "", LaneCaller, 2},
		// MDGRAPE-2 calls 13–16 are step 3's sweep, a due call.
		{"stall=mdg/transient", 1, fault.MDG2, "mdg:transient@call=13", LaneWave, 3},
		{"ranks=2+1/stall=mdg", 2, fault.MDG2, "", LaneWave, 2},
		{"ranks=2+1/stall=wine2", 2, fault.WINE2, "", LaneCaller, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ticks atomic.Int64
			cfg := cfg
			cfg.Phases = NewPhaseSink(func() int64 { return ticks.Add(1) })
			hook := &stallHook{site: tc.site}
			if tc.faults != "" {
				hook.in = injector(t, tc.faults)
			}
			got := claimRun(t, cfg, 2, tc.nReal, hook)
			if want := min(len(tc.faults), 1); got.failures != want {
				t.Errorf("%d failed calls, want %d", got.failures, want)
			}
			rec := cfg.Phases.Snapshot()
			other := LaneCaller + LaneWave - tc.walker
			if n := rec[tc.walker][PhasePotential].Count; n != tc.walks {
				t.Errorf("%v lane walked %d times, want %d", tc.walker, n, tc.walks)
			}
			if n := rec[other][PhasePotential].Count; n != 0 {
				t.Errorf("%v lane walked %d times, want 0", other, n)
			}
			if len(got.pots) != len(clean.pots) {
				t.Fatalf("%d successful calls, want %d", len(got.pots), len(clean.pots))
			}
			for c := range clean.pots {
				if got.pots[c] != clean.pots[c] {
					t.Errorf("call %d: potential %v, unstalled %v", c, got.pots[c], clean.pots[c])
				}
				for i := range clean.forces[c] {
					if got.forces[c][i] != clean.forces[c][i] {
						t.Fatalf("call %d: particle %d: %v, unstalled %v", c, i, got.forces[c][i], clean.forces[c][i])
					}
				}
			}
		})
	}
}

// TestPhaseSpineDeterministic pins the spine's booking on a counter clock
// (one tick per reading). The MDGRAPE-2 stall orders every clock reading of
// a call — the driver's start, the caller's j-set, then the whole wave lane
// (pass, then the walk on a due call, then it parks in lend), then the
// caller's sweep, its release of the parked wave lane (the one reading of
// the lend), join and combine — so the snapshot of 6 Forces calls (5
// integrator steps, a walk on steps 0 and 3) is exact: both lanes start at
// the driver's reading, the wave pass's span also holds the caller's j-set
// reading, the sweep's the wave lane's 1 or 2, the lend's the sweep's and
// the join's the release's.
func TestPhaseSpineDeterministic(t *testing.T) {
	var ticks atomic.Int64
	cfg := CurrentMachineConfig(smallParams(1))
	cfg.PotentialEvery, cfg.Workers = 3, 1
	cfg.Phases = NewPhaseSink(func() int64 { return ticks.Add(1) })
	claimRun(t, cfg, 2, 1, &stallHook{site: fault.MDG2})

	var want PhaseRecord
	want[LaneCaller][PhaseJSetBuild] = PhaseTotal{6, 6}
	want[LaneCaller][PhaseSweep] = PhaseTotal{6, 2*3 + 4*2}
	want[LaneCaller][PhaseJoinWait] = PhaseTotal{6, 12}
	want[LaneCaller][PhaseCombine] = PhaseTotal{6, 6}
	want[LaneWave][PhaseWave] = PhaseTotal{6, 12}
	want[LaneWave][PhasePotential] = PhaseTotal{2, 2}
	want[LaneWave][PhaseLend] = PhaseTotal{6, 12}
	got := cfg.Phases.Snapshot()
	if got != want {
		t.Errorf("snapshot\n%v\nwant\n%v", got, want)
	}
	if n := ticks.Load(); n != 6*7+2 {
		t.Errorf("%d clock readings, want %d", n, 6*7+2)
	}
}
