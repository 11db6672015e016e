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
// with the potential walk, so a due call's walk runs on the other lane: an
// MDGRAPE-2 call (the caller's sweep) waits until the wave lane's result is
// in the join channel, a WINE-2 call (the wave pass) until the walk is
// claimed, which only the caller can do while the wave lane waits. A call
// that is not due passes at once. in, when set, then decides the call's
// fate.
type stallHook struct {
	t    *testing.T
	site fault.Site
	m    *Machine
	in   fault.HardwareHook
}

func (h *stallHook) HardwareCall(site fault.Site) error {
	if site == h.site {
		done := func() bool { return h.m.walked.Load() }
		if site == fault.MDG2 {
			done = func() bool { return len(h.m.wineDone) == 1 }
		}
		for deadline := time.Now().Add(10 * time.Second); !done(); runtime.Gosched() {
			if time.Now().After(deadline) {
				h.t.Errorf("%v call stalled 10 s: the other lane never finished its walk", site)
				break
			}
		}
	}
	if h.in == nil {
		return nil
	}
	return h.in.HardwareCall(site)
}

func (h *stallHook) PendingFlip(site fault.Site) (int, int, bool) {
	if h.in == nil {
		return 0, 0, false
	}
	return h.in.PendingFlip(site)
}

// retryOnce is a force field over a Machine that retries a failed call once
// at the same positions, as the recovery layer does, and keeps what every
// successful call returned.
type retryOnce struct {
	m        *Machine
	failures int
	forces   [][]vec.V
	pots     []float64
}

func (r *retryOnce) Forces(s *md.System) ([]vec.V, float64, error) {
	f, pot, err := r.m.Forces(s)
	if err != nil {
		r.failures++
		f, pot, err = r.m.Forces(s)
	}
	if err == nil {
		r.forces, r.pots = append(r.forces, f), append(r.pots, pot)
	}
	return f, pot, err
}

// claimRun integrates 5 steps (6 Forces calls) of a small melt on a Machine
// built with hook and sink, and returns the successful calls' forces and
// potentials and how many calls failed.
func claimRun(t *testing.T, cfg MachineConfig, hook *stallHook) *retryOnce {
	t.Helper()
	s := meltLike(t, 2, 5.64, 1200, 7)
	cfg.Ewald = smallParams(s.L)
	if hook != nil {
		cfg.FaultHook = hook
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Free() }()
	if hook != nil {
		hook.t, hook.m = t, m
	}
	ff := &retryOnce{m: m}
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

// TestPotentialClaimEitherLane pins the claim rule of Machine.Forces: a due
// call's host potential walk runs on whichever lane finishes its pass first,
// exactly once, and no lane walks a call that is not due. Stalling one site
// puts the walk on the other lane, as the spine's per-lane counts show, and
// the forces and potentials equal an unstalled run's bit for bit — also when
// a sweep fails on a due call (the walk of the failed attempt is dropped) and
// the retry at the same positions lands on the clean values.
func TestPotentialClaimEitherLane(t *testing.T) {
	cfg := CurrentMachineConfig(smallParams(1)) // Ewald set per system in claimRun
	cfg.PotentialEvery, cfg.Workers = 3, 1
	clean := claimRun(t, cfg, nil)

	for _, tc := range []struct {
		name   string
		site   fault.Site
		faults string // an injector behind the stall
		walker Lane   // the lane that must run every walk
		walks  int64  // due attempts: steps 0 and 3 of calls 0…5, plus a failed one
	}{
		{"stall=mdg", fault.MDG2, "", LaneWave, 2},
		{"stall=wine2", fault.WINE2, "", LaneCaller, 2},
		// MDGRAPE-2 calls 13–16 are step 3's sweep, a due call.
		{"stall=mdg/transient", fault.MDG2, "mdg:transient@call=13", LaneWave, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ticks atomic.Int64
			cfg := cfg
			cfg.Phases = NewPhaseSink(func() int64 { return ticks.Add(1) })
			hook := &stallHook{site: tc.site}
			if tc.faults != "" {
				hook.in = injector(t, tc.faults)
			}
			got := claimRun(t, cfg, hook)
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
// a call — the caller's j-set, then the whole wave lane (pass, then the walk
// on a due call), then the caller's sweep, join and combine — so the
// snapshot of 6 Forces calls (5 integrator steps, a walk on steps 0 and 3)
// is exact: the sweep's span also holds the wave lane's 2 or 3 readings.
func TestPhaseSpineDeterministic(t *testing.T) {
	var ticks atomic.Int64
	cfg := CurrentMachineConfig(smallParams(1))
	cfg.PotentialEvery, cfg.Workers = 3, 1
	cfg.Phases = NewPhaseSink(func() int64 { return ticks.Add(1) })
	claimRun(t, cfg, &stallHook{site: fault.MDG2})

	var want PhaseRecord
	want[LaneCaller][PhaseJSetBuild] = PhaseTotal{6, 6}
	want[LaneCaller][PhaseSweep] = PhaseTotal{6, 2*4 + 4*3}
	want[LaneCaller][PhaseJoinWait] = PhaseTotal{6, 6}
	want[LaneCaller][PhaseCombine] = PhaseTotal{6, 6}
	want[LaneWave][PhaseWave] = PhaseTotal{6, 6}
	want[LaneWave][PhasePotential] = PhaseTotal{2, 2}
	got := cfg.Phases.Snapshot()
	if got != want {
		t.Errorf("snapshot\n%v\nwant\n%v", got, want)
	}
	if n := ticks.Load(); n != 6*7+2 {
		t.Errorf("%d clock readings, want %d", n, 6*7+2)
	}
}
