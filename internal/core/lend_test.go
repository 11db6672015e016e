package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"mdm/internal/fault"
	"mdm/internal/mpi"
)

// lendHook forces a direction of lending at the 1 + 1 layout: it holds each
// hardware call at site until the other lane is parked in lend, so that lane
// lends into site's pass — under an MDGRAPE-2 hold the wave lane (after its
// pass, its walk claim and its send) into the sweep, under a WINE-2 hold the
// caller (after its sweep and its walk claim) into the WINE-2 pass. in, when
// set, then decides the call's fate. With cancel set, the first held call
// cancels the run group instead and holds on until the parked lender has
// unwound; the attempt's later calls then pass. At any other layout it
// holds nothing.
type lendHook struct {
	t        *testing.T
	site     fault.Site
	m        *ParallelRun
	in       fault.HardwareHook
	cancel   bool
	canceled atomic.Bool // the run group was canceled once
	unwound  atomic.Bool // this attempt's lender unwound on the cancel
}

func (h *lendHook) attach(t *testing.T, m *ParallelRun) { h.t, h.m = t, m }
func (h *lendHook) begin()                              { h.unwound.Store(false) }

// lender is the lane that lends into site's pass.
func (h *lendHook) lender() Lane {
	if h.site == fault.MDG2 {
		return LaneWave
	}
	return LaneCaller
}

func (h *lendHook) HardwareCall(site fault.Site) error {
	if site == h.site && h.m.lending != nil && !h.unwound.Load() {
		parked := func() bool { return h.m.lending.Parked(int(h.lender())) }
		holdCall(h.t, site, "the other lane never parked in lend", parked)
		if h.cancel && h.canceled.CompareAndSwap(false, true) {
			h.m.world.CancelRun()
			holdCall(h.t, site, "the parked lender did not unwind on CancelRun", func() bool { return !parked() })
			h.unwound.Store(true)
		}
	}
	if h.in == nil {
		return nil
	}
	return h.in.HardwareCall(site)
}

func (h *lendHook) PendingFlip(site fault.Site) (int, int, bool) {
	if h.in == nil {
		return 0, 0, false
	}
	return h.in.PendingFlip(site)
}

// unlent detaches a session's lending, so no lane ever lends: the
// reference run.
type unlent struct{}

func (unlent) HardwareCall(fault.Site) error           { return nil }
func (unlent) PendingFlip(fault.Site) (int, int, bool) { return 0, 0, false }
func (unlent) attach(_ *testing.T, m *ParallelRun)     { m.lending = nil }
func (unlent) begin()                                  {}

// TestLendBothWays forces each direction of lending on a 512-ion melt, where
// the sweep and the WINE-2 pass are cut for lending, and pins that the
// forces and potentials equal an unlent serial run's bit for bit and that
// the lend is booked on the lending lane only, once per attempt that
// reached it: also when the held pass fails (an MDGRAPE-2 or WINE-2
// transient) with the other lane parked, which must wake on the failing
// lane's release and retry onto the clean values. A CancelRun with a lender
// parked unwinds the step with ErrCanceled (the hook fails the test if the
// lender stays parked 10 s; the world's deadline is an hour), and the retry
// is clean. At 2 + 1 no lane lends.
func TestLendBothWays(t *testing.T) {
	cfg := CurrentMachineConfig(smallParams(1)) // Ewald set per system in claimRun
	cfg.PotentialEvery, cfg.Workers = 3, 1
	clean := claimRun(t, cfg, 4, 1, unlent{})

	for _, tc := range []struct {
		name   string
		nReal  int
		site   fault.Site
		faults string // an injector behind the hold
		cancel bool
		lends  int64 // attempts the lender lane books a lend on
	}{
		// MDGRAPE-2 calls 13–16 are step 3's sweep; WINE-2 calls 7–8 its pass.
		{"wave-lends", 1, fault.MDG2, "", false, 6},
		{"caller-lends", 1, fault.WINE2, "", false, 6},
		{"wave-lends/mdg-transient", 1, fault.MDG2, "mdg:transient@call=13", false, 7},
		{"caller-lends/wine2-transient", 1, fault.WINE2, "wine2:transient@call=7", false, 7},
		{"wave-lends/cancel", 1, fault.MDG2, "", true, 6},
		{"caller-lends/cancel", 1, fault.WINE2, "", true, 6},
		{"ranks=2+1", 2, fault.MDG2, "", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ticks atomic.Int64
			cfg := cfg
			cfg.Phases = NewPhaseSink(func() int64 { return ticks.Add(1) })
			hook := &lendHook{site: tc.site, cancel: tc.cancel}
			if tc.faults != "" {
				hook.in = injector(t, tc.faults)
			}
			got := claimRun(t, cfg, 4, tc.nReal, hook)
			want := 0
			if tc.faults != "" || tc.cancel {
				want = 1
			}
			if got.failures != want {
				t.Errorf("%d failed calls (%v), want %d", got.failures, got.errs, want)
			}
			if tc.cancel && got.failures > 0 && !errors.Is(got.errs[0], mpi.ErrCanceled) {
				t.Errorf("canceled step: %v, want ErrCanceled", got.errs[0])
			}
			rec := cfg.Phases.Snapshot()
			lender := hook.lender()
			if n := rec[lender][PhaseLend].Count; n != tc.lends {
				t.Errorf("%v lane lent %d times, want %d", lender, n, tc.lends)
			}
			if n := rec[LaneCaller+LaneWave-lender][PhaseLend].Count; n != 0 {
				t.Errorf("%v lane lent %d times, want 0", LaneCaller+LaneWave-lender, n)
			}
			if len(got.pots) != len(clean.pots) {
				t.Fatalf("%d successful calls, want %d", len(got.pots), len(clean.pots))
			}
			for c := range clean.pots {
				if got.pots[c] != clean.pots[c] {
					t.Errorf("call %d: potential %v, unlent %v", c, got.pots[c], clean.pots[c])
				}
				for i := range clean.forces[c] {
					if got.forces[c][i] != clean.forces[c][i] {
						t.Fatalf("call %d: particle %d: %v, unlent %v", c, i, got.forces[c][i], clean.forces[c][i])
					}
				}
			}
		})
	}
}
