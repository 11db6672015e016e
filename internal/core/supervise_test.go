package core

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"mdm/internal/fault"
	"mdm/internal/mpi"
)

// quietWatchdog is a stall deadline no step of these tests comes near: it
// turns supervision, and with it the circuit breakers, on without ever
// declaring a stall.
const quietWatchdog = time.Minute

// An injected hang on the serial machine must be detected by the watchdog,
// released as a StallError, and absorbed by one retry — well before the
// MaxHang backstop would have let the run limp on without supervision.
func TestResilientWatchdogRecoversHang(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 31)
	p := smallParams(s.L)
	r := newResilientT(t, CurrentMachineConfig(p), RecoveryConfig{
		Injector: injector(t, "mdg:hang@step=2"),
		Watchdog: 50 * time.Millisecond,
	}, nil, 0)
	start := time.Now()
	var got [][3]float64
	for step := 0; step < 3; step++ {
		f, _, err := r.Forces(s)
		if err != nil {
			t.Fatalf("step %d: %v", step+1, err)
		}
		got = append(got, [3]float64{f[0].X, f[0].Y, f[0].Z})
	}
	if elapsed := time.Since(start); elapsed >= fault.MaxHang {
		t.Errorf("run took %v: the watchdog never fired, the MaxHang backstop did", elapsed)
	}
	rep := r.Report()
	if rep.Stalls != 1 || rep.Retries != 1 {
		t.Errorf("report = %+v, want 1 stall absorbed by 1 retry", rep)
	}
	// The retried step computes the same forces as a clean machine.
	want := cleanForces(t, p, s)
	for _, g := range got {
		if g != [3]float64{want[0].X, want[0].Y, want[0].Z} {
			t.Fatalf("recovered forces deviate: %v != %v", g, want[0])
		}
	}
}

// The liveness hook beats before the injector runs: a hang on the run's very
// first hardware call is still silence after a beat, not a watchdog that has
// never been beaten and so cannot stall.
func TestWatchdogSeesHangOnFirstCall(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 38)
	r := newResilientT(t, CurrentMachineConfig(smallParams(s.L)), RecoveryConfig{
		Injector: injector(t, "mdg:hang@call=1"),
		Watchdog: 50 * time.Millisecond,
	}, nil, 0)
	start := time.Now()
	firstForces(t, r, s)
	if elapsed := time.Since(start); elapsed >= fault.MaxHang {
		t.Errorf("step took %v: the watchdog never fired, the MaxHang backstop did", elapsed)
	}
	if rep := r.Report(); rep.Stalls != 1 || rep.Retries != 1 {
		t.Errorf("report = %+v, want 1 stall absorbed by 1 retry", rep)
	}
}

// A board failing repeatedly trips its breaker and is quarantined up front —
// re-striped away like a dead board — so later steps stop paying retries.
func TestResilientBreakerQuarantinesFlakyBoard(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 32)
	p := smallParams(s.L)
	cfg := CurrentMachineConfig(p)
	cfg.MDG.Clusters, cfg.MDG.BoardsPerCluster = 4, 1
	in := injector(t, "mdg:transient@step=2,board=1; mdg:transient@step=3,board=1; mdg:transient@step=4,board=1")
	r := newResilientT(t, cfg, RecoveryConfig{Injector: in, Watchdog: quietWatchdog}, nil, 0)
	want := cleanForces(t, p, s)
	for step := 0; step < 6; step++ {
		f, _, err := r.Forces(s)
		if err != nil {
			t.Fatalf("step %d: %v", step+1, err)
		}
		// Striping is pure partitioning: the quarantined stripe computes the
		// identical forces, and the host path never has to serve a step.
		if f[0] != want[0] {
			t.Fatalf("step %d: forces deviate after quarantine", step+1)
		}
	}
	rep := r.Report()
	if rep.BreakerTrips != 1 || rep.Quarantines != 1 {
		t.Errorf("report = %+v, want 1 trip and 1 quarantine", rep)
	}
	// Failures at steps 2 and 3 are retried; the step-4 failure trips the
	// breaker and is handled by the quarantine re-stripe, not a retry.
	if rep.Retries != 2 {
		t.Errorf("Retries = %d, want 2 (trip replaces the third retry)", rep.Retries)
	}
	if rep.FallbackSteps != 0 || rep.Fallback {
		t.Errorf("quarantine degraded to host: %+v", rep)
	}
	if in.Remaining() != 0 {
		t.Errorf("%d scheduled faults never fired", in.Remaining())
	}
}

// Unattributed failures trip the site-level breaker: while it is open the
// step is served by the host path without dispatching to hardware, and after
// the step-clock cooldown a half-open probe closes it again.
func TestResilientBreakerOpenServesHostThenRecloses(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 33)
	r := newResilientT(t, CurrentMachineConfig(smallParams(s.L)), RecoveryConfig{
		Injector: injector(t, "mdg:transient@step=2; mdg:transient@step=3; mdg:transient@step=4"),
		Watchdog: quietWatchdog,
	}, nil, 0)
	for step := 0; step < 13; step++ {
		if _, _, err := r.Forces(s); err != nil {
			t.Fatalf("step %d: %v", step+1, err)
		}
	}
	rep := r.Report()
	if rep.BreakerTrips != 1 {
		t.Errorf("BreakerTrips = %d, want 1", rep.BreakerTrips)
	}
	// Trip at step 4 (served by host), open through steps 5-11 (cooldown 8),
	// half-open probe at step 12 succeeds and recloses, step 13 is hardware
	// again.
	if rep.FallbackSteps != 8 {
		t.Errorf("FallbackSteps = %d, want 8 (trip step + 7 cooldown steps): %+v", rep.FallbackSteps, rep)
	}
	if rep.Fallback {
		t.Errorf("site breaker caused permanent fallback: %+v", rep)
	}
	if rep.Retries != 2 {
		t.Errorf("Retries = %d, want 2", rep.Retries)
	}
}

// The full supervised chaos run: a parallel NaCl integration survives a hang
// (watchdog) plus a repeatedly flaky board (breaker quarantine) without ever
// degrading to the host path, and still conserves energy.
func TestChaosSupervisedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integrates 120 parallel supervised steps")
	}
	s := meltLike(t, 2, 5.64, 300, 35)
	cfg := CurrentMachineConfig(smallParams(s.L))
	cfg.MDG.Clusters, cfg.MDG.BoardsPerCluster = 4, 1
	in := injector(t, "mdg:hang@step=20; "+
		"mdg:transient@step=40,board=1; mdg:transient@step=48,board=1; mdg:transient@step=56,board=1")
	r := newResilientT(t, cfg, RecoveryConfig{Injector: in, Watchdog: 100 * time.Millisecond},
		testWorld(t, 3, 5*time.Second), 2)
	if drift := integrate(t, s, r, 120); drift > 5e-4 {
		t.Errorf("supervised chaos run drift = %g", drift)
	}
	rep := r.Report()
	if rep.Stalls != 1 {
		t.Errorf("Stalls = %d, want 1: %+v", rep.Stalls, rep)
	}
	if rep.BreakerTrips != 1 || rep.Quarantines != 1 {
		t.Errorf("breaker did not quarantine the flaky board: %+v", rep)
	}
	if rep.Fallback || rep.FallbackSteps != 0 {
		t.Errorf("supervised run degraded to the host path: %+v", rep)
	}
	if in.Remaining() != 0 {
		t.Errorf("%d scheduled faults never fired", in.Remaining())
	}
}

// The parallel path: a hang on one rank's hardware session stalls the whole
// group mid-collective; the watchdog releases the hang and cancels the run
// group, and the step is absorbed by a single retry.
func TestResilientParallelWatchdogRecoversHang(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel hang recovery integrates several parallel steps")
	}
	s := meltLike(t, 2, 5.64, 300, 34)
	in := injector(t, "mdg:hang@step=3")
	r := newResilientT(t, CurrentMachineConfig(smallParams(s.L)),
		RecoveryConfig{Injector: in, Watchdog: 100 * time.Millisecond}, testWorld(t, 3, 5*time.Second), 2)
	start := time.Now()
	for step := 0; step < 5; step++ {
		if _, _, err := r.Forces(s); err != nil {
			t.Fatalf("step %d: %v", step+1, err)
		}
	}
	if elapsed := time.Since(start); elapsed >= fault.MaxHang {
		t.Errorf("run took %v: the watchdog never fired, the MaxHang backstop did", elapsed)
	}
	rep := r.Report()
	if rep.Stalls != 1 {
		t.Errorf("Stalls = %d, want 1: %+v", rep.Stalls, rep)
	}
	if rep.Retries < 1 {
		t.Errorf("hang not absorbed by a retry: %+v", rep)
	}
	if rep.Fallback || rep.FallbackSteps != 0 {
		t.Errorf("hang degraded the run to the host path: %+v", rep)
	}
	if in.Remaining() != 0 {
		t.Errorf("%d scheduled faults never fired", in.Remaining())
	}
}

// countingBeat counts the beats the hardware hook delivers, passing each on.
type countingBeat struct {
	wd interface{ Beat() }
	n  atomic.Int64
}

func (c *countingBeat) Beat() { c.n.Add(1); c.wd.Beat() }

// The hardware hook is the one per-call side channel into the boards. With
// neither a watchdog nor a fault scenario Resilient installs none (no typed
// nil), with a scenario alone the injector, with a watchdog the liveness hook
// over the injector, if any. Every hardware call beats the watchdog once: a
// serial Forces call makes the fused sweep's four MDGRAPE-2 calls and
// WINE-2's DFT and IDFT, a 2 + 1 ParallelRun step four per real rank and two
// on the wave rank. Those are the injector's own per-site counts, read back
// through lowest-bit flips of word 0 keyed on the call numbers either side
// of them (no guard sees such a flip).
func TestHardwareHookSeam(t *testing.T) {
	s := meltLike(t, 2, 5.64, 300, 36)
	cfg := CurrentMachineConfig(smallParams(s.L))
	for _, mode := range []string{"none", "scenario", "watchdog", "both"} {
		for _, nReal := range []int{0, 2} { // 0: the serial machine
			t.Run(fmt.Sprintf("%s/real=%d", mode, nReal), func(t *testing.T) {
				mdg, wine := 4*max(nReal, 1), 2
				var rc RecoveryConfig
				if mode == "scenario" || mode == "both" {
					rc.Injector = injector(t, fmt.Sprintf("mdg:bitflip@call=%d,word=0,bit=0; mdg:bitflip@call=%d,word=0,bit=0; "+
						"wine2:bitflip@call=%d,word=0,bit=0; wine2:bitflip@call=%d,word=0,bit=0", mdg, mdg+1, wine, wine+1))
				}
				if mode == "watchdog" || mode == "both" {
					rc.Watchdog = quietWatchdog
				}
				var world *mpi.World
				if nReal > 0 {
					world = testWorld(t, nReal+1, 5*time.Second)
				}
				r := newResilientT(t, cfg, rc, world, nReal)
				hook := baseOf(r.eng).cfg.FaultHook
				lh, _ := hook.(*livenessHook)
				want := fault.HardwareHook(nil)
				if rc.Injector != nil {
					want = rc.Injector
				}
				if rc.Watchdog > 0 && (lh == nil || lh.wd != r.wd || lh.in != rc.Injector) ||
					rc.Watchdog == 0 && hook != want {
					t.Fatalf("installed hook %#v", hook)
				}
				beats := countingBeat{}
				if lh != nil {
					beats.wd, lh.wd = lh.wd, &beats
				}
				if _, _, err := r.Forces(s); err != nil {
					t.Fatal(err)
				}
				if n := beats.n.Load(); lh != nil && n != int64(mdg+wine) {
					t.Errorf("%d watchdog beats, want one per hardware call (%d + %d)", n, mdg, wine)
				}
				if in := rc.Injector; in != nil {
					fired := in.Fired()
					slices.Sort(fired)
					if want := []string{
						fmt.Sprintf("step 1: mdg:bitflip@call=%d,word=0,bit=0", mdg),
						fmt.Sprintf("step 1: wine2:bitflip@call=%d,word=0,bit=0", wine),
					}; !slices.Equal(fired, want) {
						t.Errorf("injector call counts: fired %q, want %q", fired, want)
					}
				}
			})
		}
	}
}
