package fault

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestHangBlocksUntilReleased(t *testing.T) {
	in, err := ParseInjector("mdg:hang@call=1,board=2")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- in.HardwareCall(MDG2) }()
	select {
	case err := <-done:
		t.Fatalf("hung call returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	in.ReleaseHangs()
	select {
	case err := <-done:
		var stall *StallError
		if !errors.As(err, &stall) {
			t.Fatalf("released hang returned %v, want *StallError", err)
		}
		if stall.Site != MDG2 || stall.Board != 2 {
			t.Errorf("StallError = %+v, want site mdg board 2", stall)
		}
	case <-time.After(time.Second):
		t.Fatal("ReleaseHangs did not unblock the call")
	}
	// One-shot: the retry goes through clean.
	if err := in.HardwareCall(MDG2); err != nil {
		t.Errorf("retry after stall: %v", err)
	}
}

func TestHangDoesNotBlockOtherSites(t *testing.T) {
	in, err := ParseInjector("wine2:hang@call=1")
	if err != nil {
		t.Fatal(err)
	}
	go in.HardwareCall(WINE2) // wedged, holds no lock
	defer in.ReleaseHangs()
	done := make(chan error, 1)
	go func() { done <- in.HardwareCall(MDG2) }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("mdg call during wine2 hang: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a hang on wine2 blocked an mdg call: injector lock held while wedged")
	}
}

func TestTransientBoardAttribution(t *testing.T) {
	in, err := ParseInjector("mdg:transient@call=1,board=3; mdg:transient@call=2")
	if err != nil {
		t.Fatal(err)
	}
	var te *TransientError
	if err := in.HardwareCall(MDG2); !errors.As(err, &te) || te.Board != 3 {
		t.Fatalf("attributed transient = %v (board %d), want board 3", err, te.Board)
	}
	if err := in.HardwareCall(MDG2); !errors.As(err, &te) || te.Board != -1 {
		t.Fatalf("unattributed transient = %v (board %d), want board -1", err, te.Board)
	}
}

func TestParseHangSlowRoundTrip(t *testing.T) {
	scenario := "mdg:hang@step=6; mdg:hang@call=2,board=1; wine2:hang@step=4"
	events, err := Parse(scenario)
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	for _, e := range events {
		parts = append(parts, e.String())
	}
	again, err := Parse(strings.Join(parts, "; "))
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if events[i] != again[i] {
			t.Errorf("round trip changed event %d: %v -> %v", i, events[i], again[i])
		}
	}
	for _, bad := range []string{
		"mpi:hang@call=1",               // hang is a hardware kind
		"run:hang@step=1",               // hang is a hardware kind
		"mdg:hang@call=1,step=2",        // both schedules
		"wine2:hang@step=-1",            // negative value
		"mdg:transient@step=1,board=-1", // negative value
		"wine2:slow@step=4",             // folded away: no rung of its own
		"mdg:hang@step=6,ms=80",         // the ms= key went with slow and delay
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestConsumeMarksFiredEvents(t *testing.T) {
	const scenario = "mdg:transient@step=2; wine2:transient@step=5; mdg:hang@step=8"
	a, err := ParseInjector(scenario)
	if err != nil {
		t.Fatal(err)
	}
	a.BeginStep(2)
	if err := a.HardwareCall(MDG2); err == nil {
		t.Fatal("scheduled transient did not fire")
	}
	// A fresh injector for the resumed process consumes the fired log: the
	// step-2 event stays consumed, the rest of the schedule is still armed.
	b, err := ParseInjector(scenario)
	if err != nil {
		t.Fatal(err)
	}
	b.Consume(a.Fired())
	if got := b.Remaining(); got != 2 {
		t.Fatalf("Remaining after Consume = %d, want 2", got)
	}
	b.BeginStep(2)
	if err := b.HardwareCall(MDG2); err != nil {
		t.Errorf("consumed event refired: %v", err)
	}
	b.BeginStep(5)
	if err := b.HardwareCall(WINE2); err == nil {
		t.Error("unconsumed event did not fire after resume")
	}
	if got, want := len(b.Fired()), 2; got != want {
		t.Errorf("fired log = %d entries, want %d", got, want)
	}
	// Lines that match nothing are ignored.
	b.Consume([]string{"step 9: mdg:transient@step=99", "garbage"})
	if got := b.Remaining(); got != 1 {
		t.Errorf("Remaining after junk Consume = %d, want 1", got)
	}
}
