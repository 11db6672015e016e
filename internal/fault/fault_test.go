package fault

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	scenario := "wine2:board-drop@step=3,board=2; mdg:transient@call=7;" +
		"wine2:bitflip@step=5,word=12,bit=40; mpi:drop@src=1,dst=0,n=2;" +
		"mpi:corrupt@src=0,dst=2,n=1,word=0,bit=7; mpi:senderr@src=1,dst=0,n=4; run:fatal@step=100"
	events, err := Parse(scenario)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 7 {
		t.Fatalf("parsed %d events, want 7", len(events))
	}
	// Re-render and re-parse: the DSL is its own canonical form.
	var parts []string
	for _, e := range events {
		parts = append(parts, e.String())
	}
	again, err := Parse(strings.Join(parts, ";"))
	if err != nil {
		t.Fatalf("re-parse of %q: %v", strings.Join(parts, ";"), err)
	}
	if !reflect.DeepEqual(events, again) {
		t.Errorf("round trip changed events:\n%v\n%v", events, again)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"nonsense",
		"wine2:explode@call=1",
		"venus:transient@call=1",
		"wine2:transient@call=1,step=2",                // both schedules
		"wine2:transient",                              // neither schedule
		"mpi:drop@src=1,dst=1,n=1",                     // src == dst
		"mpi:drop@src=0,dst=1",                         // missing n
		"run:fatal@call=3",                             // fatal is step-keyed
		"mdg:transient@call=x",                         // non-integer
		"wine2:transient@call=1,zork=2",                // unknown key
		"mpi:drop@src=1,dst=0 n=2",                     // malformed pair
		"wine2:board-drop@step=1;run:transient@step=2", // transient on run site
		"mpi:recverr@src=1,dst=0,n=4",                  // folded into senderr: same LinkError
		"mpi:delay@src=0,dst=1,n=3",                    // folded into drop: same message-layer retry
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestParseRefusesUnreadKeys: a key the clause's kind does not read is
// refused with an error naming it, not dropped (dropped, the bitflip probe
// would schedule wine2:bitflip@step=1,word=0,bit=1). The same keys on a kind
// that reads them still parse.
func TestParseRefusesUnreadKeys(t *testing.T) {
	for _, c := range []struct{ clause, key, reads string }{
		{"wine2:bitflip@step=1,word=0,bit=1,board=3", "board=", "wine2:transient@step=1,board=3"},
		{"mdg:transient@call=1,offset=5", "offset=", "store:bitrot@read=1,offset=5"},
		{"run:fatal@step=3,src=1", "src=", "mpi:drop@src=1,dst=0,n=1"},
		{"mpi:drop@src=1,dst=0,n=1,call=4", "call=", "mdg:transient@call=4"},
	} {
		if _, err := Parse(c.clause); err == nil || !strings.Contains(err.Error(), c.key) {
			t.Errorf("Parse(%q) = %v, want an error naming %s", c.clause, err, c.key)
		}
		if _, err := Parse(c.reads); err != nil {
			t.Errorf("Parse(%q): %v", c.reads, err)
		}
	}
}

func TestHardwareCallSchedule(t *testing.T) {
	in, err := ParseInjector("mdg:transient@call=2; wine2:board-drop@call=1,board=5")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.HardwareCall(MDG2); err != nil {
		t.Fatalf("call 1 failed: %v", err)
	}
	err = in.HardwareCall(MDG2)
	var te *TransientError
	if !errors.As(err, &te) || te.Site != MDG2 {
		t.Fatalf("call 2 = %v, want TransientError on mdg", err)
	}
	if err := in.HardwareCall(MDG2); err != nil {
		t.Fatalf("call 3 failed after transient: %v", err)
	}
	err = in.HardwareCall(WINE2)
	var be *BoardError
	if !errors.As(err, &be) || be.Board != 5 {
		t.Fatalf("wine2 call 1 = %v, want BoardError board 5", err)
	}
	// The dropout event fires once: the *schedule* is consumed even though a
	// real board stays dead until the host re-stripes around it.
	if err := in.HardwareCall(WINE2); err != nil {
		t.Fatalf("wine2 call 2 after consumed dropout: %v", err)
	}
	if got := in.Remaining(); got != 0 {
		t.Errorf("Remaining = %d", got)
	}
	if got := len(in.Fired()); got != 2 {
		t.Errorf("Fired = %d entries", got)
	}
}

func TestStepKeyedEvents(t *testing.T) {
	in, err := ParseInjector("wine2:transient@step=3")
	if err != nil {
		t.Fatal(err)
	}
	in.BeginStep(1)
	if err := in.HardwareCall(WINE2); err != nil {
		t.Fatalf("step 1: %v", err)
	}
	in.BeginStep(3)
	if err := in.HardwareCall(WINE2); err == nil {
		t.Fatal("step 3 call did not fire")
	}
	if err := in.HardwareCall(WINE2); err != nil {
		t.Fatalf("second call in step 3: %v", err)
	}
}

func TestPendingFlip(t *testing.T) {
	in, err := ParseInjector("mdg:bitflip@call=1,word=9,bit=13")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := in.PendingFlip(MDG2); ok {
		t.Fatal("flip pending before any call")
	}
	if err := in.HardwareCall(MDG2); err != nil {
		t.Fatalf("bitflip call errored: %v", err)
	}
	word, bit, ok := in.PendingFlip(MDG2)
	if !ok || word != 9 || bit != 13 {
		t.Fatalf("PendingFlip = (%d, %d, %v)", word, bit, ok)
	}
	if _, _, ok := in.PendingFlip(MDG2); ok {
		t.Fatal("flip not consumed")
	}
}

func TestMessageFates(t *testing.T) {
	in, err := ParseInjector("mpi:drop@src=1,dst=0,n=2; mpi:senderr@src=1,dst=0,n=3;" +
		"mpi:corrupt@src=2,dst=0,n=1,word=3,bit=8")
	if err != nil {
		t.Fatal(err)
	}
	if f := in.SendFate(1, 0); f != (Fate{}) {
		t.Errorf("msg 1: %+v", f)
	}
	if f := in.SendFate(1, 0); !f.Drop {
		t.Errorf("msg 2 not dropped: %+v", f)
	}
	f := in.SendFate(1, 0)
	var le *LinkError
	if !errors.As(f.Err, &le) {
		t.Errorf("msg 3 err = %v", f.Err)
	}
	if f := in.SendFate(2, 0); !f.Corrupt || f.Word != 3 || f.Bit != 8 {
		t.Errorf("corrupt fate = %+v", f)
	}
}

func TestStepFault(t *testing.T) {
	in, err := ParseInjector("run:fatal@step=4")
	if err != nil {
		t.Fatal(err)
	}
	in.BeginStep(3)
	if err := in.StepFault(); err != nil {
		t.Fatalf("step 3: %v", err)
	}
	in.BeginStep(4)
	err = in.StepFault()
	var fe *FatalError
	if !errors.As(err, &fe) || fe.Step != 4 {
		t.Fatalf("step 4 = %v, want FatalError", err)
	}
	if err := in.StepFault(); err != nil {
		t.Fatalf("fatal refired: %v", err)
	}
}

func TestDeterministicFiringLog(t *testing.T) {
	// The same scenario driven by the same call sequence yields the
	// identical firing log — the reproducibility the chaos tests rely on.
	run := func() []string {
		in, err := ParseInjector("mdg:transient@call=2; wine2:bitflip@call=1,word=0,bit=3; run:fatal@step=2")
		if err != nil {
			t.Fatal(err)
		}
		in.BeginStep(1)
		_ = in.StepFault()
		_ = in.HardwareCall(MDG2)
		_ = in.HardwareCall(WINE2)
		in.PendingFlip(WINE2)
		in.BeginStep(2)
		_ = in.StepFault()
		_ = in.HardwareCall(MDG2)
		return in.Fired()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("firing logs differ:\n%v\n%v", a, b)
	}
	if len(a) != 3 {
		t.Errorf("fired %d events, want 3: %v", len(a), a)
	}
}

func TestFlipFloat64(t *testing.T) {
	v := 1.5
	w := FlipFloat64(v, 3)
	if w == v {
		t.Error("flip changed nothing")
	}
	if got := FlipFloat64(w, 3); got != v {
		t.Errorf("double flip = %g, want %g", got, v)
	}
	// High-exponent flips produce the NaN/Inf/huge values the sanity guards
	// must catch.
	if hi := FlipFloat64(1.0, 62); !math.IsInf(hi, 0) && math.Abs(hi) < 1e100 && !math.IsNaN(hi) {
		t.Errorf("bit-62 flip of 1.0 = %g, expected a wild value", hi)
	}
}
