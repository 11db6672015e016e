package fault

import (
	"strings"
	"testing"
)

// The store DSL round-trips through Event.String, and StoreOp fires each
// event exactly once at its per-class operation count.
func TestStoreDSLRoundTrip(t *testing.T) {
	clauses := []string{
		"store:crash@write=3,bytes=10",
		"store:eio@write=2",
		"store:eio@sync=1",
		"store:bitrot@read=4,offset=7",
		"store:crash@rename=1",
		"store:crash@sync=2",
		"store:eio@create=5",
	}
	for _, c := range clauses {
		events, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c, err)
		}
		if len(events) != 1 {
			t.Fatalf("Parse(%q): %d events, want 1", c, len(events))
		}
		if got := events[0].String(); got != c {
			t.Errorf("round trip: %q -> %q", c, got)
		}
	}
}

func TestStoreDSLRejects(t *testing.T) {
	bad := []string{
		"store:crash@bytes=10",             // no op counter
		"store:crash@read=1,bytes=4",       // only a write tears
		"store:crash@sync=1,bytes=3",       // only a write tears
		"store:eio@write=1,bytes=3",        // only a crash tears
		"store:bitrot@write=1,offset=0",    // bitrot is read-keyed
		"store:bitrot@read=1,write=2",      // two op counters
		"wine2:crash@write=1,bytes=3",      // wrong site
		"store:transient@call=1",           // hardware kind on store site
		"store:torn-write@write=1,bytes=3", // folded into crash@write=1,bytes=3
	}
	for _, c := range bad {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q): want error, got nil", c)
		}
	}
	// The kinds that duplicated crash@rename=N, eio@write=N and
	// crash@write=N,bytes=K are gone.
	for _, c := range []string{"store:crash-before-rename@rename=1", "store:enospc@write=1",
		"store:torn-write@write=1,bytes=3"} {
		if _, err := Parse(c); err == nil || !strings.Contains(err.Error(), "unknown kind") {
			t.Errorf("Parse(%q): %v, want an unknown kind", c, err)
		}
	}
}

func TestStoreOpFiresPerClassCounter(t *testing.T) {
	in, err := ParseInjector("store:eio@write=2; store:eio@sync=1; store:bitrot@read=1,offset=3")
	if err != nil {
		t.Fatal(err)
	}
	if f := in.StoreOp(OpWrite); f.Hit {
		t.Fatalf("write 1 fired: %+v", f)
	}
	if f := in.StoreOp(OpCreate); f.Hit {
		t.Fatalf("create 1 fired: %+v", f)
	}
	f := in.StoreOp(OpWrite)
	if !f.Hit || f.Kind != IOErr {
		t.Fatalf("write 2: got %+v, want IOErr hit", f)
	}
	f = in.StoreOp(OpSync)
	if !f.Hit || f.Kind != IOErr {
		t.Fatalf("sync 1: got %+v, want IOErr hit", f)
	}
	f = in.StoreOp(OpRead)
	if !f.Hit || f.Kind != BitRot || f.Offset != 3 {
		t.Fatalf("read 1: got %+v, want BitRot offset 3", f)
	}
	// Every event fired exactly once; the counters keep advancing silently.
	if got := in.Remaining(); got != 0 {
		t.Fatalf("Remaining() = %d, want 0", got)
	}
	if f := in.StoreOp(OpWrite); f.Hit {
		t.Fatalf("write 3 re-fired: %+v", f)
	}
	fired := in.Fired()
	if len(fired) != 3 || !strings.Contains(fired[0], "store:eio@write=2") {
		t.Fatalf("Fired() = %v", fired)
	}
}
