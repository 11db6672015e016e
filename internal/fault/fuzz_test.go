package fault

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseScenario drives the DSL parser with arbitrary input. The parser
// must never panic, and anything it accepts must satisfy the canonical-form
// property the recovery stack depends on: the rendered events re-parse
// successfully and idempotently (String of the re-parse equals String of the
// parse) to the same events, and the schedule builds an injector.
func FuzzParseScenario(f *testing.F) {
	f.Add("wine2:board-drop@step=3,board=2; mdg:transient@call=7")
	f.Add("mdg:hang@step=6; wine2:hang@call=2,board=1")
	f.Add("mpi:drop@src=0,dst=1,n=3; mpi:senderr@src=1,dst=0,n=4; run:fatal@step=100")
	f.Add("store:crash@write=3,bytes=10; store:eio@sync=1; store:bitrot@read=4,offset=7; store:crash@rename=1")
	f.Add("mdg:transient@step=9,board=1; mpi:corrupt@src=0,dst=2,n=1,word=0,bit=7")
	f.Add("wine2:bitflip@step=5,word=12,bit=40")
	f.Add(" ; ;; mdg:hang@message=2 ; ")
	f.Add("mdg:transient@step=-1")
	f.Add("bogus:kind@step=1")
	f.Fuzz(func(t *testing.T, scenario string) {
		events, err := Parse(scenario)
		if err != nil {
			return
		}
		render := func(evs []Event) string {
			parts := make([]string, len(evs))
			for i, e := range evs {
				parts[i] = e.String()
			}
			return strings.Join(parts, "; ")
		}
		first := render(events)
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("accepted %q but rejected its own rendering %q: %v", scenario, first, err)
		}
		if second := render(again); second != first {
			t.Fatalf("rendering not idempotent:\n  %q\n  %q", first, second)
		}
		// Every key a clause gives is read: its rendering schedules the same
		// events, not fewer fields.
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("%q parsed to %v, its rendering to %v", scenario, events, again)
		}
		if _, err := NewInjector(events...); err != nil {
			t.Fatalf("parsed %q but injector rejected it: %v", scenario, err)
		}
	})
}
