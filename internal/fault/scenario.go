package fault

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// The scenario DSL: semicolon-separated clauses, each
//
//	site:kind@key=value,key=value,...
//
// Sites: wine2, mdg, mpi, run, store. Each kind reaches one rung of the
// recovery ladder. Kinds and their keys:
//
//	wine2:board-drop@step=3,board=2      kill WINE-2 board 2 in step 3 (re-stripe)
//	mdg:transient@call=7                 fail the 7th MDGRAPE-2 call once (retry)
//	wine2:bitflip@step=5,word=12,bit=40  flip bit 40 of DFT accumulator 12 (suspect retry)
//	mdg:hang@step=6                      wedge a call until the watchdog fires (stall retry)
//	mpi:drop@src=1,dst=0,n=2             drop the 2nd message rank 1 → 0 (message-layer retry)
//	mpi:corrupt@src=0,dst=2,n=1,word=0,bit=7
//	mpi:senderr@src=1,dst=0,n=4          transient link error on send (link retry)
//	run:fatal@step=100                   host crash: restart from checkpoint
//	store:crash@rename=1                 power cut just before the 1st rename
//	store:crash@sync=2                   power cut at the 2nd fsync
//	store:crash@write=3,bytes=10         power cut mid-write: 10 bytes of it persist
//	store:eio@write=2                    2nd write fails with an I/O error
//	store:eio@sync=1                     1st fsync fails with an I/O error
//	store:bitrot@read=4,offset=7         flip a bit of byte 7 of the 4th read
//
// transient and hang take an optional board= attributing the fault to one
// board, which lets the circuit-breaker layer quarantine a repeat offender.
// bytes= tears a crash only on a write= key. A key its kind does not read
// (kindKeys) is refused, not dropped.
//
// Hardware clauses take exactly one of call= (per-site hardware call count)
// or step= (simulation step); message clauses address the n-th message of a
// (src, dst) pair, which is deterministic because each rank's sends are
// program-ordered. Store clauses take exactly one of write=, read=, create=,
// rename= or sync= — the N-th storage operation of that class, counted per
// class by the fault-injecting filesystem — which is deterministic because
// one goroutine at a time drives a run's storage: the program-ordered step
// loop, which touches no file while a journal commit it handed off is in
// flight.

// kindNames maps DSL kind tokens to Kind values.
var kindNames = map[string]Kind{
	"board-drop": BoardDrop,
	"transient":  Transient,
	"bitflip":    BitFlip,
	"drop":       MsgDrop,
	"corrupt":    MsgCorrupt,
	"senderr":    SendErr,
	"fatal":      Fatal,
	"hang":       Hang,

	"eio":    IOErr,
	"bitrot": BitRot,
	"crash":  Crash,
}

// kindKeys lists the keys each kind reads; opKey stands for the store
// operation classes, of which storeOpClasses says which a kind may be keyed
// by. Parse refuses any other key: a clause parsed by dropping it would
// schedule less than it says.
var kindKeys = map[Kind][]string{
	BoardDrop:  {"call", "step", "board"},
	Transient:  {"call", "step", "board"},
	Hang:       {"call", "step", "board"},
	BitFlip:    {"call", "step", "word", "bit"},
	Fatal:      {"step"},
	MsgDrop:    {"src", "dst", "n"},
	SendErr:    {"src", "dst", "n"},
	MsgCorrupt: {"src", "dst", "n", "word", "bit"},
	IOErr:      {opKey},
	BitRot:     {opKey, "offset"},
	Crash:      {opKey, "bytes"},
}

// opKey is kindKeys' name for any of the store operation-class keys.
const opKey = "op"

// siteNames maps DSL site tokens to Site values.
var siteNames = map[string]Site{
	string(WINE2): WINE2,
	string(MDG2):  MDG2,
	string(MPI):   MPI,
	string(Run):   Run,
	string(Store): Store,
}

// Parse parses a scenario string into its fault schedule.
func Parse(scenario string) ([]Event, error) {
	var events []Event
	for _, clause := range strings.Split(scenario, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		e, err := parseClause(clause)
		if err != nil {
			return nil, err
		}
		if err := e.validate(); err != nil {
			return nil, fmt.Errorf("%w in %q", err, clause)
		}
		events = append(events, e)
	}
	return events, nil
}

// ParseInjector parses a scenario and builds its injector.
func ParseInjector(scenario string) (*Injector, error) {
	events, err := Parse(scenario)
	if err != nil {
		return nil, err
	}
	return NewInjector(events...)
}

func parseClause(clause string) (Event, error) {
	head, args, hasArgs := strings.Cut(clause, "@")
	siteTok, kindTok, ok := strings.Cut(head, ":")
	if !ok {
		return Event{}, fmt.Errorf("fault: clause %q: want site:kind@key=value,...", clause)
	}
	site, ok := siteNames[strings.TrimSpace(siteTok)]
	if !ok {
		return Event{}, fmt.Errorf("fault: clause %q: unknown site %q", clause, siteTok)
	}
	kind, ok := kindNames[strings.TrimSpace(kindTok)]
	if !ok {
		return Event{}, fmt.Errorf("fault: clause %q: unknown kind %q", clause, kindTok)
	}
	e := Event{Site: site, Kind: kind, Src: -1, Dst: -1}
	if kind == Transient || kind == Hang {
		e.Board = -1 // board attribution is optional for these
	}
	if !hasArgs {
		return e, nil
	}
	for _, kv := range strings.Split(args, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Event{}, fmt.Errorf("fault: clause %q: malformed key=value %q", clause, kv)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return Event{}, fmt.Errorf("fault: clause %q: %s=%q is not an integer", clause, key, val)
		}
		if n < 0 {
			return Event{}, fmt.Errorf("fault: clause %q: %s=%q must be non-negative", clause, key, val)
		}
		key = strings.TrimSpace(key)
		switch key {
		case "call":
			e.Call = n
		case "step":
			e.Step = int(n)
		case "board":
			e.Board = int(n)
		case "word":
			e.Word = int(n)
		case "bit":
			e.Bit = int(n)
		case "src":
			e.Src = int(n)
		case "dst":
			e.Dst = int(n)
		case "n":
			e.Nth = n
		case OpWrite, OpRead, OpCreate, OpRename, OpSync:
			if e.OpClass != "" {
				return Event{}, fmt.Errorf("fault: clause %q: %s= conflicts with %s=", clause, key, e.OpClass)
			}
			e.OpClass = key
			e.Op = n
		case "bytes":
			e.Bytes = int(n)
		case "offset":
			e.Offset = n
		default:
			return Event{}, fmt.Errorf("fault: clause %q: unknown key %q", clause, key)
		}
		read := key
		if e.OpClass == key {
			read = opKey
		}
		if !slices.Contains(kindKeys[kind], read) {
			return Event{}, fmt.Errorf("fault: clause %q: %s:%s reads no %s= key", clause, site, kind, key)
		}
	}
	return e, nil
}
