// Package fault is the deterministic fault-injection layer of the MDM
// reproduction. The paper's headline run held 2,304 ASIC chips busy for 36.5
// hours (§5); at that scale the machine's real enemy is not flops but a flaky
// board, a hung Myrinet link, or a bit flip mid-stream — the GRAPE lineage
// papers treat chip-count-versus-reliability as an explicit design axis. This
// package provides the *schedule* of such faults: a scriptable, seeded
// Injector whose hooks are threaded into the simulated hardware
// (internal/wine2, internal/mdgrape2) and the message-passing substrate
// (internal/mpi), so the recovery policy in internal/core can be exercised
// end-to-end and reproducibly.
//
// Determinism contract: every event fires exactly once, at a position fixed
// by the scenario (a per-site hardware call count, a simulation step, or a
// per-(src,dst) message count). Scheduling events in distinct steps
// guarantees bit-identical recovery reports across runs even on the parallel
// path, where goroutine interleaving decides which *rank* observes a fault
// but never *whether* or *when* (in steps) it fires.
package fault

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"
)

// Site identifies an injection point in the machine stack.
type Site string

// The injectable subsystems.
const (
	WINE2 Site = "wine2" // wavenumber-space engine (internal/wine2)
	MDG2  Site = "mdg"   // real-space engine (internal/mdgrape2)
	MPI   Site = "mpi"   // message-passing substrate (internal/mpi)
	Run   Site = "run"   // the run itself (fatal host faults)
	Store Site = "store" // durable storage layer (internal/store VFS)
)

// Kind enumerates the fault classes the injector can schedule.
type Kind int

// The fault classes.
const (
	// BoardDrop permanently kills one hardware board: every calculation call
	// on the site fails with *BoardError until the host re-stripes the work
	// across the surviving boards.
	BoardDrop Kind = iota
	// Transient fails exactly one hardware call with *TransientError; a
	// retry succeeds.
	Transient
	// BitFlip corrupts one bit of one pipeline-memory word during one
	// hardware call (a WINE-2 DFT accumulator or an MDGRAPE-2 force word).
	BitFlip
	// MsgDrop silently discards one MPI message on the wire.
	MsgDrop
	// MsgCorrupt flips one bit of one MPI message payload.
	MsgCorrupt
	// SendErr fails one MPI send with a transient link error.
	SendErr
	// Fatal kills the whole run at a step (host crash); only a
	// restart-from-checkpoint recovers.
	Fatal
	// Hang wedges one hardware call: the call blocks until the watchdog
	// releases it (Injector.ReleaseHangs) or MaxHang elapses, then fails
	// with *StallError; a retry succeeds.
	Hang
	// IOErr fails one store operation (read, write, create, rename or sync)
	// with an I/O error; the filesystem stays up.
	IOErr
	// BitRot corrupts one store read: the bit at byte Offset of the data
	// returned by the Op-th read is flipped, simulating silent on-disk decay
	// that only a checksum can catch.
	BitRot
	// Crash is a power cut at the Op-th store operation of the given class:
	// the operation has no effect, unsynced data is lost, and all further
	// storage operations fail. A write-keyed crash may tear the write: the
	// first Bytes bytes of its buffer persist.
	Crash
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case BoardDrop:
		return "board-drop"
	case Transient:
		return "transient"
	case BitFlip:
		return "bitflip"
	case MsgDrop:
		return "drop"
	case MsgCorrupt:
		return "corrupt"
	case SendErr:
		return "senderr"
	case Fatal:
		return "fatal"
	case Hang:
		return "hang"
	case IOErr:
		return "eio"
	case BitRot:
		return "bitrot"
	case Crash:
		return "crash"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault.
type Event struct {
	Site Site
	Kind Kind

	// Hardware scheduling (BoardDrop, Transient, BitFlip, Fatal): fire on
	// the site's Call-th hardware call (Call > 0), or on the first call of
	// simulation step Step (Step > 0, counted by Injector.BeginStep).
	Call int64
	Step int

	// Board names the board killed by BoardDrop, or attributes a Transient
	// or Hang to a specific board so the circuit-breaker layer can quarantine
	// a chronically flaky one (-1 = unattributed).
	Board int
	// Word and Bit locate a BitFlip / MsgCorrupt: Word indexes the corrupted
	// memory word (wave index on WINE-2, flattened force component on
	// MDGRAPE-2, float64 element of an MPI payload), Bit the bit within it.
	Word int
	Bit  int

	// Message scheduling (MsgDrop, MsgCorrupt, SendErr): fire on the Nth
	// message of the (Src → Dst) pair. Per-pair counts are deterministic
	// because each rank's sends are program-ordered.
	Src, Dst int
	Nth      int64

	// Store scheduling (IOErr, BitRot, Crash): fire on the Op-th
	// storage operation of class OpClass ("write", "read", "create", "rename"
	// or "sync"), counted per class by the injection-aware filesystem. Per-class counts are deterministic because
	// the storage layer is driven from the program-ordered step loop.
	Op      int64
	OpClass string
	// Bytes is how many bytes of a write-keyed Crash's buffer persist before
	// the simulated power cut (0 = the write is lost entirely).
	Bytes int
	// Offset is the byte a BitRot corrupts within the data returned by the
	// targeted read.
	Offset int64
}

// String renders the event in the scenario DSL syntax (see Parse).
func (e Event) String() string {
	switch e.Kind {
	case BoardDrop:
		return fmt.Sprintf("%s:%s@%s,board=%d", e.Site, e.Kind, e.when(), e.Board)
	case Transient, Hang:
		if e.Board >= 0 {
			return fmt.Sprintf("%s:%s@%s,board=%d", e.Site, e.Kind, e.when(), e.Board)
		}
		return fmt.Sprintf("%s:%s@%s", e.Site, e.Kind, e.when())
	case Fatal:
		return fmt.Sprintf("%s:%s@%s", e.Site, e.Kind, e.when())
	case BitFlip:
		return fmt.Sprintf("%s:%s@%s,word=%d,bit=%d", e.Site, e.Kind, e.when(), e.Word, e.Bit)
	case MsgDrop, SendErr:
		return fmt.Sprintf("%s:%s@src=%d,dst=%d,n=%d", e.Site, e.Kind, e.Src, e.Dst, e.Nth)
	case MsgCorrupt:
		return fmt.Sprintf("%s:%s@src=%d,dst=%d,n=%d,word=%d,bit=%d", e.Site, e.Kind, e.Src, e.Dst, e.Nth, e.Word, e.Bit)
	case BitRot:
		return fmt.Sprintf("%s:%s@%s=%d,offset=%d", e.Site, e.Kind, e.OpClass, e.Op, e.Offset)
	case Crash:
		if e.Bytes > 0 {
			return fmt.Sprintf("%s:%s@%s=%d,bytes=%d", e.Site, e.Kind, e.OpClass, e.Op, e.Bytes)
		}
		return fmt.Sprintf("%s:%s@%s=%d", e.Site, e.Kind, e.OpClass, e.Op)
	case IOErr:
		return fmt.Sprintf("%s:%s@%s=%d", e.Site, e.Kind, e.OpClass, e.Op)
	}
	return fmt.Sprintf("%s:%s", e.Site, e.Kind)
}

func (e Event) when() string {
	if e.Call > 0 {
		return fmt.Sprintf("call=%d", e.Call)
	}
	return fmt.Sprintf("step=%d", e.Step)
}

// validate reports scheduling errors in an event.
func (e Event) validate() error {
	if e.Bytes > 0 && (e.Kind != Crash || e.OpClass != OpWrite) {
		return fmt.Errorf("fault: bytes= tears only a %s:%s@%s= event", Store, Crash, OpWrite)
	}
	switch e.Kind {
	case BoardDrop, Transient, BitFlip, Hang:
		if e.Site != WINE2 && e.Site != MDG2 {
			return fmt.Errorf("fault: %s event on non-hardware site %q", e.Kind, e.Site)
		}
		if (e.Call > 0) == (e.Step > 0) {
			return fmt.Errorf("fault: %s event needs exactly one of call= or step=", e.Kind)
		}
	case Fatal:
		if e.Site != Run {
			return fmt.Errorf("fault: fatal event must use site %q", Run)
		}
		if e.Step <= 0 {
			return fmt.Errorf("fault: fatal event needs step=")
		}
	case MsgDrop, MsgCorrupt, SendErr:
		if e.Site != MPI {
			return fmt.Errorf("fault: %s event on non-mpi site %q", e.Kind, e.Site)
		}
		if e.Src < 0 || e.Dst < 0 || e.Src == e.Dst {
			return fmt.Errorf("fault: %s event needs distinct src= and dst=", e.Kind)
		}
		if e.Nth <= 0 {
			return fmt.Errorf("fault: %s event needs n= (per-pair message count)", e.Kind)
		}
	case IOErr, BitRot, Crash:
		if e.Site != Store {
			return fmt.Errorf("fault: %s event must use site %q", e.Kind, Store)
		}
		if e.Op <= 0 || e.OpClass == "" {
			return fmt.Errorf("fault: %s event needs exactly one of %s=, %s=, %s=, %s= or %s=",
				e.Kind, OpWrite, OpRead, OpCreate, OpRename, OpSync)
		}
		want := storeOpClasses[e.Kind]
		ok := false
		for _, c := range want {
			if e.OpClass == c {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("fault: %s event cannot be keyed by %s= (allowed: %s)",
				e.Kind, e.OpClass, strings.Join(want, ", "))
		}
	default:
		return fmt.Errorf("fault: unknown event kind %d", int(e.Kind))
	}
	return nil
}

// BoardError reports a permanently failed board. The recovery layer reacts
// by re-striping work across the surviving boards.
type BoardError struct {
	Site  Site
	Board int
}

// Error implements error.
//
//mdm:hotallocok -- error rendering: reached only once a fault fired, off the clean step path
func (e *BoardError) Error() string {
	return fmt.Sprintf("fault: %s board %d down", e.Site, e.Board)
}

// TransientError reports a one-shot hardware hiccup; a retry succeeds.
// Board attributes the hiccup to a specific board when the scenario named
// one (-1 = unattributed); the circuit-breaker layer uses it to quarantine
// chronically flaky boards.
type TransientError struct {
	Site  Site
	Board int
}

// Error implements error.
//
//mdm:hotallocok -- error rendering: reached only once a fault fired, off the clean step path
func (e *TransientError) Error() string {
	return fmt.Sprintf("fault: transient %s error", e.Site)
}

// StallError reports a hardware call that stopped making progress and was
// interrupted — by the watchdog releasing an injected hang, or by the MaxHang
// backstop on an unsupervised run. It is retryable; Board names the wedged
// board when the scenario attributed one (-1 = unattributed).
type StallError struct {
	Site  Site
	Board int
}

// Error implements error.
//
//mdm:hotallocok -- error rendering: reached only once a fault fired, off the clean step path
func (e *StallError) Error() string {
	return fmt.Sprintf("fault: %s stalled (watchdog)", e.Site)
}

// LinkError reports a transient message-passing failure (SendErr).
type LinkError struct {
	Src, Dst int
}

// Error implements error.
//
//mdm:hotallocok -- error rendering: reached only once a fault fired, off the clean step path
func (e *LinkError) Error() string {
	return fmt.Sprintf("fault: link %d→%d transient error", e.Src, e.Dst)
}

// FatalError reports an unrecoverable host fault; only a restart from the
// last checkpoint continues the run.
type FatalError struct {
	Step int
}

// Error implements error.
//
//mdm:hotallocok -- error rendering: reached only once a fault fired, off the clean step path
func (e *FatalError) Error() string {
	return fmt.Sprintf("fault: fatal host fault at step %d", e.Step)
}

// Fate is the injector's verdict on one MPI message, consulted by the
// substrate on every send when a hook is installed.
type Fate struct {
	Drop    bool  // discard the message on the wire
	Corrupt bool  // flip one payload bit
	Word    int   // corrupted payload element (Corrupt only)
	Bit     int   // corrupted bit within the element (Corrupt only)
	Err     error // fail the operation instead (nil = proceed)
}

// Storage-operation classes: the per-class counters store events are keyed
// against. "create" also counts append-opens (both materialize a directory
// entry or a writable handle); "sync" counts file fsyncs and directory fsyncs
// on one clock, in program order.
const (
	OpWrite  = "write"
	OpRead   = "read"
	OpCreate = "create"
	OpRename = "rename"
	OpSync   = "sync"
)

// storeOpClasses lists which operation classes each store fault kind may be
// keyed by.
var storeOpClasses = map[Kind][]string{
	IOErr:  {OpWrite, OpRead, OpCreate, OpRename, OpSync},
	BitRot: {OpRead},
	Crash:  {OpWrite, OpRead, OpCreate, OpRename, OpSync},
}

// StoreFate is the injector's verdict on one storage operation, consulted by
// the store VFS (internal/store.FaultFS) on every call when a hook is
// installed. The zero value lets the operation proceed.
type StoreFate struct {
	Hit    bool  // an event fired for this operation
	Kind   Kind  // IOErr, BitRot or Crash
	Bytes  int   // write-keyed Crash: bytes of the buffer that persist
	Offset int64 // BitRot: byte offset to corrupt in the returned data
}

// StoreHook is the injection surface the storage layer consults. *Injector
// implements it; internal/store holds it as an interface so it stays testable
// with local fakes.
type StoreHook interface {
	// StoreOp fires at every storage operation of the given class (OpWrite,
	// OpRead, OpCreate, OpRename, OpSync) and reports the operation's fate.
	StoreOp(class string) StoreFate
}

// MaxHang bounds an injected hang when no watchdog is armed: the wedged call
// returns a StallError on its own after this long, so a scenario cannot block
// an unsupervised run forever.
const MaxHang = 2 * time.Second

// HardwareHook is the injection surface the simulated hardware consults.
// *Injector implements it; the hardware packages hold it as an interface so
// they stay testable with local fakes.
type HardwareHook interface {
	// HardwareCall fires at the entry of every calculation call on a site.
	// A non-nil return (typed *BoardError or *TransientError) makes the
	// call fail.
	HardwareCall(site Site) error
	// PendingFlip reports a bit flip scheduled for the current call at the
	// site and consumes it: the word index and bit to corrupt.
	PendingFlip(site Site) (word, bit int, ok bool)
}

// Injector holds a fault schedule and the live counters it fires against.
// All methods are safe for concurrent use by the SPMD rank goroutines.
type Injector struct {
	mu     sync.Mutex
	events []*scheduled
	step   int
	calls  map[Site]int64
	flips  map[Site]*scheduled // registered for the current call, unconsumed
	sends  map[[2]int]int64
	stores map[string]int64
	fired  []string
	hangs  []chan struct{}
}

type scheduled struct {
	Event
	fired bool
}

// NewInjector builds an injector over a validated fault schedule.
func NewInjector(events ...Event) (*Injector, error) {
	in := &Injector{
		calls:  make(map[Site]int64),
		flips:  make(map[Site]*scheduled),
		sends:  make(map[[2]int]int64),
		stores: make(map[string]int64),
	}
	for i, e := range events {
		if err := e.validate(); err != nil {
			return nil, fmt.Errorf("%w (event %d)", err, i)
		}
		in.events = append(in.events, &scheduled{Event: e})
	}
	return in, nil
}

// BeginStep advances the injector's step clock; step-keyed events arm for
// the hardware calls that follow. The recovery layer calls it once per force
// step.
func (in *Injector) BeginStep(step int) {
	in.mu.Lock()
	in.step = step
	in.mu.Unlock()
}

// StepFault reports a Fatal event scheduled for the current step, firing it.
func (in *Injector) StepFault() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, e := range in.events {
		if e.fired || e.Kind != Fatal || e.Step != in.step {
			continue
		}
		in.fire(e)
		return &FatalError{Step: in.step}
	}
	return nil
}

// HardwareCall implements HardwareHook. An armed Hang event blocks the call
// after the injector lock is released, so concurrent ranks and the watchdog
// stay live while one "board" is wedged.
func (in *Injector) HardwareCall(site Site) error {
	in.mu.Lock()
	in.calls[site]++
	n := in.calls[site]
	var failure, hang *scheduled
	for _, e := range in.events {
		if e.fired || e.Site != site {
			continue
		}
		switch e.Kind {
		case BoardDrop, Transient, BitFlip, Hang:
		default:
			continue
		}
		if !(e.Call == n || (e.Call == 0 && e.Step > 0 && e.Step == in.step)) {
			continue
		}
		switch e.Kind {
		case BitFlip:
			// Arm the flip for this call; the pipeline consumes it via
			// PendingFlip at its memory-readout point.
			in.fire(e)
			in.flips[site] = e
		case Hang:
			if hang == nil {
				in.fire(e)
				hang = e
			}
		default:
			if failure == nil {
				failure = e
			}
		}
	}
	var release chan struct{}
	if hang != nil {
		release = make(chan struct{})
		in.hangs = append(in.hangs, release)
	}
	if failure != nil {
		in.fire(failure)
	}
	in.mu.Unlock()

	if hang != nil {
		select {
		case <-release:
		//mdm:wallclockok -- MaxHang backstop on a deliberately injected hang; fires only in fault scenarios
		case <-time.After(MaxHang):
		}
		return &StallError{Site: site, Board: hang.Board}
	}
	if failure == nil {
		return nil
	}
	switch failure.Kind {
	case BoardDrop:
		return &BoardError{Site: site, Board: failure.Board}
	default:
		return &TransientError{Site: site, Board: failure.Board}
	}
}

// ReleaseHangs unblocks every hardware call currently wedged by a Hang event;
// each returns a *StallError to its caller. The watchdog invokes it when it
// declares a stall, converting silent non-progress into a retryable error.
func (in *Injector) ReleaseHangs() {
	in.mu.Lock()
	hangs := in.hangs
	in.hangs = nil
	in.mu.Unlock()
	for _, ch := range hangs {
		close(ch)
	}
}

// PendingFlip implements HardwareHook.
func (in *Injector) PendingFlip(site Site) (word, bit int, ok bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	e := in.flips[site]
	if e == nil {
		return 0, 0, false
	}
	delete(in.flips, site)
	return e.Word, e.Bit, true
}

// SendFate decides the fate of the next (src → dst) message. It implements
// the mpi fault-hook interface.
func (in *Injector) SendFate(src, dst int) Fate {
	in.mu.Lock()
	defer in.mu.Unlock()
	key := [2]int{src, dst}
	in.sends[key]++
	n := in.sends[key]
	for _, e := range in.events {
		if e.fired || e.Site != MPI || e.Src != src || e.Dst != dst || e.Nth != n {
			continue
		}
		switch e.Kind {
		case MsgDrop:
			in.fire(e)
			return Fate{Drop: true}
		case MsgCorrupt:
			in.fire(e)
			return Fate{Corrupt: true, Word: e.Word, Bit: e.Bit}
		case SendErr:
			in.fire(e)
			return Fate{Err: &LinkError{Src: src, Dst: dst}}
		}
	}
	return Fate{}
}

// StoreOp implements StoreHook: it advances the per-class storage-operation
// counter and fires the first unfired store event keyed to this operation.
func (in *Injector) StoreOp(class string) StoreFate {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stores[class]++
	n := in.stores[class]
	for _, e := range in.events {
		if e.fired || e.Site != Store || e.OpClass != class || e.Op != n {
			continue
		}
		in.fire(e)
		return StoreFate{Hit: true, Kind: e.Kind, Bytes: e.Bytes, Offset: e.Offset}
	}
	return StoreFate{}
}

// fire marks an event consumed and logs it. Callers hold in.mu.
//
//mdm:hotallocok -- fault-event logging: runs only when an injected event fires, never on a clean step
func (in *Injector) fire(e *scheduled) {
	e.fired = true
	in.fired = append(in.fired, fmt.Sprintf("step %d: %s", in.step, e.Event))
}

// Fired returns the log of fired events, in firing order.
func (in *Injector) Fired() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, len(in.fired))
	copy(out, in.fired)
	return out
}

// Consume marks as already-fired the events recorded in a fired log from a
// previous incarnation of the same scenario — the journal's injector cursor —
// so a resumed run does not refire them. Each log line consumes at most one
// matching unfired event; lines that match nothing (counters drifted, or the
// scenario changed) are ignored. Only step-keyed events replay exactly: call-
// and message-count-keyed events are counted from process start, so their
// unfired remainder fires relative to the resumed process's counters.
func (in *Injector) Consume(fired []string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, line := range fired {
		rendered := line
		if _, after, ok := strings.Cut(line, ": "); ok {
			rendered = after
		}
		for _, e := range in.events {
			if !e.fired && e.Event.String() == rendered {
				e.fired = true
				in.fired = append(in.fired, line)
				break
			}
		}
	}
}

// Remaining returns how many scheduled events have not fired yet.
func (in *Injector) Remaining() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, e := range in.events {
		if !e.fired {
			n++
		}
	}
	return n
}

// FlipFloat64 flips one bit of a float64 — the corruption primitive shared
// by the pipeline-memory and message-payload injection points.
func FlipFloat64(v float64, bit int) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ 1<<uint(bit&63))
}
