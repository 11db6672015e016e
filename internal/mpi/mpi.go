// Package mpi provides the in-process message-passing substrate that stands
// in for the MPI library of the paper's host software (§4: "We developed MD
// program written in C for MDM, which is parallelized with Message Passing
// Interface").
//
// A World is a fixed set of ranks; each rank owns one endpoint (Comm), and
// during Run rank 0 runs on the caller's goroutine and every other rank on
// its own. Every directed rank pair has one FIFO that holds
// only the messages in flight, so a world's footprint follows its traffic,
// not its size². Point-to-point Send/Recv carry one payload type, []float64,
// under integer tags with strict FIFO matching — the deterministic SPMD style
// of the paper's MD code. That is all the decomposed step needs: its five
// tagged streams, and the wavenumber group's all-reduce built on them, are
// counted per tag (StatsByTag).
//
// Send never blocks: it appends to the pair's FIFO and wakes the receiver.
// Recv is bounded: it observes the world deadline (SetTimeout) and fails
// with a typed ErrTimeout instead of deadlocking, and World.Run cancels the
// whole group when any rank errors so no survivor blocks on a peer that
// already unwound (ErrCanceled). Every message carries a CRC-32C of its
// payload, taken before the wire can touch it; Recv refuses a payload that
// no longer matches with a *fault.LinkError, as Myrinet's link hardware
// refuses a damaged packet. A FaultHook (implemented by fault.Injector) can
// drop, corrupt, or fail messages for chaos testing.
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mdm/internal/fault"
)

// RecvTimeout is the default bound on blocking receives. It is generous for
// tests yet keeps hangs debuggable; SetTimeout tightens it.
const RecvTimeout = 30 * time.Second

// Typed failure modes. Errors returned by Send/Recv wrap one of these, so
// callers classify with errors.Is.
var (
	// ErrTimeout reports that a bounded primitive hit its deadline.
	ErrTimeout = errors.New("mpi: deadline exceeded")
	// ErrCanceled reports that the run group was canceled because a peer
	// rank failed; the operation was abandoned, not timed out.
	ErrCanceled = errors.New("mpi: run group canceled")
	// ErrTagMismatch reports a message arriving under an unexpected tag. In
	// this strict-FIFO SPMD substrate that is either a program bug or the
	// wake of a dropped message desynchronizing a pair's stream — recovery
	// layers treat it like a lost message and retry the step.
	ErrTagMismatch = errors.New("mpi: tag mismatch")
)

// FaultHook intercepts the message layer for fault injection. *fault.Injector
// implements it; a nil hook costs one atomic load per send.
type FaultHook interface {
	// SendFate decides what happens to the next src→dst message.
	SendFate(src, dst int) fault.Fate
}

// message is one payload in flight. The payload is the sender's slice, not
// a copy; crc is its checksum at Send, before any fault fate.
type message struct {
	tag  int
	data []float64
	crc  uint32
}

// fifo is one directed pair's messages in flight, oldest first: q[head:].
// Popped slots are cleared, so the queue pins no delivered payload, and the
// slice is reused once it drains.
type fifo struct {
	mu   sync.Mutex
	q    []message
	head int
}

func (f *fifo) push(m message) {
	f.mu.Lock()
	if f.head > 0 && len(f.q) == cap(f.q) { // full: slide the live tail down before growing
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, m)
	f.mu.Unlock()
}

func (f *fifo) pop() (message, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.head == len(f.q) {
		return message{}, false
	}
	m := f.q[f.head]
	f.q[f.head] = message{}
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return m, true
}

// Stats counts traffic through a World.
type Stats struct {
	Messages int64
	Bytes    int64
}

type hookBox struct{ h FaultHook }

// tagCounter accumulates per-tag traffic. Counters are atomic so concurrent
// senders on different ranks can share one entry without a write lock.
type tagCounter struct {
	messages atomic.Int64
	bytes    atomic.Int64
}

// World is a communicator universe of a fixed number of ranks. One Run is
// active at a time.
type World struct {
	size     int
	comms    []*Comm
	fifos    []fifo // fifos[dst*size+src]
	messages atomic.Int64
	bytes    atomic.Int64
	timeout  atomic.Int64 // nanoseconds
	hook     atomic.Pointer[hookBox]

	// The run group: Run's rank body, its error slots and its cancellation
	// channel, reused from run to run. done is replaced only after a run
	// was canceled; mu orders cancellation against the start and end of a
	// run, so a late CancelRun cannot reach the next one.
	f        func(c *Comm) error
	errs     []error
	wg       sync.WaitGroup
	mu       sync.Mutex
	done     chan struct{}
	running  bool
	canceled bool

	tagMu sync.RWMutex
	tags  map[int]*tagCounter
}

// NewWorld creates a world with the given number of ranks and their
// endpoints. It holds no message buffers: a pair's FIFO grows to the
// messages a step leaves in flight on it.
func NewWorld(size int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: world size %d must be positive", size)
	}
	w := &World{
		size:  size,
		comms: make([]*Comm, size),
		fifos: make([]fifo, size*size),
		errs:  make([]error, size),
		done:  make(chan struct{}),
		tags:  make(map[int]*tagCounter),
	}
	w.timeout.Store(int64(RecvTimeout))
	w.hook.Store(&hookBox{})
	for r := range w.comms {
		c := &Comm{w: w, rank: r, wake: make(chan struct{}, 1)}
		c.run = c.runRank
		w.comms[r] = c
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Stats returns the accumulated traffic counters.
func (w *World) Stats() Stats {
	return Stats{Messages: w.messages.Load(), Bytes: w.bytes.Load()}
}

// StatsByTag returns a snapshot of the traffic counters broken down by
// message tag, so halo, reduction, and gather traffic are separately
// visible. The returned map is a fresh copy.
func (w *World) StatsByTag() map[int]Stats {
	w.tagMu.RLock()
	defer w.tagMu.RUnlock()
	out := make(map[int]Stats, len(w.tags))
	for tag, tc := range w.tags {
		out[tag] = Stats{Messages: tc.messages.Load(), Bytes: tc.bytes.Load()}
	}
	return out
}

// count records one delivered message of nbytes under tag, in both the
// global and the per-tag counters. The per-tag entry is created on first
// use; the steady-state path is a read-locked map hit plus atomic adds.
func (w *World) count(tag int, nbytes int64) {
	w.messages.Add(1)
	w.bytes.Add(nbytes)
	w.tagMu.RLock()
	tc := w.tags[tag]
	w.tagMu.RUnlock()
	if tc == nil {
		w.tagMu.Lock()
		tc = w.tags[tag]
		if tc == nil {
			tc = &tagCounter{}
			w.tags[tag] = tc
		}
		w.tagMu.Unlock()
	}
	tc.messages.Add(1)
	tc.bytes.Add(nbytes)
}

// SetTimeout bounds every blocking Recv. Non-positive durations are ignored.
func (w *World) SetTimeout(d time.Duration) {
	if d > 0 {
		w.timeout.Store(int64(d))
	}
}

// Timeout returns the current world deadline.
func (w *World) Timeout() time.Duration { return time.Duration(w.timeout.Load()) }

// SetFaultHook installs (or, with nil, removes) the fault-injection hook.
func (w *World) SetFaultHook(h FaultHook) { w.hook.Store(&hookBox{h: h}) }

// Reset drains every in-flight message so an aborted step's stragglers cannot
// be mistaken for the retry's traffic. Call only while no rank goroutines are
// running (Run has returned).
func (w *World) Reset() {
	for i := range w.fifos {
		f := &w.fifos[i]
		clear(f.q)
		f.q, f.head = f.q[:0], 0
	}
	for _, c := range w.comms {
		select {
		case <-c.wake:
		default:
		}
	}
}

// Comm is one rank's endpoint in a World. An endpoint is used by one
// goroutine at a time: its rank's, inside Run.
type Comm struct {
	w    *World
	rank int
	run  func() // runRank, bound once so Run starts a rank without allocating

	// wake holds one token when something happened since the rank last
	// looked: a peer pushed to one of its FIFOs, its deadline timer fired, or
	// the run group was canceled (poke). A rank waits on one source at a time
	// and re-checks that source's FIFO, the group and the clock after every
	// token, so a token meant for another source or an earlier wait costs one
	// spurious wake, never a lost one.
	wake  chan struct{}
	timer *time.Timer // Recv's deadline, pokes after the world timeout; created on the first blocking wait

	crcBuf [512]byte // checksum scratch: the words' little-endian bytes
}

// Comm returns the endpoint for a rank.
func (w *World) Comm(rank int) (*Comm, error) {
	if rank < 0 || rank >= w.size {
		return nil, fmt.Errorf("mpi: rank %d outside world of size %d", rank, w.size)
	}
	return w.comms[rank], nil
}

// Run executes f on every rank and waits for all of them: rank 0 on the
// calling goroutine, every other rank on one goroutine of its own. When a
// rank returns a non-nil error the whole group is canceled, so peers
// blocked in Recv unwind with ErrCanceled instead of waiting out their
// deadline on a rank that is already gone. The first real error (by rank
// order, preferring errors that are not cancellation echoes) is returned.
func (w *World) Run(f func(c *Comm) error) error {
	w.mu.Lock()
	if w.canceled {
		w.done, w.canceled = make(chan struct{}), false
	}
	w.f, w.running = f, true
	w.mu.Unlock()
	clear(w.errs)
	w.wg.Add(w.size)
	for _, c := range w.comms[1:] {
		go c.run()
	}
	w.comms[0].run()
	w.wg.Wait()
	w.mu.Lock()
	w.f, w.running = nil, false
	w.mu.Unlock()
	for _, err := range w.errs {
		if err != nil && !errors.Is(err, ErrCanceled) {
			return err
		}
	}
	for _, err := range w.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runRank is one rank's body in Run.
func (c *Comm) runRank() {
	defer c.w.wg.Done()
	if err := c.w.f(c); err != nil {
		c.w.errs[c.rank] = err
		c.w.CancelRun()
	}
}

// CancelRun cancels the active Run group from outside it: every rank blocked
// in a Recv unwinds with ErrCanceled. This is the watchdog's stalled-rank
// escalation — when a rank stops making progress, the group is torn down as
// one retryable failure instead of waiting out the deadline on every peer.
// A no-op when no Run is active.
func (w *World) CancelRun() {
	w.mu.Lock()
	if w.running && !w.canceled {
		close(w.done)
		w.canceled = true
		for _, c := range w.comms {
			c.poke()
		}
	}
	w.mu.Unlock()
}

// groupDone returns the active run group's cancellation channel, or nil (a
// channel that never fires) outside Run.
func (w *World) groupDone() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.running {
		return w.done
	}
	return nil
}

// Done returns the active run group's cancellation channel, closed when the
// group is canceled (CancelRun, or a rank's error); outside Run, nil, a
// channel that never fires. A rank that blocks on something other than Recv
// selects on it to unwind with the group.
func (c *Comm) Done() <-chan struct{} { return c.w.groupDone() }

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

// castagnoli is the CRC-32C table; on amd64 and arm64 crc32.Update takes the
// CPU's CRC instruction for it.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the CRC-32C of data's words in little-endian order, fed
// through the endpoint's scratch so no call allocates.
func (c *Comm) checksum(data []float64) uint32 {
	var sum uint32
	for len(data) > 0 {
		n := min(len(data), len(c.crcBuf)/8)
		for i, w := range data[:n] {
			binary.LittleEndian.PutUint64(c.crcBuf[8*i:], math.Float64bits(w))
		}
		sum = crc32.Update(sum, castagnoli, c.crcBuf[:8*n])
		data = data[n:]
	}
	return sum
}

// corruptPayload flips one bit of one word of data, in a copy: the sender's
// slice is never modified. An empty payload has no word to flip.
func corruptPayload(data []float64, word, bit int) []float64 {
	if len(data) == 0 {
		return data
	}
	out := make([]float64, len(data))
	copy(out, data)
	i := word % len(out)
	if i < 0 {
		i += len(out)
	}
	out[i] = fault.FlipFloat64(out[i], bit)
	return out
}

// Send delivers data to dst with the given tag; the wire size is 8 B per
// word. Index payloads travel as float64 words too, each an exact integer
// (below 2^53), so one payload type carries every stream. The payload is
// not copied: the caller must leave data unchanged until the receiver has
// read it. Send never blocks; its checksum travels beside the payload and
// is not counted as wire bytes.
func (c *Comm) Send(dst, tag int, data []float64) error {
	if dst < 0 || dst >= c.w.size {
		return fmt.Errorf("mpi: send to rank %d outside world of size %d", dst, c.w.size)
	}
	m := message{tag: tag, data: data, crc: c.checksum(data)}
	if h := c.w.hook.Load().h; h != nil {
		f := h.SendFate(c.rank, dst)
		if f.Err != nil {
			return fmt.Errorf("mpi: send %d→%d tag %d: %w", c.rank, dst, tag, f.Err)
		}
		if f.Drop {
			return nil // lost on the wire; the receiver's deadline notices
		}
		if f.Corrupt {
			m.data = corruptPayload(data, f.Word, f.Bit)
		}
	}
	c.w.fifos[dst*c.w.size+c.rank].push(m)
	c.w.comms[dst].poke()
	c.w.count(tag, int64(8*len(data)))
	return nil
}

// Recv blocks until the next message from src arrives and returns its
// payload. It fails with a typed ErrTimeout when the world deadline
// (SetTimeout) passes and with ErrCanceled when the run group is torn down.
// The message's tag must equal tag, otherwise an ErrTagMismatch is returned —
// SPMD programs here are deterministic, so a mismatch is a program bug (or
// the wake of a dropped message), not a race. A payload whose checksum no
// longer matches was damaged on the wire: a *fault.LinkError from src.
func (c *Comm) Recv(src, tag int) ([]float64, error) {
	if src < 0 || src >= c.w.size {
		return nil, fmt.Errorf("mpi: recv from rank %d outside world of size %d", src, c.w.size)
	}
	f := &c.w.fifos[c.rank*c.w.size+src]
	m, ok := f.pop()
	if !ok { // nothing queued: wait for it
		var err error
		if m, err = c.wait(f, src, tag); err != nil {
			return nil, err
		}
	}
	if m.tag != tag {
		return nil, fmt.Errorf("mpi: rank %d expected tag %d from %d, got %d: %w", c.rank, tag, src, m.tag, ErrTagMismatch)
	}
	if c.checksum(m.data) != m.crc {
		return nil, fmt.Errorf("mpi: recv %d←%d tag %d: payload checksum mismatch: %w", c.rank, src, tag, &fault.LinkError{Src: src, Dst: c.rank})
	}
	return m.data, nil
}

// wait blocks until f yields a message, the world deadline passes or the run
// group is canceled. It checks the FIFO, the group and the clock before
// every block, never only after one: a token that a message and a cancel
// (or the timer) left together is consumed once, and the wait that takes
// the message must leave the cancel to the next. It receives on wake alone, so a blocked wait holds one
// runtime waiter (a select holds one per channel, each kept in the
// scheduler's cache once released). The deadline is the endpoint's one
// function timer, re-armed by each wait: under go.mod's go 1.22 a channel
// timer's first use registers a process-wide godebug metric on the heap.
func (c *Comm) wait(f *fifo, src, tag int) (message, error) {
	d := c.w.Timeout()
	deadline := time.Now().Add(d) //mdm:wallclockok -- the receive deadline only: it decides which error a stalled Recv returns, never simulation state or the journal
	if c.timer == nil {
		c.timer = time.AfterFunc(d, c.poke)
	} else {
		c.timer.Reset(d)
	}
	done := c.w.groupDone()
	for {
		if m, ok := f.pop(); ok {
			c.timer.Stop()
			return m, nil
		}
		select {
		case <-done:
			c.timer.Stop()
			return message{}, fmt.Errorf("mpi: recv %d←%d tag %d: %w", c.rank, src, tag, ErrCanceled)
		default:
		}
		if !time.Now().Before(deadline) { //mdm:wallclockok -- tells the deadline's token from a spurious one; never simulation state or the journal
			return message{}, fmt.Errorf("mpi: recv %d←%d tag %d after %v: %w", c.rank, src, tag, d, ErrTimeout)
		}
		<-c.wake
	}
}

// poke leaves a token in wake, unless one is already pending.
func (c *Comm) poke() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}
