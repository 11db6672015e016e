// Package mpi provides the in-process message-passing substrate that stands
// in for the MPI library of the paper's host software (§4: "We developed MD
// program written in C for MDM, which is parallelized with Message Passing
// Interface").
//
// A World is a fixed set of ranks; each rank runs in its own goroutine and
// communicates through buffered channels (one FIFO per directed rank pair),
// in the spirit of "share memory by communicating". Point-to-point Send/Recv
// carry one payload type, []float64, under integer tags with strict FIFO
// matching — the deterministic SPMD style of the paper's MD code. That is all
// the decomposed step needs: its five tagged streams, and the wavenumber
// group's all-reduce built on them, are counted per tag (StatsByTag).
//
// Every blocking primitive is bounded: Send and Recv observe the world
// deadline (SetTimeout) and fail with a typed ErrTimeout instead of
// deadlocking, and World.Run cancels the whole group when any rank errors so
// no survivor blocks on a peer that already unwound (ErrCanceled). A
// FaultHook (implemented by fault.Injector) can drop, corrupt, or fail messages
// for chaos testing.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mdm/internal/fault"
)

// RecvTimeout is the default bound on blocking sends and receives. It is
// generous for tests yet keeps hangs debuggable; SetTimeout tightens it.
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

type message struct {
	tag  int
	data []float64
}

// Stats counts traffic through a World.
type Stats struct {
	Messages int64
	Bytes    int64
}

// runGroup is the cancellation scope of one World.Run invocation.
type runGroup struct {
	once sync.Once
	done chan struct{}
}

func (g *runGroup) cancel() { g.once.Do(func() { close(g.done) }) }

type hookBox struct{ h FaultHook }

// tagCounter accumulates per-tag traffic. Counters are atomic so concurrent
// senders on different ranks can share one entry without a write lock.
type tagCounter struct {
	messages atomic.Int64
	bytes    atomic.Int64
}

// World is a communicator universe of a fixed number of ranks.
type World struct {
	size     int
	inbox    [][]chan message // inbox[dst][src]
	messages atomic.Int64
	bytes    atomic.Int64
	timeout  atomic.Int64 // nanoseconds
	group    atomic.Pointer[runGroup]
	hook     atomic.Pointer[hookBox]

	tagMu sync.RWMutex
	tags  map[int]*tagCounter
}

// NewWorld creates a world with the given number of ranks. Channel buffers
// are sized so that common SPMD exchange patterns cannot deadlock.
func NewWorld(size int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: world size %d must be positive", size)
	}
	w := &World{
		size:  size,
		inbox: make([][]chan message, size),
		tags:  make(map[int]*tagCounter),
	}
	w.timeout.Store(int64(RecvTimeout))
	w.hook.Store(&hookBox{})
	for d := 0; d < size; d++ {
		w.inbox[d] = make([]chan message, size)
		for s := 0; s < size; s++ {
			w.inbox[d][s] = make(chan message, 1024)
		}
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

// SetTimeout bounds every blocking Send/Recv. Non-positive durations are
// ignored.
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
	w.group.Store(nil)
	for _, row := range w.inbox {
		for _, ch := range row {
			for len(ch) > 0 {
				<-ch
			}
		}
	}
}

// Comm is one rank's endpoint in a World.
type Comm struct {
	w    *World
	rank int
}

// Comm returns the endpoint for a rank.
func (w *World) Comm(rank int) (*Comm, error) {
	if rank < 0 || rank >= w.size {
		return nil, fmt.Errorf("mpi: rank %d outside world of size %d", rank, w.size)
	}
	return &Comm{w: w, rank: rank}, nil
}

// Run starts one goroutine per rank executing f and waits for all of them.
// When a rank returns a non-nil error the whole group is canceled, so peers
// blocked in Send/Recv unwind with ErrCanceled instead of waiting out their
// deadline on a rank that is already gone. The first real error (by rank
// order, preferring errors that are not cancellation echoes) is returned.
func (w *World) Run(f func(c *Comm) error) error {
	g := &runGroup{done: make(chan struct{})}
	w.group.Store(g)
	defer w.group.Store(nil)
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		//mdm:hotallocok -- rank goroutines launch once per world run, not per step; the per-step work happens inside f
		go func(rank int) {
			defer wg.Done()
			c, err := w.Comm(rank)
			if err == nil {
				err = f(c)
			}
			if err != nil {
				errs[rank] = err
				g.cancel()
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrCanceled) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CancelRun cancels the active Run group from outside it: every rank blocked
// in a Send/Recv unwinds with ErrCanceled. This is the watchdog's
// stalled-rank escalation — when a rank stops making progress, the group is
// torn down as one retryable failure instead of waiting out the deadline on
// every peer. A no-op when no Run is active.
func (w *World) CancelRun() {
	if g := w.group.Load(); g != nil {
		g.cancel()
	}
}

// groupDone returns the active run group's cancellation channel, or nil (a
// channel that never fires) outside Run.
func (w *World) groupDone() <-chan struct{} {
	if g := w.group.Load(); g != nil {
		return g.done
	}
	return nil
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

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
// (below 2^53), so one payload type carries every stream. It blocks only if
// the destination's buffer for this source is full, and then no longer than
// the world deadline (ErrTimeout) or the life of the run group (ErrCanceled).
func (c *Comm) Send(dst, tag int, data []float64) error {
	if dst < 0 || dst >= c.w.size {
		return fmt.Errorf("mpi: send to rank %d outside world of size %d", dst, c.w.size)
	}
	if h := c.w.hook.Load().h; h != nil {
		f := h.SendFate(c.rank, dst)
		if f.Err != nil {
			return fmt.Errorf("mpi: send %d→%d tag %d: %w", c.rank, dst, tag, f.Err)
		}
		if f.Drop {
			return nil // lost on the wire; the receiver's deadline notices
		}
		if f.Corrupt {
			data = corruptPayload(data, f.Word, f.Bit)
		}
	}
	m := message{tag: tag, data: data}
	select {
	case c.w.inbox[dst][c.rank] <- m:
	default:
		timer := time.NewTimer(c.w.Timeout())
		defer timer.Stop()
		select {
		case c.w.inbox[dst][c.rank] <- m:
		case <-timer.C:
			return fmt.Errorf("mpi: send %d→%d tag %d (receiver buffer full): %w", c.rank, dst, tag, ErrTimeout)
		case <-c.w.groupDone():
			return fmt.Errorf("mpi: send %d→%d tag %d: %w", c.rank, dst, tag, ErrCanceled)
		}
	}
	c.w.count(tag, int64(8*len(data)))
	return nil
}

// Recv blocks until the next message from src arrives and returns its
// payload. It fails with a typed ErrTimeout when the world deadline
// (SetTimeout) passes and with ErrCanceled when the run group is torn down.
// The message's tag must equal tag, otherwise an ErrTagMismatch is returned —
// SPMD programs here are deterministic, so a mismatch is a program bug (or
// the wake of a dropped message), not a race.
func (c *Comm) Recv(src, tag int) ([]float64, error) {
	if src < 0 || src >= c.w.size {
		return nil, fmt.Errorf("mpi: recv from rank %d outside world of size %d", src, c.w.size)
	}
	var m message
	select {
	case m = <-c.w.inbox[c.rank][src]: // already queued, no timer needed
	default:
		d := c.w.Timeout()
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case m = <-c.w.inbox[c.rank][src]:
		case <-timer.C:
			return nil, fmt.Errorf("mpi: recv %d←%d tag %d after %v: %w", c.rank, src, tag, d, ErrTimeout)
		case <-c.w.groupDone():
			return nil, fmt.Errorf("mpi: recv %d←%d tag %d: %w", c.rank, src, tag, ErrCanceled)
		}
	}
	if m.tag != tag {
		return nil, fmt.Errorf("mpi: rank %d expected tag %d from %d, got %d: %w", c.rank, tag, src, m.tag, ErrTagMismatch)
	}
	return m.data, nil
}
