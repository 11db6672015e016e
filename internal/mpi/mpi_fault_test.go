package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mdm/internal/fault"
)

// Tags for the failure-mode tests. Receives
// that must time out wait on tagData, which no peer sends them.
const (
	tagFaulty = 21 // traffic routed through a fault hook
	tagStale  = 22 // stale messages drained by Reset
)

// A receive nobody answers returns a typed ErrTimeout once the world
// deadline passes, not long after it.
func TestRecvWithinTimeoutTyped(t *testing.T) {
	w, _ := NewWorld(2)
	w.SetTimeout(30 * time.Millisecond)
	c, _ := w.Comm(0)
	start := time.Now()
	_, err := c.Recv(1, tagData)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("timeout took %v, deadline was 30ms", el)
	}
}

func TestWorldTimeoutBoundsRecv(t *testing.T) {
	w, _ := NewWorld(2)
	w.SetTimeout(20 * time.Millisecond)
	c, _ := w.Comm(0)
	if _, err := c.Recv(1, tagData); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Recv err = %v, want ErrTimeout", err)
	}
}

// A rank failing inside Run cancels the group: peers blocked in a receive from
// it unwind with ErrCanceled immediately rather than burning their full
// deadline, no goroutine outlives Run, and the original error is returned.
func TestRunCancelsGroupOnError(t *testing.T) {
	before := runtime.NumGoroutine()
	w, _ := NewWorld(4)
	w.SetTimeout(10 * time.Second) // cancel must beat this by a wide margin
	sentinel := fmt.Errorf("rank exploded")
	peerErrs := make([]error, 4)
	start := time.Now()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		_, peerErrs[c.Rank()] = c.Recv(2, tagData)
		return peerErrs[c.Rank()]
	})
	if err != sentinel {
		t.Errorf("Run err = %v, want the sentinel unchanged", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("group unwound in %v; cancellation should not wait out the deadline", el)
	}
	for r, perr := range peerErrs {
		if r == 2 {
			continue
		}
		if !errors.Is(perr, ErrCanceled) {
			t.Errorf("rank %d: err = %v, want ErrCanceled", r, perr)
		}
	}
	// Give the runtime a moment, then check Run leaked nothing.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before Run, %d after", before, after)
	}

	// The canceled group stays with its run: the next run, and a CancelRun
	// between runs, leave a receive that must wait for its message alone.
	w.CancelRun()
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			time.Sleep(10 * time.Millisecond) // lets rank 0 reach its wait first
			return c.Send(0, tagData, []float64{1})
		}
		if c.Rank() == 0 {
			_, err := c.Recv(1, tagData)
			return err
		}
		return nil
	})
	if err != nil {
		t.Errorf("run after a canceled run: %v", err)
	}
}

// A cancel and a message that land on one token are seen once each: the
// rank that takes the message after its group was canceled must still see
// the cancel on its next receive, from a rank that sent nothing, instead of
// waiting out its deadline.
func TestCancelSurvivesMergedWakeup(t *testing.T) {
	w, _ := NewWorld(3)
	w.SetTimeout(10 * time.Second) // cancel must beat this by a wide margin
	ready := make(chan struct{})
	var got, next error
	start := time.Now()
	_ = w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 1:
			w.CancelRun()                           // closes the group, leaves rank 0 a token
			err := c.Send(0, tagData, []float64{1}) // its wake merges with that token
			close(ready)
			return err
		case 0:
			<-ready
			// As if rank 0 had been blocked on rank 1 all along: the one
			// token wakes it to the queued message.
			if _, got = c.wait(&w.fifos[1], 1, tagData); got != nil {
				return got
			}
			_, next = c.Recv(2, tagData)
			return next
		}
		return nil
	})
	if got != nil {
		t.Fatalf("the queued message: %v", got)
	}
	if !errors.Is(next, ErrCanceled) {
		t.Errorf("receive after the canceled group's message: err = %v, want ErrCanceled", next)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("the cancel was seen after %v; it should not wait out the deadline", el)
	}
}

func TestFaultHookDropCorruptSendErr(t *testing.T) {
	w, _ := NewWorld(2)
	w.SetTimeout(20 * time.Millisecond)
	in, err := fault.ParseInjector(
		"mpi:drop@src=1,dst=0,n=1; mpi:corrupt@src=1,dst=0,n=2,word=1,bit=3;" +
			"mpi:senderr@src=1,dst=0,n=3")
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaultHook(in)
	defer w.SetFaultHook(nil)
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)

	// Message 1 is dropped: send succeeds, receive times out.
	if err := c1.Send(0, tagFaulty, []float64{1, 2}); err != nil {
		t.Fatalf("dropped send errored: %v", err)
	}
	if _, err := c0.Recv(1, tagFaulty); !errors.Is(err, ErrTimeout) {
		t.Fatalf("dropped message: recv err = %v, want ErrTimeout", err)
	}

	// Message 2 arrives with word 1 bit-flipped: its checksum, taken before
	// the flip, refuses it as a link error from rank 1. The sender's slice
	// is intact.
	orig := []float64{1, 2}
	if err := c1.Send(0, tagFaulty, orig); err != nil {
		t.Fatal(err)
	}
	got, err := c0.Recv(1, tagFaulty)
	var le *fault.LinkError
	if !errors.As(err, &le) || le.Src != 1 || le.Dst != 0 {
		t.Errorf("corrupt fate: recv %v, %v; want a LinkError 1→0", got, err)
	}
	if orig[1] != 2 {
		t.Error("sender's slice was modified")
	}

	// Message 3 fails at the sender with a typed link error.
	err = c1.Send(0, tagFaulty, nil)
	if !errors.As(err, &le) {
		t.Errorf("senderr fate: %v, want LinkError", err)
	}
	if in.Remaining() != 0 {
		t.Errorf("%d events never fired", in.Remaining())
	}
}

func TestResetDrainsInboxes(t *testing.T) {
	w, _ := NewWorld(2)
	w.SetTimeout(20 * time.Millisecond)
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	for i := 0; i < 5; i++ {
		if err := c1.Send(0, tagStale, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Reset()
	if _, err := c0.Recv(1, tagStale); !errors.Is(err, ErrTimeout) {
		t.Fatalf("stale message survived Reset: err = %v", err)
	}
	// The world is fully usable after a Reset.
	if err := c1.Send(0, tagStale, []float64{42}); err != nil {
		t.Fatal(err)
	}
	got, err := c0.Recv(1, tagStale)
	if err != nil || got[0] != 42 {
		t.Fatalf("post-Reset traffic: %v %v", got, err)
	}
}
