package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mdm/internal/fault"
)

// Named message tags for the tests' Comm traffic.
const (
	tagData    = 7   // generic paired payload
	tagWrong   = 8   // deliberately never sent: exercises mismatch detection
	tagInvalid = 100 // used only against invalid ranks in validation tests
	tagTraffic = 11  // traffic-stats exchange
	tagRingCW  = 5   // ring exchange, clockwise
	tagRingCCW = 6   // ring exchange, counterclockwise
	tagBurst   = 9   // a burst no receive has drained yet
	tagFanIn   = 10  // many senders, one receiver
)

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("size 0 accepted")
	}
	w, err := NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 4 {
		t.Errorf("Size = %d", w.Size())
	}
	if _, err := w.Comm(4); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := w.Comm(-1); err == nil {
		t.Error("negative rank accepted")
	}
}

func TestSendRecv(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, tagData, []float64{1, 2, 3})
		}
		got, err := c.Recv(0, tagData)
		if err != nil {
			return err
		}
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagMismatch(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, tagData, nil)
		}
		_, err := c.Recv(0, tagWrong)
		if err == nil {
			return fmt.Errorf("tag mismatch not detected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendValidation(t *testing.T) {
	w, _ := NewWorld(2)
	c, _ := w.Comm(0)
	if err := c.Send(5, tagInvalid, nil); err == nil {
		t.Error("send to invalid rank accepted")
	}
	if _, err := c.Recv(5, tagInvalid); err == nil {
		t.Error("recv from invalid rank accepted")
	}
}

func TestTrafficStats(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, tagTraffic, make([]float64, 100))
		}
		_, err := c.Recv(0, tagTraffic)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Messages != 1 {
		t.Errorf("messages = %d", st.Messages)
	}
	if st.Bytes != 800 {
		t.Errorf("bytes = %d, want 800", st.Bytes)
	}
}

func TestStatsByTag(t *testing.T) {
	const tagA, tagB = 7, 8
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, tagA, make([]float64, 10)); err != nil {
				return err
			}
			if err := c.Send(1, tagA, make([]float64, 5)); err != nil {
				return err
			}
			return c.Send(1, tagB, make([]float64, 3))
		}
		if _, err := c.Recv(0, tagA); err != nil {
			return err
		}
		if _, err := c.Recv(0, tagA); err != nil {
			return err
		}
		_, err := c.Recv(0, tagB)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	by := w.StatsByTag()
	if got := by[tagA]; got.Messages != 2 || got.Bytes != 120 {
		t.Errorf("tag %d stats = %+v, want 2 messages / 120 bytes", tagA, got)
	}
	if got := by[tagB]; got.Messages != 1 || got.Bytes != 24 {
		t.Errorf("tag %d stats = %+v, want 1 message / 24 bytes", tagB, got)
	}
	// Per-tag counters must sum to the global counters.
	var msgs, bytes int64
	for _, st := range by {
		msgs += st.Messages
		bytes += st.Bytes
	}
	if tot := w.Stats(); msgs != tot.Messages || bytes != tot.Bytes {
		t.Errorf("per-tag sums (%d msgs, %d bytes) != totals %+v", msgs, bytes, tot)
	}
}

func TestRunPropagatesError(t *testing.T) {
	w, _ := NewWorld(3)
	sentinel := fmt.Errorf("boom")
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Errorf("err = %v, want sentinel", err)
	}
}

// The halo-exchange pattern used by the domain decomposition: every rank
// exchanges with both neighbors in a ring simultaneously.
func TestRingExchangeNoDeadlock(t *testing.T) {
	const p = 8
	w, _ := NewWorld(p)
	err := w.Run(func(c *Comm) error {
		right := (c.Rank() + 1) % p
		left := (c.Rank() + p - 1) % p
		if err := c.Send(right, tagRingCW, []float64{float64(c.Rank())}); err != nil {
			return err
		}
		if err := c.Send(left, tagRingCCW, []float64{float64(c.Rank())}); err != nil {
			return err
		}
		fromLeft, err := c.Recv(left, tagRingCW)
		if err != nil {
			return err
		}
		fromRight, err := c.Recv(right, tagRingCCW)
		if err != nil {
			return err
		}
		if int(fromLeft[0]) != left || int(fromRight[0]) != right {
			return fmt.Errorf("rank %d: got %v %v", c.Rank(), fromLeft, fromRight)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A world holds no message buffers: NewWorld allocates endpoints and empty
// per-pair FIFOs only, so the 27 + 1-rank weak-scaling world stays small.
// (A 1024-message channel per pair held 28² × 32 KB ≈ 25.7 MB.)
func TestNewWorldFootprint(t *testing.T) {
	held := func(size int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w, err := NewWorld(size)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(w)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := held(3), held(28)
	t.Logf("NewWorld(3) allocates %d B, NewWorld(28) %d B", small, large)
	if large >= 128<<10 {
		t.Errorf("NewWorld(28) allocates %d B, want < 128 KB", large)
	}
}

// Send never blocks: a burst far past any fixed buffer queues on the pair's
// FIFO, and the receiver then reads every message in order.
func TestSendNeverBlocks(t *testing.T) {
	const burst = 5000
	w, _ := NewWorld(2)
	w.SetTimeout(20 * time.Millisecond) // a send that blocked would fail fast
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	for i := 0; i < burst; i++ {
		if err := c1.Send(0, tagBurst, []float64{float64(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < burst; i++ {
		got, err := c0.Recv(1, tagBurst)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if len(got) != 1 || got[0] != float64(i) {
			t.Fatalf("recv %d delivered %v", i, got)
		}
	}
	if _, err := c0.Recv(1, tagBurst); !errors.Is(err, ErrTimeout) {
		t.Fatalf("drained FIFO: err = %v, want ErrTimeout", err)
	}
}

// The checksum covers every word of a payload longer than the endpoint's
// 64-word scratch: a flip in the first, the last or a chunk-boundary word
// is a link error from the sender.
func TestChecksumCoversEveryWord(t *testing.T) {
	w, _ := NewWorld(2)
	in, err := fault.ParseInjector("mpi:corrupt@src=1,dst=0,n=1,word=0,bit=0; mpi:corrupt@src=1,dst=0,n=2,word=63,bit=1;" +
		"mpi:corrupt@src=1,dst=0,n=3,word=64,bit=51; mpi:corrupt@src=1,dst=0,n=4,word=199,bit=63")
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaultHook(in)
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	payload := make([]float64, 200)
	for i := range payload {
		payload[i] = float64(i) + 0.5
	}
	for n := 1; n <= 5; n++ {
		if err := c1.Send(0, tagData, payload); err != nil {
			t.Fatal(err)
		}
		got, err := c0.Recv(1, tagData)
		var le *fault.LinkError
		if n <= 4 && !errors.As(err, &le) {
			t.Errorf("message %d: err = %v, want a LinkError", n, err)
		}
		if n == 5 && (err != nil || &got[0] != &payload[0]) {
			t.Errorf("clean message: err = %v", err)
		}
	}
}

// A rank waits on one source at a time while every other source's sends
// wake it too: four senders stream to rank 0, which receives round-robin.
// A wake-up lost to another source's token would surface as ErrTimeout.
func TestFanInLosesNoWakeup(t *testing.T) {
	const p, msgs = 5, 500
	w, _ := NewWorld(p)
	w.SetTimeout(5 * time.Second)
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(0, tagFanIn, []float64{float64(c.Rank()), float64(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			for src := 1; src < p; src++ {
				got, err := c.Recv(src, tagFanIn)
				if err != nil {
					return err
				}
				if got[0] != float64(src) || got[1] != float64(i) {
					return fmt.Errorf("message %d from %d delivered %v", i, src, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
