package mpi

import (
	"fmt"
	"testing"
)

// Named message tags for the tests' Comm traffic.
const (
	tagData    = 7   // generic paired payload
	tagWrong   = 8   // deliberately never sent: exercises mismatch detection
	tagInvalid = 100 // used only against invalid ranks in validation tests
	tagTraffic = 11  // traffic-stats exchange
	tagRingCW  = 5   // ring exchange, clockwise
	tagRingCCW = 6   // ring exchange, counterclockwise
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
