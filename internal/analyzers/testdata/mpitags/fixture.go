// Fixtures for the mpitags analyzer.
package fixture

import "mdm/internal/mpi"

// Named tags in the style of internal/core.
const (
	tagPing   = 1
	tagPong   = 2
	tagOrphan = 3
	tagGhost  = 4
	tagNoise  = 9
)

func paired(c *mpi.Comm) error {
	// Matched Send/Recv pairs: silent.
	if err := c.Send(1, tagPing, nil); err != nil {
		return err
	}
	if _, err := c.Recv(0, tagPing); err != nil {
		return err
	}
	if err := c.Send(0, tagPong, []float64{1}); err != nil {
		return err
	}
	if _, err := c.RecvFloat64s(1, tagPong); err != nil {
		return err
	}
	return nil
}

func literals(c *mpi.Comm) {
	_ = c.Send(1, 7, nil)        // want `mpi Send with untyped literal tag 7`
	_, _ = c.Recv(1, -3)         // want `mpi Recv with untyped literal tag -3`
	_, _ = c.RecvFloat64s(0, 12) // want `mpi RecvFloat64s with untyped literal tag 12`
	_ = c.Send(1, 11, nil)       //mdm:tagok -- fixture: reviewed one-shot probe
	_ = c.Send(1, tagNoise, nil)
	_, _ = c.Recv(1, tagNoise)
}

func oneSided(c *mpi.Comm) {
	_ = c.Send(1, tagOrphan, nil) // want `tag constant tagOrphan is sent but never received`
	_, _ = c.Recv(1, tagGhost)    // want `tag constant tagGhost is received but never sent`
}

// worldSize is unrelated API surface: no tag argument, never flagged.
func worldSize(c *mpi.Comm) int { return c.Size() }
