package md

import (
	"bufio"
	"fmt"
	"io"

	"mdm/internal/tosifumi"
	"mdm/internal/vec"
)

// Trajectory I/O in the XYZ format — the "file I/O" duty of the host
// computer in the paper's step schedule (§3.1). Frames are standard XYZ:
// particle count, a comment line (we store the box side as "L=<Å>"), then
// one "<symbol> <x> <y> <z>" line per particle.

// WriteXYZ appends one frame of the system to w. The species symbol comes
// from the particle type (Na/Cl for the two NaCl species, X<i> otherwise).
func WriteXYZ(w io.Writer, s *System, comment string) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d\nL=%.8f %s\n", s.N(), s.L, comment); err != nil {
		return err
	}
	for i := range s.Pos {
		sym := symbolFor(s.Type[i])
		p := s.Pos[i]
		if _, err := fmt.Fprintf(bw, "%s %.8f %.8f %.8f\n", sym, p.X, p.Y, p.Z); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func symbolFor(t int) string {
	switch tosifumi.Species(t) {
	case tosifumi.Na:
		return "Na"
	case tosifumi.Cl:
		return "Cl"
	}
	return fmt.Sprintf("X%d", t)
}

// Frame is one parsed XYZ frame.
type Frame struct {
	L       float64
	Comment string
	Pos     []vec.V
	Type    []int
}
