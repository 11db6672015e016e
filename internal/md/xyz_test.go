package md

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"mdm/internal/tosifumi"
	"mdm/internal/vec"
)

func TestXYZRoundTrip(t *testing.T) {
	s, _ := NewRockSalt(2, 5.64)
	var buf bytes.Buffer
	if err := WriteXYZ(&buf, s, "step=0"); err != nil {
		t.Fatal(err)
	}
	if err := WriteXYZ(&buf, s, "step=1"); err != nil {
		t.Fatal(err)
	}
	frames, err := ReadXYZ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("frames = %d", len(frames))
	}
	f := frames[0]
	if f.L != s.L {
		t.Errorf("L = %g, want %g", f.L, s.L)
	}
	if !strings.Contains(f.Comment, "step=0") {
		t.Errorf("comment = %q", f.Comment)
	}
	if len(f.Pos) != s.N() {
		t.Fatalf("particles = %d", len(f.Pos))
	}
	for i := range f.Pos {
		if vec.Dist(f.Pos[i], s.Pos[i]) > 1e-7 {
			t.Fatalf("position %d mismatch", i)
		}
		if f.Type[i] != s.Type[i] {
			t.Fatalf("type %d mismatch", i)
		}
	}
}

func TestXYZSymbols(t *testing.T) {
	if symbolFor(0) != "Na" || symbolFor(1) != "Cl" || symbolFor(5) != "X5" {
		t.Error("symbols wrong")
	}
	if typeFor("Na") != 0 || typeFor("Cl") != 1 || typeFor("X5") != 5 {
		t.Error("type parsing wrong")
	}
}

func TestReadXYZErrors(t *testing.T) {
	cases := []string{
		"abc\ncomment\n",
		"2\ncomment\nNa 1 2 3\n",   // truncated
		"1\ncomment\nNa 1 2\n",     // short line
		"1\ncomment\nNa one 2 3\n", // bad coordinate
		"1\n",                      // missing comment
	}
	for i, c := range cases {
		if _, err := ReadXYZ(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
	// Empty input is zero frames, not an error.
	frames, err := ReadXYZ(strings.NewReader(""))
	if err != nil || len(frames) != 0 {
		t.Errorf("empty input: %v, %d frames", err, len(frames))
	}
}

// ReadXYZ parses consecutive XYZ frames from r until EOF.
func ReadXYZ(r io.Reader) ([]Frame, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var frames []Frame
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		n, err := strconv.Atoi(line)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("md: bad particle count %q in frame %d", line, len(frames))
		}
		if !sc.Scan() {
			return nil, fmt.Errorf("md: missing comment line in frame %d", len(frames))
		}
		f := Frame{Comment: sc.Text()}
		// Parse "L=<value>" from the comment if present.
		for _, tok := range strings.Fields(f.Comment) {
			if v, ok := strings.CutPrefix(tok, "L="); ok {
				if l, err := strconv.ParseFloat(v, 64); err == nil {
					f.L = l
				}
			}
		}
		for k := 0; k < n; k++ {
			if !sc.Scan() {
				return nil, fmt.Errorf("md: frame %d truncated at particle %d", len(frames), k)
			}
			fields := strings.Fields(sc.Text())
			if len(fields) < 4 {
				return nil, fmt.Errorf("md: frame %d particle %d: bad line %q", len(frames), k, sc.Text())
			}
			x, err1 := strconv.ParseFloat(fields[1], 64)
			y, err2 := strconv.ParseFloat(fields[2], 64)
			z, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("md: frame %d particle %d: bad coordinates %q", len(frames), k, sc.Text())
			}
			f.Pos = append(f.Pos, vec.New(x, y, z))
			f.Type = append(f.Type, typeFor(fields[0]))
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return frames, nil
}

func typeFor(sym string) int {
	switch sym {
	case "Na":
		return int(tosifumi.Na)
	case "Cl":
		return int(tosifumi.Cl)
	}
	var t int
	if _, err := fmt.Sscanf(sym, "X%d", &t); err == nil {
		return t
	}
	return 0
}
