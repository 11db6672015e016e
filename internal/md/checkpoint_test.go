package md

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdm/internal/store"
	"mdm/internal/supervise"
)

// readCheckpointFS restores the System and step of the snapshot frame that
// opens the log at path, the way a resume decodes it.
func readCheckpointFS(fsys store.FS, path string) (*System, int, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	recs, err := supervise.ReadJournal(data)
	if len(recs) == 0 {
		return nil, 0, err
	}
	s, err := DecodeState(recs[0].State)
	return s, recs[0].Step, err
}

// roundTrip writes s as the snapshot of a fresh log on a fault filesystem
// and reads it back.
func roundTrip(t *testing.T, s *System, step int) (*System, int) {
	t.Helper()
	fs := store.NewFaultFS(nil)
	if err := WriteCheckpointFS(fs, "run.wal", s, step); err != nil {
		t.Fatal(err)
	}
	restored, got, err := readCheckpointFS(fs, "run.wal")
	if err != nil {
		t.Fatal(err)
	}
	return restored, got
}

func TestCheckpointRoundTrip(t *testing.T) {
	s, _ := NewRockSalt(2, 5.64)
	s.SetMaxwellVelocities(700, 5)
	restored, step := roundTrip(t, s, 123)
	if step != 123 {
		t.Errorf("step = %d", step)
	}
	if restored.L != s.L || restored.N() != s.N() {
		t.Fatalf("geometry mismatch")
	}
	for i := range s.Pos {
		if restored.Pos[i] != s.Pos[i] || restored.Vel[i] != s.Vel[i] {
			t.Fatalf("state mismatch at %d", i)
		}
		if restored.Type[i] != s.Type[i] || restored.Charge[i] != s.Charge[i] || restored.Mass[i] != s.Mass[i] {
			t.Fatalf("metadata mismatch at %d", i)
		}
	}
}

func TestCheckpointResumesIdentically(t *testing.T) {
	// A run split by a checkpoint must be bitwise identical to an unbroken
	// run — the property that makes long campaigns restartable.
	mk := func() (*System, *Integrator) {
		s, _ := NewRockSalt(2, 8.0)
		s.SetMaxwellVelocities(150, 6)
		it, err := NewIntegrator(s, ljFF{eps: 0.01, sigma: 3.0}, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		return s, it
	}
	sA, itA := mk()
	if err := itA.Run(40, nil); err != nil {
		t.Fatal(err)
	}

	sB, itB := mk()
	if err := itB.Run(20, nil); err != nil {
		t.Fatal(err)
	}
	restored, step := roundTrip(t, sB, itB.StepCount())
	if step != 20 {
		t.Fatalf("step = %d", step)
	}
	itC, err := NewIntegrator(restored, ljFF{eps: 0.01, sigma: 3.0}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := itC.Run(20, nil); err != nil {
		t.Fatal(err)
	}
	for i := range sA.Pos {
		if sA.Pos[i] != restored.Pos[i] {
			t.Fatalf("resumed trajectory diverged at particle %d: %v vs %v",
				i, sA.Pos[i], restored.Pos[i])
		}
	}
}

func TestCheckpointErrors(t *testing.T) {
	if _, err := DecodeState([]byte("{")); err == nil {
		t.Error("truncated state accepted")
	}
	// One position, no velocities: well-formed, invalid state.
	if _, err := DecodeState([]byte(`{"l":10,"pos":[{"X":0,"Y":0,"Z":0}]}`)); err == nil {
		t.Error("inconsistent state accepted")
	}
	bad, _ := NewRockSalt(1, 5.64)
	bad.Mass[0] = -1
	if err := WriteCheckpointFS(store.NewFaultFS(nil), "run.wal", bad, 0); err == nil {
		t.Error("invalid state written")
	}
}

// snapshotImage is the log image of a fresh snapshot of a 64-ion system.
func snapshotImage(t *testing.T, step int) []byte {
	t.Helper()
	s, _ := NewRockSalt(2, 5.64)
	s.SetMaxwellVelocities(700, 5)
	fs := store.NewFaultFS(nil)
	if err := WriteCheckpointFS(fs, "run.wal", s, step); err != nil {
		t.Fatal(err)
	}
	img, err := fs.ReadFile("run.wal")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// readImage reads a log image's snapshot the way ReadCheckpointFS does.
func readImage(img []byte) (*System, int, error) {
	fs := store.NewFaultFS(nil)
	f, _ := fs.Create("img")
	f.Write(img)
	return readCheckpointFS(fs, "img")
}

func TestCheckpointTypedErrors(t *testing.T) {
	good := snapshotImage(t, 123)

	// A write torn mid-frame (the crash the atomic commit guards against).
	if _, _, err := readImage(good[:len(good)/2]); !errors.Is(err, supervise.ErrJournalCorrupt) {
		t.Errorf("half a frame: err = %v, want ErrJournalCorrupt", err)
	}
	if _, _, err := readImage(nil); !errors.Is(err, supervise.ErrJournalCorrupt) {
		t.Errorf("empty file: err = %v, want ErrJournalCorrupt", err)
	}

	// Bit rot: still valid JSON, but the body no longer matches the CRC.
	rotted := bytes.Replace(good, []byte(`"step":123`), []byte(`"step":321`), 1)
	if bytes.Equal(rotted, good) {
		t.Fatal("corruption not applied")
	}
	if _, _, err := readImage(rotted); !errors.Is(err, supervise.ErrJournalCorrupt) {
		t.Errorf("rotted frame: err = %v, want ErrJournalCorrupt", err)
	}
	if _, _, err := readImage([]byte("not json\n")); !errors.Is(err, supervise.ErrJournalCorrupt) {
		t.Errorf("garbage: err = %v, want ErrJournalCorrupt", err)
	}

	if _, _, err := readImage([]byte(`{"version":99}` + "\n")); !errors.Is(err, supervise.ErrJournalVersion) {
		t.Errorf("future version: err = %v, want ErrJournalVersion", err)
	}
}

// The version digit is no back door around the checksum: it sits inside the
// CRC-covered body, so rot that turns it from '2' into '1' and flips one
// payload bit is refused as corruption, never restored.
func TestCheckpointVersionBitFlipRejected(t *testing.T) {
	img := snapshotImage(t, 42)
	v := bytes.Index(img, []byte(`"version":2`)) + len(`"version":`)
	p := bytes.Index(img, []byte(`"step":42`)) + len(`"step":`)
	img[v] ^= 0x03 // '2' → '1'
	img[p] ^= 0x01 // '4' → '5': step 52
	if _, _, err := readImage(img); !errors.Is(err, supervise.ErrJournalCorrupt) {
		t.Fatalf("version and payload bit flips: err = %v, want ErrJournalCorrupt", err)
	}
}

func TestCheckpointFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.wal")
	s, _ := NewRockSalt(2, 5.64)
	s.SetMaxwellVelocities(700, 5)
	if err := WriteCheckpointFS(store.OS(), path, s, 10); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a later step: the rename must replace in place.
	s.Pos[0].X += 0.25
	if err := WriteCheckpointFS(store.OS(), path, s, 20); err != nil {
		t.Fatal(err)
	}
	restored, step, err := readCheckpointFS(store.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if step != 20 || restored.Pos[0] != s.Pos[0] {
		t.Errorf("got step %d, pos %v", step, restored.Pos[0])
	}
	// No temp litter: a crash-free write leaves exactly the log.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.wal" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory contents = %v, want [run.wal]", names)
	}
}

func FuzzReadXYZ(f *testing.F) {
	f.Add("2\nL=10.0 frame\nNa 1 2 3\nCl 4 5 6\n")
	f.Add("1\ncomment\nX3 0.5 0.5 0.5\n")
	f.Add("")
	f.Add("0\n\n")
	f.Fuzz(func(t *testing.T, input string) {
		// Must never panic; frames that parse must be self-consistent.
		frames, err := ReadXYZ(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, fr := range frames {
			if len(fr.Pos) != len(fr.Type) {
				t.Fatalf("inconsistent frame: %d pos vs %d types", len(fr.Pos), len(fr.Type))
			}
		}
	})
}

// FuzzReadCheckpoint lives in fuzz_test.go, alongside its seeds and the
// write-and-reread round-trip property.
