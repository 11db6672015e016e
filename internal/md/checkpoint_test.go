package md

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdm/internal/store"
	"mdm/internal/vec"
)

func TestCheckpointRoundTrip(t *testing.T) {
	s, _ := NewRockSalt(2, 5.64)
	s.SetMaxwellVelocities(700, 5)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, s, 123); err != nil {
		t.Fatal(err)
	}
	restored, step, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
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
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, sB, itB.StepCount()); err != nil {
		t.Fatal(err)
	}
	restored, step, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
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
	if _, _, err := ReadCheckpoint(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, _, err := ReadCheckpoint(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("wrong version accepted")
	}
	// One position, no velocities: checksummed correctly, invalid state.
	incons := checkpoint{Version: checkpointVersion, L: 10, Pos: []vec.V{{}}}
	incons.Checksum, _ = payloadCRC(incons)
	b, _ := json.Marshal(incons)
	if _, _, err := ReadCheckpoint(bytes.NewReader(b)); err == nil {
		t.Error("inconsistent state accepted")
	}
	bad, _ := NewRockSalt(1, 5.64)
	bad.Mass[0] = -1
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, bad, 0); err == nil {
		t.Error("invalid state written")
	}
}

func TestCheckpointTypedErrors(t *testing.T) {
	s, _ := NewRockSalt(2, 5.64)
	s.SetMaxwellVelocities(700, 5)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, s, 123); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// A write torn mid-record (the crash WriteCheckpointFS guards against).
	_, _, err := ReadCheckpoint(bytes.NewReader(good[:len(good)/2]))
	if !errors.Is(err, ErrCheckpointTruncated) {
		t.Errorf("half a record: err = %v, want ErrCheckpointTruncated", err)
	}
	if _, _, err := ReadCheckpoint(strings.NewReader("")); !errors.Is(err, ErrCheckpointTruncated) {
		t.Errorf("empty file: err = %v, want ErrCheckpointTruncated", err)
	}

	// Bit rot: still valid JSON, but the payload no longer matches the CRC.
	rotted := bytes.Replace(good, []byte(`"step":123`), []byte(`"step":321`), 1)
	if bytes.Equal(rotted, good) {
		t.Fatal("corruption not applied")
	}
	if _, _, err := ReadCheckpoint(bytes.NewReader(rotted)); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("rotted record: err = %v, want ErrCheckpointCorrupt", err)
	}
	if _, _, err := ReadCheckpoint(strings.NewReader("not json")); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("garbage: err = %v, want ErrCheckpointCorrupt", err)
	}

	if _, _, err := ReadCheckpoint(strings.NewReader(`{"version":99}`)); !errors.Is(err, ErrCheckpointVersion) {
		t.Errorf("future version: err = %v, want ErrCheckpointVersion", err)
	}
}

// The version digit is no back door around the checksum: rot that turns it
// from '2' (0x32) into '1' (0x31) and flips one payload bit must not restore
// the corrupted state as a checksum-less version-1 record.
func TestCheckpointVersionBitFlipRejected(t *testing.T) {
	s, _ := NewRockSalt(2, 5.64)
	s.SetMaxwellVelocities(700, 5)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, s, 42); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	v := bytes.Index(img, []byte(`"version":2`)) + len(`"version":`)
	p := bytes.Index(img, []byte(`"step":42`)) + len(`"step":`)
	img[v] ^= 0x03 // '2' → '1'
	img[p] ^= 0x01 // '4' → '5': step 52
	if _, _, err := ReadCheckpoint(bytes.NewReader(img)); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("version and payload bit flips: err = %v, want ErrCheckpointVersion", err)
	}
}

func TestCheckpointFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
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
	restored, step, err := ReadCheckpointFS(store.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if step != 20 || restored.Pos[0] != s.Pos[0] {
		t.Errorf("got step %d, pos %v", step, restored.Pos[0])
	}
	// No temp litter: a crash-free write leaves exactly the checkpoint.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.ckpt" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory contents = %v, want [run.ckpt]", names)
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
