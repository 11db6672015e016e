package md

import (
	"bytes"
	"testing"

	"mdm/internal/store"
)

// FuzzReadCheckpoint drives the snapshot-frame decoder with arbitrary log
// images. It must never panic, and any state it accepts must be a valid
// dynamical system that survives a write-and-reread round trip.
func FuzzReadCheckpoint(f *testing.F) {
	sys, err := NewRockSalt(1, 5.64)
	if err != nil {
		f.Fatal(err)
	}
	sys.SetMaxwellVelocities(300, 1)
	fs := store.NewFaultFS(nil)
	if err := WriteCheckpointFS(fs, "run.wal", sys, 7); err != nil {
		f.Fatal(err)
	}
	img, err := fs.ReadFile("run.wal")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	// A current image whose version digit rotted to 1: refused by the CRC
	// that covers it.
	f.Add(bytes.Replace(img, []byte(`"version":2`), []byte(`"version":1`), 1))
	f.Add([]byte(`{"version":3,"l":5.64,"step":0}`))
	f.Add([]byte(`{"version":2,"l":5.64,"step":0,"crc32":12345}`))
	f.Add(img[:len(img)/2])
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, step, err := readImage(data)
		if err != nil {
			return
		}
		if s == nil {
			t.Fatal("nil system without error")
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("accepted invalid system: %v", verr)
		}
		s2, step2 := roundTrip(t, s, step)
		if step2 != step || s2.N() != s.N() {
			t.Fatalf("round trip changed state: step %d->%d, n %d->%d", step, step2, s.N(), s2.N())
		}
	})
}
