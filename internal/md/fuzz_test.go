package md

import (
	"bytes"
	"testing"
)

// FuzzReadCheckpoint drives the checkpoint decoder with arbitrary bytes. It
// must never panic, and any state it accepts must be a valid dynamical system
// that survives a write-and-reread round trip.
func FuzzReadCheckpoint(f *testing.F) {
	sys, err := NewRockSalt(1, 5.64)
	if err != nil {
		f.Fatal(err)
	}
	sys.SetMaxwellVelocities(300, 1)
	var v2 bytes.Buffer
	if err := WriteCheckpoint(&v2, sys, 7); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	// A current image whose version digit rotted to 1: once a checksum-less
	// format, now refused like any unknown version.
	f.Add(bytes.Replace(v2.Bytes(), []byte(`"version":2`), []byte(`"version":1`), 1))
	f.Add([]byte(`{"version":3,"l":5.64,"step":0}`))
	f.Add([]byte(`{"version":2,"l":5.64,"step":0,"crc32":12345}`))
	f.Add([]byte("{\"version\":2,\"l\":5.6"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, step, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		if s == nil {
			t.Fatal("nil system without error")
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("accepted invalid system: %v", verr)
		}
		var out bytes.Buffer
		if werr := WriteCheckpoint(&out, s, step); werr != nil {
			t.Fatalf("accepted state does not re-serialize: %v", werr)
		}
		s2, step2, rerr := ReadCheckpoint(&out)
		if rerr != nil {
			t.Fatalf("round trip failed: %v", rerr)
		}
		if step2 != step || s2.N() != s.N() {
			t.Fatalf("round trip changed state: step %d->%d, n %d->%d", step, step2, s.N(), s2.N())
		}
	})
}
