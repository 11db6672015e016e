package md

import (
	"errors"
	"testing"

	"mdm/internal/fault"
	"mdm/internal/store"
	"mdm/internal/supervise"
)

// The FS-threaded checkpoint path round-trips through the fault filesystem
// and survives a crash once the atomic replace completes.
func TestCheckpointFSRoundTripAndDurability(t *testing.T) {
	s, _ := NewRockSalt(2, 5.64)
	fs := store.NewFaultFS(nil)
	if err := WriteCheckpointFS(fs, "run.wal", s, 7); err != nil {
		t.Fatal(err)
	}
	fs.Reboot(nil)
	got, step, err := readCheckpointFS(fs, "run.wal")
	if err != nil {
		t.Fatal(err)
	}
	if step != 7 || len(got.Pos) != len(s.Pos) {
		t.Fatalf("step=%d n=%d", step, len(got.Pos))
	}
	if _, err := fs.ReadFile(store.TempPath("run.wal")); !store.NotExist(err) {
		t.Fatal("temp file left behind by clean write")
	}
}

// A crash before the commit rename preserves the previous checkpoint — the
// contract WriteCheckpointFS exists to keep.
func TestCheckpointFSCrashBeforeRenameKeepsOld(t *testing.T) {
	s, _ := NewRockSalt(2, 5.64)
	fs := store.NewFaultFS(nil)
	if err := WriteCheckpointFS(fs, "run.wal", s, 5); err != nil {
		t.Fatal(err)
	}
	in, err := fault.ParseInjector("store:crash@rename=1")
	if err != nil {
		t.Fatal(err)
	}
	fs.Reboot(in)
	if werr := WriteCheckpointFS(fs, "run.wal", s, 9); !errors.Is(werr, store.ErrCrashed) {
		t.Fatalf("crashed write: %v", werr)
	}
	fs.Reboot(nil)
	_, step, err := readCheckpointFS(fs, "run.wal")
	if err != nil || step != 5 {
		t.Fatalf("old checkpoint lost: step=%d err=%v", step, err)
	}
}

// An injected eio on the checkpoint read surfaces as an error, never a
// silent short read.
func TestReadCheckpointFSEIO(t *testing.T) {
	s, _ := NewRockSalt(2, 5.64)
	fs := store.NewFaultFS(nil)
	if err := WriteCheckpointFS(fs, "run.wal", s, 3); err != nil {
		t.Fatal(err)
	}
	in, err := fault.ParseInjector("store:eio@read=1")
	if err != nil {
		t.Fatal(err)
	}
	fs.Reboot(in)
	if _, _, rerr := readCheckpointFS(fs, "run.wal"); !errors.Is(rerr, store.ErrIO) {
		t.Fatalf("eio read: %v, want ErrIO", rerr)
	}
}

// An injected bitrot trips the frame's CRC: the typed ErrJournalCorrupt
// comes back instead of a corrupted trajectory.
func TestReadCheckpointFSBitRot(t *testing.T) {
	s, _ := NewRockSalt(2, 5.64)
	fs := store.NewFaultFS(nil)
	if err := WriteCheckpointFS(fs, "run.wal", s, 3); err != nil {
		t.Fatal(err)
	}
	in, err := fault.ParseInjector("store:bitrot@read=1,offset=40")
	if err != nil {
		t.Fatal(err)
	}
	fs.Reboot(in)
	_, _, rerr := readCheckpointFS(fs, "run.wal")
	if rerr == nil {
		t.Fatal("bit-rotted checkpoint accepted")
	}
	if !errors.Is(rerr, supervise.ErrJournalCorrupt) {
		t.Fatalf("bitrot read: %v, want ErrJournalCorrupt", rerr)
	}
}
