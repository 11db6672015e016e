package store

import (
	"bytes"
	"errors"
	"testing"

	"mdm/internal/fault"
)

func injector(t *testing.T, scenario string) *fault.Injector {
	t.Helper()
	in, err := fault.ParseInjector(scenario)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// mustWrite drives the canonical atomic-replace sequence.
func mustWrite(t *testing.T, fsys FS, path string, data []byte) {
	t.Helper()
	if err := WriteFileAtomic(fsys, path, data); err != nil {
		t.Fatalf("WriteFileAtomic(%s): %v", path, err)
	}
}

// Unsynced bytes do not survive a crash; synced bytes under a committed name
// do.
func TestFaultFSCrashLosesUnsyncedBytes(t *testing.T) {
	fs := NewFaultFS(nil)
	f, err := fs.Append("j")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("aaaa"))
	f.Sync()
	fs.SyncDir(".") // commit the name
	f.Write([]byte("bbbb"))
	f.Sync() // durable: aaaabbbb
	f.Write([]byte("cccc"))
	// no sync: cccc is volatile
	fs.Reboot(nil)
	got, err := fs.ReadFile("j")
	if err != nil {
		t.Fatalf("after reboot: %v\n%s", err, fs.Dump())
	}
	if want := []byte("aaaabbbb"); !bytes.Equal(got, want) {
		t.Fatalf("after reboot: %q, want %q", got, want)
	}
}

// A synced file whose directory entry was never committed vanishes at a
// crash — the satellite-2 failure mode (missing dir fsync after create).
func TestFaultFSUncommittedNameVanishes(t *testing.T) {
	fs := NewFaultFS(nil)
	f, _ := fs.Create("seg")
	f.Write([]byte("data"))
	f.Sync()
	f.Close()
	// No SyncDir: the name is not durable.
	fs.Reboot(nil)
	if _, err := fs.ReadFile("seg"); !NotExist(err) {
		t.Fatalf("uncommitted name survived reboot: %v\n%s", err, fs.Dump())
	}
}

// Rename over a durable target keeps the old content until SyncDir commits
// the rename.
func TestFaultFSRenameNotDurableUntilSyncDir(t *testing.T) {
	fs := NewFaultFS(nil)
	mustWrite(t, fs, "ckpt", []byte("old"))

	f, _ := fs.Create("tmp")
	f.Write([]byte("new"))
	f.Sync()
	f.Close()
	if err := fs.Rename("tmp", "ckpt"); err != nil {
		t.Fatal(err)
	}
	// Crash before SyncDir: the durable view still has the old checkpoint.
	fs.Reboot(nil)
	if got, _ := fs.ReadFile("ckpt"); !bytes.Equal(got, []byte("old")) {
		t.Fatalf("pre-SyncDir rename became durable: %q\n%s", got, fs.Dump())
	}

	// Same sequence with the SyncDir: the new content commits.
	fs = NewFaultFS(nil)
	mustWrite(t, fs, "ckpt", []byte("old"))
	mustWrite(t, fs, "ckpt", []byte("new"))
	fs.Reboot(nil)
	if got, _ := fs.ReadFile("ckpt"); !bytes.Equal(got, []byte("new")) {
		t.Fatalf("committed replace lost: %q\n%s", got, fs.Dump())
	}
}

// Remove is durable only after SyncDir.
func TestFaultFSRemoveDurableAfterSyncDir(t *testing.T) {
	fs := NewFaultFS(nil)
	mustWrite(t, fs, "seg", []byte("x"))
	fs.Remove("seg")
	fs.Reboot(nil)
	if _, err := fs.ReadFile("seg"); err != nil {
		t.Fatalf("un-synced remove destroyed durable file: %v", err)
	}
	fs.Remove("seg")
	fs.SyncDir(".")
	fs.Reboot(nil)
	if _, err := fs.ReadFile("seg"); !NotExist(err) {
		t.Fatalf("committed remove survived: %v", err)
	}
}

// A write-keyed crash with bytes= persists exactly that prefix of the
// crashing write and latches the filesystem down.
func TestFaultFSTornWrite(t *testing.T) {
	in := injector(t, "store:crash@write=2,bytes=3")
	fs := NewFaultFS(in)
	f, _ := fs.Append("j")
	f.Write([]byte("hello\n")) // write 1, clean
	f.Sync()
	fs.SyncDir(".")
	if _, err := f.Write([]byte("world\n")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write: err = %v, want ErrCrashed", err)
	}
	if !fs.Crashed() {
		t.Fatal("filesystem not crashed after torn write")
	}
	if _, err := fs.ReadFile("j"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash op: err = %v, want ErrCrashed", err)
	}
	fs.Reboot(nil)
	got, err := fs.ReadFile("j")
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte("hello\nwor"); !bytes.Equal(got, want) {
		t.Fatalf("durable after torn write: %q, want %q", got, want)
	}
}

// IOErr fails the operation without crashing the filesystem, and a failed
// write persists nothing.
func TestFaultFSIOErrKeepsFSUp(t *testing.T) {
	in := injector(t, "store:eio@write=1; store:eio@sync=1")
	fs := NewFaultFS(in)
	f, _ := fs.Append("j")
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrIO) {
		t.Fatalf("write: %v, want ErrIO", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrIO) {
		t.Fatalf("sync: %v, want ErrIO", err)
	}
	if fs.Crashed() {
		t.Fatal("eio must not crash the filesystem")
	}
	// Both ops retry clean.
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// BitRot flips a bit of the returned data without touching the stored bytes.
func TestFaultFSBitRot(t *testing.T) {
	in := injector(t, "store:bitrot@read=1,offset=2")
	fs := NewFaultFS(in)
	mustWrite(t, fs, "ckpt", []byte("abcd"))
	rotted, err := fs.ReadFile("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rotted, []byte("abcd")) {
		t.Fatal("bitrot read returned clean data")
	}
	if rotted[2] == 'c' || rotted[0] != 'a' || rotted[1] != 'b' || rotted[3] != 'd' {
		t.Fatalf("bitrot hit wrong byte: %q", rotted)
	}
	clean, err := fs.ReadFile("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean, []byte("abcd")) {
		t.Fatalf("bitrot persisted: %q", clean)
	}
}

// A crash keyed by rename aborts before the rename happens: the temp stays
// volatile and the durable target keeps its old content.
func TestFaultFSCrashBeforeRename(t *testing.T) {
	in := injector(t, "store:crash@rename=2")
	fs := NewFaultFS(in)
	mustWrite(t, fs, "ckpt", []byte("old")) // rename 1
	f, _ := fs.Create("tmp")
	f.Write([]byte("new"))
	f.Sync()
	f.Close()
	if err := fs.Rename("tmp", "ckpt"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename: %v, want ErrCrashed", err)
	}
	fs.Reboot(nil)
	if got, _ := fs.ReadFile("ckpt"); !bytes.Equal(got, []byte("old")) {
		t.Fatalf("crash at rename lost target: %q\n%s", got, fs.Dump())
	}
	if _, err := fs.ReadFile("tmp"); !NotExist(err) {
		t.Fatal("uncommitted temp survived crash")
	}
}

// The OS filesystem round-trips the same API against a real directory.
func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fsys := OS()
	path := dir + "/f"
	mustWrite(t, fsys, path, []byte("data"))
	got, err := fsys.ReadFile(path)
	if err != nil || !bytes.Equal(got, []byte("data")) {
		t.Fatalf("ReadFile: %q, %v", got, err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil || len(names) != 1 || names[0] != "f" {
		t.Fatalf("ReadDir: %v, %v", names, err)
	}
	f, err := fsys.Append(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("+more"))
	f.Sync()
	f.Close()
	got, _ = fsys.ReadFile(path)
	if !bytes.Equal(got, []byte("data+more")) {
		t.Fatalf("append: %q", got)
	}
	if err := fsys.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.ReadFile(path); !NotExist(err) {
		t.Fatalf("after remove: %v", err)
	}
}
