// Package store is the durable-storage layer of the MDM reproduction. The
// paper's headline runs are multi-hour campaigns (36.5 hours for the 18.8M
// NaCl system, §5); a lost or corrupt run log costs the whole campaign, so
// every durability claim the log makes has to be testable. This package
// provides the seam: a minimal VFS interface with a real implementation (OS)
// and a deterministic fault-injecting one (FaultFS) driven by the
// internal/fault scenario DSL, plus a recovery manager (Scan) that
// inventories a run's log and finds the newest step it can resume.
//
// Durability model (what FaultFS simulates and the write paths must respect):
//
//   - bytes reach disk only at File.Sync; an unsynced write can be lost or
//     torn at a power cut,
//   - a file's directory entry is durable only after SyncDir on its parent;
//     fsyncing the file alone does not commit a create, rename or remove,
//   - rename over an existing durable name keeps the old content until the
//     rename itself is committed by SyncDir.
//
// The canonical atomic-replace sequence is therefore Create(tmp) → Write →
// Sync → Rename(tmp, final) → SyncDir(dir) — the pattern every snapshot
// commit of the run log (supervise.Journal.Snapshot) follows.
package store

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// Injected storage failures. FaultFS returns these; the OS filesystem never
// does (real I/O errors surface as *os.PathError etc.).
var (
	// ErrCrashed latches after a simulated power cut: every subsequent
	// operation on the FaultFS fails with it until Reboot.
	ErrCrashed = errors.New("store: filesystem crashed (injected)")
	// ErrIO is an injected transient I/O failure.
	ErrIO = errors.New("store: i/o error (injected)")
)

// Recovery-manager verdicts on a run directory that cannot be resumed. The
// serving layer maps these to distinct HTTP statuses, so resume failures
// must stay typed rather than collapsing into one wrapped string.
var (
	// ErrNoRunState means no run log exists: there is nothing to resume,
	// and the only recovery is to start the run over (which is safe — no
	// committed progress is lost, because none was ever durable).
	ErrNoRunState = errors.New("store: no resumable run state")
	// ErrStaleRunDir means the log's records do not form one timeline with
	// its snapshot — a step record that does not continue the steps before
	// it. Resuming would splice two different histories, so the caller must
	// decide: discard the directory or investigate.
	ErrStaleRunDir = errors.New("store: stale run state")
)

// File is a writable file handle.
type File interface {
	io.Writer
	// Sync flushes the file's written bytes to durable storage.
	Sync() error
	Close() error
}

// FS is the storage seam the run log writes through.
// Implementations: OS() (the real filesystem) and FaultFS (deterministic
// fault injection). Every path is interpreted by the implementation; the
// fault one is purely name-keyed, so relative and absolute paths work alike
// as long as callers are consistent.
type FS interface {
	// Create opens path for writing, truncating it (O_CREATE|O_TRUNC).
	Create(path string) (File, error)
	// Append opens path for appending, creating it if absent.
	Append(path string) (File, error)
	// ReadFile returns the whole content of path.
	ReadFile(path string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath's file.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// ReadDir lists the file names in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// SyncDir fsyncs dir, committing creates, renames and removes in it.
	SyncDir(dir string) error
	// MkdirAll materializes dir and its parents (the serving layer carves a
	// run directory per session). Like Remove and ReadDir it is
	// metadata-only and not independently faultable: crash coverage comes
	// from the create/sync/rename counters of the files inside it.
	MkdirAll(dir string) error
}

// OS returns the real-filesystem implementation.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (osFS) Append(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
}

func (osFS) ReadFile(path string) ([]byte, error) {
	return os.ReadFile(path)
}

func (osFS) Rename(oldpath, newpath string) error {
	return os.Rename(oldpath, newpath)
}

func (osFS) Remove(path string) error {
	return os.Remove(path)
}

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) MkdirAll(dir string) error {
	if dir == "" {
		return nil
	}
	return os.MkdirAll(dir, 0o755)
}

func (osFS) SyncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	if closeErr := d.Close(); syncErr == nil {
		syncErr = closeErr
	}
	return syncErr
}

// NotExist reports whether err means the file was absent, across both the OS
// filesystem and FaultFS.
func NotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist)
}

// Dir is filepath.Dir with "" normalized to "." so directory keys compare
// stably across implementations.
func Dir(path string) string {
	d := filepath.Dir(path)
	if d == "" {
		return "."
	}
	return d
}
