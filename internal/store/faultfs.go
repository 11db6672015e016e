package store

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mdm/internal/fault"
)

// FaultFS is an in-memory filesystem that models crash durability and
// consults a fault.StoreHook on every operation. It keeps two views:
//
//   - the live namespace — what the running process sees, updated by every
//     successful operation, and
//   - the durable namespace — what would survive a power cut right now:
//     content advances only at File.Sync, and creates / renames / removes
//     commit only at SyncDir on the parent directory.
//
// A Crash fate latches the filesystem into the crashed state: the durable
// view freezes (plus the torn bytes of a write-keyed crash), and every
// later operation fails with ErrCrashed until Reboot, which discards the
// live view and re-materializes the durable one — the moral equivalent of
// power coming back.
//
// Operation classes consulted on the hook: create (Create and Append), write
// (File.Write), read (ReadFile), rename (Rename), sync (File.Sync and
// SyncDir, one clock). Remove and ReadDir are metadata-only and not faultable
// — crash coverage around them comes from the sync/rename counters of the
// surrounding sequence.
type FaultFS struct {
	mu      sync.Mutex
	hook    fault.StoreHook
	live    map[string]*memFile
	disk    map[string][]byte
	crashed bool
}

// memFile is one live inode.
type memFile struct {
	path    string // the inode's current live name: a handle follows it through renames
	data    []byte
	synced  int  // prefix of data flushed by Sync (durable iff durable)
	durable bool // this inode's directory entry at its current name is durable
}

// NewFaultFS builds an empty fault-injecting filesystem. hook may be nil
// (no faults, pure in-memory FS with crash-durability bookkeeping).
func NewFaultFS(hook fault.StoreHook) *FaultFS {
	return &FaultFS{
		hook: hook,
		live: make(map[string]*memFile),
		disk: make(map[string][]byte),
	}
}

// fate consults the hook for one operation of the given class. Callers hold
// f.mu.
func (f *FaultFS) fate(class string) fault.StoreFate {
	if f.hook == nil {
		return fault.StoreFate{}
	}
	return f.hook.StoreOp(class)
}

// crash latches the crashed state. Callers hold f.mu.
func (f *FaultFS) crash() {
	f.crashed = true
}

// Crashed reports whether an injected crash has latched the filesystem.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Reboot simulates power restore: the live namespace is discarded and
// rebuilt from the durable one, the crashed latch clears, and hook becomes
// the injection schedule for the new incarnation (nil = no further faults).
func (f *FaultFS) Reboot(hook fault.StoreHook) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.live = make(map[string]*memFile, len(f.disk))
	for path, data := range f.disk {
		f.live[path] = &memFile{path: path, data: clone(data), synced: len(data), durable: true}
	}
	f.crashed = false
	f.hook = hook
}

// Create implements FS.
func (f *FaultFS) Create(path string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	switch ft := f.fate(fault.OpCreate); ft.Kind {
	case fault.IOErr:
		if ft.Hit {
			return nil, &fs.PathError{Op: "create", Path: path, Err: ErrIO}
		}
	case fault.Crash:
		if ft.Hit {
			f.crash()
			return nil, ErrCrashed
		}
	}
	// O_TRUNC: the live inode restarts empty. The durable namespace keeps
	// whatever was committed before — a crash right after Create resurrects
	// the old content, which is why atomic replace goes through a temp name.
	mf := &memFile{path: path}
	f.live[path] = mf
	return &faultFile{fs: f, mf: mf}, nil
}

// Append implements FS. Opening for append counts on the create clock: both
// materialize a writable handle at a name.
func (f *FaultFS) Append(path string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	switch ft := f.fate(fault.OpCreate); ft.Kind {
	case fault.IOErr:
		if ft.Hit {
			return nil, &fs.PathError{Op: "append", Path: path, Err: ErrIO}
		}
	case fault.Crash:
		if ft.Hit {
			f.crash()
			return nil, ErrCrashed
		}
	}
	mf, ok := f.live[path]
	if !ok {
		mf = &memFile{path: path}
		f.live[path] = mf
	}
	return &faultFile{fs: f, mf: mf}, nil
}

// ReadFile implements FS.
func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	ft := f.fate(fault.OpRead)
	if ft.Hit {
		switch ft.Kind {
		case fault.IOErr:
			return nil, &fs.PathError{Op: "read", Path: path, Err: ErrIO}
		case fault.Crash:
			f.crash()
			return nil, ErrCrashed
		}
	}
	mf, ok := f.live[path]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: path, Err: fs.ErrNotExist}
	}
	data := clone(mf.data)
	if ft.Hit && ft.Kind == fault.BitRot && len(data) > 0 {
		off := ft.Offset % int64(len(data))
		data[off] ^= 1 << 3
	}
	return data, nil
}

// Rename implements FS. The rename is immediately visible in the live
// namespace but durable only after SyncDir on the parent.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	ft := f.fate(fault.OpRename)
	if ft.Hit {
		switch ft.Kind {
		case fault.IOErr:
			return &fs.PathError{Op: "rename", Path: oldpath, Err: ErrIO}
		case fault.Crash:
			f.crash()
			return ErrCrashed
		}
	}
	mf, ok := f.live[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(f.live, oldpath)
	f.live[newpath] = mf
	mf.path = newpath
	mf.durable = false // the new name is uncommitted until SyncDir
	return nil
}

// Remove implements FS. The durable unlink commits at SyncDir; a crash
// before that resurrects the file.
func (f *FaultFS) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	if _, ok := f.live[path]; !ok {
		return &fs.PathError{Op: "remove", Path: path, Err: fs.ErrNotExist}
	}
	delete(f.live, path)
	return nil
}

// MkdirAll implements FS. The fault filesystem's namespace is name-keyed
// with no first-class directories, so materializing one is a crash-gated
// no-op: files under any path can be created directly.
func (f *FaultFS) MkdirAll(string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

// ReadDir implements FS.
func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	dir = Dir(filepath.Join(dir, "x"))
	var names []string
	for path := range f.live {
		if Dir(path) == dir {
			names = append(names, filepath.Base(path))
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS: it commits dir's current directory entries to the
// durable namespace — creates and renames become durable (content up to each
// file's synced prefix), removed or renamed-away names disappear.
func (f *FaultFS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	ft := f.fate(fault.OpSync)
	if ft.Hit {
		switch ft.Kind {
		case fault.IOErr:
			return &fs.PathError{Op: "syncdir", Path: dir, Err: ErrIO}
		case fault.Crash:
			f.crash()
			return ErrCrashed
		}
	}
	dir = Dir(filepath.Join(dir, "x"))
	for path := range f.disk {
		if _, ok := f.live[path]; !ok && Dir(path) == dir {
			delete(f.disk, path)
		}
	}
	for path, mf := range f.live {
		if Dir(path) == dir {
			mf.durable = true
			f.disk[path] = clone(mf.data[:mf.synced])
		}
	}
	return nil
}

// DurableBytes returns the content of path in the durable namespace — what a
// crash right now would preserve. Test hook.
func (f *FaultFS) DurableBytes(path string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	data, ok := f.disk[path]
	return clone(data), ok
}

// Dump renders the live and durable namespaces for test failure messages.
func (f *FaultFS) Dump() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var b strings.Builder
	var paths []string
	for p := range f.live {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		mf := f.live[p]
		fmt.Fprintf(&b, "live %s: %dB (synced %d, durable %v)\n", p, len(mf.data), mf.synced, mf.durable)
	}
	paths = paths[:0]
	for p := range f.disk {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(&b, "disk %s: %dB\n", p, len(f.disk[p]))
	}
	return b.String()
}

// faultFile is a writable handle on a FaultFS inode. Like a file descriptor
// it follows the inode through renames: writes and syncs land at the inode's
// current name.
type faultFile struct {
	fs *FaultFS
	mf *memFile
}

// Write implements io.Writer.
func (h *faultFile) Write(p []byte) (int, error) {
	f := h.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, ErrCrashed
	}
	ft := f.fate(fault.OpWrite)
	if ft.Hit {
		switch ft.Kind {
		case fault.IOErr:
			return 0, &fs.PathError{Op: "write", Path: h.mf.path, Err: ErrIO}
		case fault.Crash:
			// Power cut mid-write: the durable view keeps the synced prefix
			// plus the first Bytes bytes of this buffer (if the name was
			// committed); everything else is lost.
			if torn := min(ft.Bytes, len(p)); torn > 0 && h.mf.durable {
				f.disk[h.mf.path] = append(clone(h.mf.data[:h.mf.synced]), p[:torn]...)
			}
			f.crash()
			return 0, ErrCrashed
		}
	}
	h.mf.data = append(h.mf.data, p...)
	return len(p), nil
}

// Sync implements File: the inode's bytes become its durable content — if
// its directory entry is committed. Syncing a file never commits its name.
func (h *faultFile) Sync() error {
	f := h.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	ft := f.fate(fault.OpSync)
	if ft.Hit {
		switch ft.Kind {
		case fault.IOErr:
			return &fs.PathError{Op: "sync", Path: h.mf.path, Err: ErrIO}
		case fault.Crash:
			f.crash()
			return ErrCrashed
		}
	}
	h.mf.synced = len(h.mf.data)
	if h.mf.durable {
		f.disk[h.mf.path] = clone(h.mf.data)
	}
	return nil
}

// Close implements File. Closing flushes nothing — unsynced bytes stay
// volatile, exactly like the page cache.
func (h *faultFile) Close() error {
	f := h.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
