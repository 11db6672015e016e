package main

import (
	"sync/atomic"
	"time"

	"mdm/internal/store"
)

// countFS wraps a store.FS and counts what the layers above it ask of the
// storage layer: fsyncs (File.Sync and SyncDir), bytes written and renames.
// Every operation is delegated unchanged. Counters are atomic because a
// served session writes from the manager's executor goroutine while the
// harness reads between sessions. With timed set (the traced run only) each
// fsync is also timed; with tr set (layer replay, harness goroutine only)
// each fsync becomes a store.fsync child span.
type countFS struct {
	store.FS
	timed bool
	tr    *tracer
	step  int // replay step the fsync spans are filed under

	fsyncs     atomic.Int64
	fsyncNanos atomic.Int64
	bytes      atomic.Int64
	renames    atomic.Int64
}

// fsCounts is a snapshot of the counters.
type fsCounts struct {
	fsyncs, fsyncNanos, bytes, renames int64
}

func (c *countFS) counts() fsCounts {
	return fsCounts{c.fsyncs.Load(), c.fsyncNanos.Load(), c.bytes.Load(), c.renames.Load()}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{a.fsyncs - b.fsyncs, a.fsyncNanos - b.fsyncNanos, a.bytes - b.bytes, a.renames - b.renames}
}

func (c *countFS) sync(do func() error) error {
	c.fsyncs.Add(1)
	if !c.timed {
		return do()
	}
	id := c.tr.begin("store.fsync", "store", c.step)
	t0 := time.Now() //mdm:wallclockok -- fsync latency telemetry of the benchmark's traced run: feeds counters and spans only, never simulation state or the journal
	err := do()
	c.fsyncNanos.Add(int64(time.Since(t0))) //mdm:wallclockok -- fsync latency telemetry: counters only
	c.tr.end(id)
	return err
}

func (c *countFS) Create(path string) (store.File, error) {
	f, err := c.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Append(path string) (store.File, error) {
	f, err := c.FS.Append(path)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	return c.FS.Rename(oldpath, newpath)
}

func (c *countFS) SyncDir(dir string) error {
	return c.sync(func() error { return c.FS.SyncDir(dir) })
}

type countFile struct {
	store.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error { return f.fs.sync(f.File.Sync) }
