package serve

import (
	"sync/atomic"
	"time"

	"mdm/internal/store"
)

// Metrics is the /metrics snapshot.
type Metrics struct {
	// Sessions counts registered sessions by state.
	Sessions map[string]int `json:"sessions"`
	// QueueDepth and QueueCap describe the admission queue.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Draining reports whether a drain has begun.
	Draining bool `json:"draining"`
	// Breakers maps each tenant with breaker history to its state.
	Breakers map[string]string `json:"breakers"`
	// BreakerTrips counts breaker openings across all tenants.
	BreakerTrips int `json:"breaker_trips"`
	// FsyncCount / FsyncMeanMicros / FsyncMaxMicros describe journal and
	// checkpoint fsync latency as seen by the storage wrapper.
	FsyncCount      int64   `json:"fsync_count"`
	FsyncMeanMicros float64 `json:"fsync_mean_micros"`
	FsyncMaxMicros  int64   `json:"fsync_max_micros"`
	// Commits counts the journal commits the sessions' simulations joined,
	// CommitStalls the joins that found the fsync still in flight, both
	// tallied at checkpoint boundaries. stalls/commits ≈ 0: durability is
	// hidden behind compute; ≈ 1: storage is slower than a step. The join
	// that ends each segment always waits, a floor of 1/CheckpointEvery.
	Commits      int64 `json:"commits"`
	CommitStalls int64 `json:"commit_stalls"`
}

// Metrics snapshots the manager.
func (m *Manager) Metrics() Metrics {
	out := Metrics{
		Sessions:   make(map[string]int),
		QueueDepth: len(m.queue),
		QueueCap:   cap(m.queue),
		Draining:   m.draining.Load(),
		Breakers:   make(map[string]string),
	}
	m.mu.Lock()
	for _, s := range m.sessions {
		s.mu.Lock()
		out.Sessions[s.state]++
		s.mu.Unlock()
	}
	m.mu.Unlock()
	for scope, st := range m.breakers.States(int(m.tick.Load())) {
		out.Breakers[scope] = st.String()
	}
	out.BreakerTrips = m.breakers.Trips()
	count, total, maxv := m.timing.stats()
	out.FsyncCount = count
	if count > 0 {
		out.FsyncMeanMicros = float64(total) / float64(count) / 1e3
	}
	out.FsyncMaxMicros = maxv / 1e3
	out.Commits, out.CommitStalls = m.commits.Load(), m.commitStalls.Load()
	return out
}

// timingFS wraps a store.FS to measure fsync latency (File.Sync and
// SyncDir), the dominant cost of the per-step journal commit. It is an
// observability wrapper only: every operation is delegated unchanged, so the
// crash-durability semantics of the wrapped filesystem are preserved.
type timingFS struct {
	store.FS
	syncCount atomic.Int64
	syncNanos atomic.Int64
	syncMax   atomic.Int64
}

func newTimingFS(inner store.FS) *timingFS { return &timingFS{FS: inner} }

func (t *timingFS) stats() (count, totalNanos, maxNanos int64) {
	return t.syncCount.Load(), t.syncNanos.Load(), t.syncMax.Load()
}

func (t *timingFS) observe(d time.Duration) {
	n := int64(d)
	t.syncCount.Add(1)
	t.syncNanos.Add(n)
	for {
		cur := t.syncMax.Load()
		if n <= cur || t.syncMax.CompareAndSwap(cur, n) {
			return
		}
	}
}

func (t *timingFS) Create(path string) (store.File, error) {
	f, err := t.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t}, nil
}

func (t *timingFS) Append(path string) (store.File, error) {
	f, err := t.FS.Append(path)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t}, nil
}

func (t *timingFS) SyncDir(dir string) error {
	start := time.Now()
	err := t.FS.SyncDir(dir)
	t.observe(time.Since(start))
	return err
}

type timingFile struct {
	store.File
	fs *timingFS
}

func (f *timingFile) Sync() error {
	start := time.Now() //mdm:wallclockok -- fsync latency telemetry: the duration feeds /metrics counters only, never simulation state or the journal
	err := f.File.Sync()
	f.fs.observe(time.Since(start)) //mdm:wallclockok -- fsync latency telemetry: counters only
	return err
}
