// Package serve is the long-lived simulation service of the MDM
// reproduction. The paper's machine room ran multi-hour campaigns for many
// users (§6: 36.5 hours for the production NaCl run); this package models the
// host-side queueing discipline such a facility needs: a session manager that
// admits, schedules and supervises concurrent mdm.Simulation runs for
// multiple tenants, designed around failure rather than around the happy
// path.
//
// The load-bearing properties, each pinned by tests:
//
//   - Crash safety. Every session keeps one run log, run.wal, in its own run
//     directory through internal/store; a step record's fsync overlaps the
//     next step's force evaluation and is joined before the segment's
//     checkpoint commit, which replaces the log with one that opens with a
//     snapshot of the state, so a session never reports — as status, sample
//     or checkpoint — a step that is not durable. Killing the server at any
//     point — including a simulated power cut via store's FaultFS — and
//     restarting recovers every interrupted session via mdm.ResumeFromJournal
//     and finishes it bit-identically to a run that was never interrupted.
//   - Bounded admission. Submits pass a ladder: tenant quota (429 with
//     Retry-After), tenant circuit breaker (quarantine the tenant, not the
//     server), then a bounded FIFO queue feeding a fixed executor pool that
//     shares one worker budget. A full queue blocks the submit for at most
//     AdmitWait before a typed rejection.
//   - Graceful drain. Drain stops admission, interrupts running sessions at
//     the next committed step, commits their final checkpoints, and returns
//     a machine-readable summary; interrupted sessions resume on the next
//     server start.
package serve

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mdm/internal/store"
	"mdm/internal/supervise"
)

// Quota bounds one tenant. Zero values mean unlimited.
type Quota struct {
	// MaxSessions caps a tenant's live (queued, running or paused) sessions.
	MaxSessions int
	// MaxQueued caps a tenant's sessions waiting in the admission queue.
	MaxQueued int
	// MaxParticleSteps caps a tenant's lifetime compute budget: the sum of
	// ions × requested steps over every admitted session.
	MaxParticleSteps int64
}

// Config describes one Manager. Zero values select the noted defaults.
type Config struct {
	// Root is the run-directory root; each session lives in
	// Root/<tenant>/<id>/.
	Root string
	// FS overrides the storage layer (nil = the real filesystem). Tests
	// inject store.FaultFS here to power-cut the whole server.
	FS store.FS
	// Executors is the number of executor goroutines pulling sessions off
	// the admission queue (default 2; negative = none, a test hook that
	// freezes the queue).
	Executors int
	// WorkerBudget is the total simulation worker budget shared by all
	// executors (default runtime.GOMAXPROCS); each session runs with
	// WorkerBudget/Executors workers rather than claiming GOMAXPROCS for
	// itself. Worker width never changes trajectories.
	WorkerBudget int
	// QueueDepth is the admission queue capacity (default 16).
	QueueDepth int
	// AdmitWait bounds how long a submit may block waiting for a queue slot
	// before the typed queue-full rejection (default 100ms).
	AdmitWait time.Duration
	// CheckpointEvery is the step interval between checkpoint commits
	// (default 8). Smaller values shorten recovery replay at the cost of
	// more checkpoint I/O.
	CheckpointEvery int
	// MaxSessionSteps is the server-side step budget: a submit asking for
	// more steps is rejected outright (default 100000).
	MaxSessionSteps int
	// Quota is the per-tenant admission quota.
	Quota Quota
	// RetryAfter is the client back-off hint attached to quota and
	// queue-full rejections (default 1s).
	RetryAfter time.Duration
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.FS == nil {
		c.FS = store.OS()
	}
	if c.Executors == 0 {
		c.Executors = 2
	}
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = 0 // resolved per session: 0 = GOMAXPROCS
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.AdmitWait <= 0 {
		c.AdmitWait = 100 * time.Millisecond
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 8
	}
	if c.MaxSessionSteps <= 0 {
		c.MaxSessionSteps = 100000
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// indexEntry is one row of the flat session index at Root/sessions.json. The
// index exists because the fault filesystem has no directory tree to walk:
// discovery after a crash must go through a single durably-committed file.
type indexEntry struct {
	Tenant string `json:"tenant"`
	ID     string `json:"id"`
}

type sessionIndex struct {
	Sessions []indexEntry `json:"sessions"`
}

// Manager owns the session registry, the admission queue and the executor
// pool. Build one with Open, which also performs the crash-recovery sweep.
type Manager struct {
	cfg      Config
	fsys     store.FS  // timing-wrapped storage all session I/O goes through
	timing   *timingFS // the wrapper itself, for metrics
	queue    chan *Session
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	draining atomic.Bool
	// tick is the admission clock the tenant breakers run on: it advances on
	// every admission decision and every session completion, so breaker
	// windows and cooldowns are counted in service events, not wall time.
	tick     atomic.Int64
	breakers *supervise.BreakerSet
	// commits and commitStalls total mdm.Simulation.CommitStats over every
	// segment the executors have run, for /metrics.
	commits, commitStalls atomic.Int64

	mu       sync.Mutex
	sessions map[string]*Session
	index    sessionIndex
	nextID   int
	used     map[string]int64 // tenant → admitted particle-steps
}

// Open builds a Manager over cfg.Root, runs the crash-recovery sweep
// (re-registering every session the index knows about and re-enqueueing the
// interrupted ones), and starts the executor pool.
func Open(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	timing := newTimingFS(cfg.FS)
	m := &Manager{
		cfg:      cfg,
		fsys:     timing,
		timing:   timing,
		queue:    make(chan *Session, cfg.QueueDepth),
		stop:     make(chan struct{}),
		breakers: supervise.NewBreakerSet(),
		sessions: make(map[string]*Session),
		used:     make(map[string]int64),
	}
	if err := m.fsys.MkdirAll(cfg.Root); err != nil {
		return nil, fmt.Errorf("serve: root: %w", err)
	}
	if err := m.sweep(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Executors; i++ {
		m.wg.Add(1)
		go m.executor()
	}
	return m, nil
}

// sweep is the crash-recovery pass: read the durable index, load every
// session's manifest, and re-enqueue the ones a previous incarnation left
// unfinished. Terminal sessions are re-registered for status queries;
// sessions whose manifest is unreadable are registered failed rather than
// silently dropped.
func (m *Manager) sweep() error {
	data, err := m.fsys.ReadFile(m.indexPath())
	if store.NotExist(err) {
		return nil // fresh root
	}
	if err != nil {
		return fmt.Errorf("serve: index: %w", err)
	}
	if err := decodeStrict(data, &m.index); err != nil {
		return fmt.Errorf("serve: index: %w", err)
	}
	var resume []*Session
	for _, ent := range m.index.Sessions {
		s := &Session{ID: ent.ID, Tenant: ent.Tenant, mgr: m, dir: m.sessionDir(ent.Tenant, ent.ID)}
		if n := idNum(ent.ID); n >= m.nextID {
			m.nextID = n + 1
		}
		var man manifest
		mdata, merr := m.fsys.ReadFile(s.manifestPath())
		if merr == nil {
			merr = decodeStrict(mdata, &man)
		}
		switch {
		case merr != nil:
			// The submit crashed between index and manifest commit, or the
			// manifest was damaged: the session is unrunnable but must stay
			// visible, with the reason attached.
			s.state = StateFailed
			s.errKind = errKindManifest
			s.errMsg = fmt.Sprintf("manifest unreadable: %v", merr)
		case man.State == manifestDone:
			s.state = StateDone
			s.Spec = man.Spec
			s.stepsDone = man.Steps
		case man.State == manifestFailed:
			s.state = StateFailed
			s.Spec = man.Spec
			s.stepsDone = man.Steps
			s.errKind = man.ErrKind
			s.errMsg = man.Error
		case man.State == manifestCanceled:
			s.state = StateCanceled
			s.Spec = man.Spec
			s.stepsDone = man.Steps
		case man.State == manifestPaused:
			s.state = StatePaused
			s.Spec = man.Spec
			s.stepsDone = man.Steps
		default: // active: interrupted by the crash (or never started)
			s.state = StateQueued
			s.Spec = man.Spec
			s.stepsDone = man.Steps
			resume = append(resume, s)
		}
		m.sessions[s.ID] = s
		m.used[s.Tenant] += particleSteps(s.Spec)
	}
	// Re-enqueue outside the registry loop, oldest first (index order is
	// submission order). The queue is sized by config, not by the sweep, so
	// a recovery bigger than QueueDepth must not deadlock Open: grow the
	// queue to fit the backlog.
	if len(resume) > cap(m.queue)-len(m.queue) {
		grown := make(chan *Session, len(resume)+cap(m.queue))
		for {
			select {
			case s := <-m.queue:
				grown <- s
				continue
			default:
			}
			break
		}
		m.queue = grown
	}
	for _, s := range resume {
		m.cfg.Logf("serve: recovering session %s (tenant %s, step %d/%d)", s.ID, s.Tenant, s.stepsDone, s.Spec.Steps)
		m.queue <- s
	}
	return nil
}

func (m *Manager) indexPath() string { return path.Join(m.cfg.Root, "sessions.json") }

func (m *Manager) sessionDir(tenant, id string) string {
	return path.Join(m.cfg.Root, tenant, id)
}

// idNum parses the numeric tail of a session ID ("s0042" → 42, -1 if not
// ours).
func idNum(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "s%d", &n); err != nil {
		return -1
	}
	return n
}

func particleSteps(spec JobSpec) int64 {
	cells := spec.Cells
	if cells <= 0 {
		cells = 2
	}
	return int64(8*cells*cells*cells) * int64(spec.Steps)
}

// executor pulls sessions off the admission queue until Drain or Close.
func (m *Manager) executor() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		select {
		case <-m.stop:
			return
		case s := <-m.queue:
			m.runSession(s)
		}
	}
}

// Session returns the registered session with the given ID.
func (m *Manager) Session(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// DrainSummary is the machine-readable result of a graceful drain.
type DrainSummary struct {
	// Sessions counts every registered session by state at drain completion.
	Sessions map[string]int `json:"sessions"`
	// Interrupted lists the sessions the drain stopped mid-run; each resumes
	// from its last committed step on the next server start.
	Interrupted []string `json:"interrupted,omitempty"`
	// Queued lists sessions that never started; they also run on restart.
	Queued []string `json:"queued,omitempty"`
}

// Drain performs the graceful-shutdown protocol: stop admitting, interrupt
// every running session at its next committed step (the interrupted run
// returns with its last step's journal record fsynced; the executor adds a
// final checkpoint), stop the executor
// pool, and report what was left behind. Idempotent; the manager admits
// nothing afterwards.
func (m *Manager) Drain() DrainSummary {
	m.draining.Store(true)
	m.mu.Lock()
	for _, s := range m.sessions {
		s.requestStop(stopDrain)
	}
	m.mu.Unlock()
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()

	sum := DrainSummary{Sessions: make(map[string]int)}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.sessions {
		s.mu.Lock()
		state, started := s.state, s.stepsDone > 0
		s.mu.Unlock()
		sum.Sessions[state]++
		if state == StateQueued {
			if started {
				sum.Interrupted = append(sum.Interrupted, s.ID)
			} else {
				sum.Queued = append(sum.Queued, s.ID)
			}
		}
	}
	sort.Strings(sum.Interrupted)
	sort.Strings(sum.Queued)
	return sum
}

// Close is Drain without the summary, for tests and error paths.
func (m *Manager) Close() { m.Drain() }

// Draining reports whether a drain has begun.
func (m *Manager) Draining() bool { return m.draining.Load() }

// persistIndex writes the session index atomically. Callers hold m.mu.
func (m *Manager) persistIndex() error {
	data, err := encodeJSON(&m.index)
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(m.fsys, m.indexPath(), data)
}

// failKind classifies a session-run error into the typed kinds the HTTP
// layer maps to distinct statuses.
func failKind(err error) string {
	switch {
	case errors.Is(err, store.ErrNoRunState):
		return errKindNoRunState
	case errors.Is(err, store.ErrStaleRunDir):
		return errKindStaleRunDir
	case errors.Is(err, supervise.ErrJournalCorrupt):
		return errKindCheckpointCorrupt
	default:
		return errKindRun
	}
}
