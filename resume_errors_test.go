package mdm

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"mdm/internal/store"
	"mdm/internal/supervise"
)

// ResumeFromJournal's failure modes must stay typed — the serving layer maps
// them to distinct HTTP statuses (nothing durable → restart from scratch;
// damaged snapshot → permanent failure; stale directory → operator
// decision) — so each path is pinned against errors.Is here.

// reTestConfig is a journaled config over a fresh fault-free FaultFS.
func reTestConfig(fsys store.FS) Config {
	cfg := Config{
		Cells:     2,
		Backend:   BackendReference,
		Supervise: SuperviseConfig{Journal: "run.wal"},
	}
	cfg.fsys = fsys
	return cfg
}

// reRun runs a short journaled protocol with a mid-run checkpoint, leaving a
// log of a step-3 snapshot and records for steps 4 and 5 on fsys.
func reRun(t *testing.T, fsys store.FS) {
	t.Helper()
	sim, err := NewSimulation(reTestConfig(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sim.Free() }()
	if err := sim.RunNVT(3); err != nil {
		t.Fatal(err)
	}
	if err := sim.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunNVE(2); err != nil {
		t.Fatal(err)
	}
}

// Nothing durable at all: the typed verdict is store.ErrNoRunState, which
// the caller may treat as "start the run over, no progress is lost".
func TestResumeErrorNoRunState(t *testing.T) {
	fsys := store.NewFaultFS(nil)
	_, err := ResumeFromJournal(reTestConfig(fsys))
	if !errors.Is(err, store.ErrNoRunState) {
		t.Fatalf("resume over empty store: %v, want store.ErrNoRunState", err)
	}
}

// A damaged snapshot frame is unrecoverable: the typed verdict is the log
// reader's own supervise.ErrJournalCorrupt, not a scan wrapper, and the
// records behind it are never replayed over another state.
func TestResumeErrorDamagedCheckpoint(t *testing.T) {
	fsys := store.NewFaultFS(nil)
	reRun(t, fsys)
	// Flip a byte in the middle of the snapshot frame.
	buf, err := fsys.ReadFile("run.wal")
	if err != nil {
		t.Fatal(err)
	}
	buf[bytes.IndexByte(buf, '\n')/2] ^= 0x40
	if err := store.WriteFileAtomic(fsys, "run.wal", buf); err != nil {
		t.Fatal(err)
	}
	_, rerr := ResumeFromJournal(reTestConfig(fsys))
	if !errors.Is(rerr, supervise.ErrJournalCorrupt) {
		t.Fatalf("damaged snapshot: %v, want supervise.ErrJournalCorrupt", rerr)
	}
}

// Records that do not continue the snapshot's timeline (here: steps 7..8
// after a step-3 snapshot and records 4..5, a hole no replay can cross) are
// a stale run directory: store.ErrStaleRunDir.
func TestResumeErrorStaleRunDir(t *testing.T) {
	fsys := store.NewFaultFS(nil)
	reRun(t, fsys)
	j, err := supervise.AppendJournalFS("run.wal", supervise.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{7, 8} {
		if err := j.Append(supervise.Record{Step: step, Stage: "nve"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rerr := ResumeFromJournal(reTestConfig(fsys))
	if !errors.Is(rerr, store.ErrStaleRunDir) {
		t.Fatalf("stale run dir: %v, want store.ErrStaleRunDir", rerr)
	}
}

// A run directory of the format the one log replaced — an unframed
// version-1 journal — is refused with the typed version error, never
// misread as an empty or damaged log.
func TestResumeErrorOldFormat(t *testing.T) {
	fsys := store.NewFaultFS(nil)
	old := `{"version":1,"step":1,"stage":"nvt","crc32":3735928559}` + "\n"
	if err := store.WriteFileAtomic(fsys, "run.wal", []byte(old)); err != nil {
		t.Fatal(err)
	}
	_, rerr := ResumeFromJournal(reTestConfig(fsys))
	if !errors.Is(rerr, supervise.ErrJournalVersion) {
		t.Fatalf("old-format log: %v, want supervise.ErrJournalVersion", rerr)
	}
}

// Free is idempotent and safe to call concurrently with itself on a
// completed run: the session manager's reaper races the executor's deferred
// Free, and the loser must observe the first call's verdict, not a
// double-close panic from the journal or the board arena.
func TestFreeIdempotentAndConcurrent(t *testing.T) {
	fsys := store.NewFaultFS(nil)
	cfg := reTestConfig(fsys)
	cfg.Backend = BackendMDM // exercise the board-freeing path too
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunNVT(2); err != nil {
		t.Fatal(err)
	}

	first := sim.Free()
	if first != nil {
		t.Fatalf("first Free: %v", first)
	}
	const frees = 8
	var wg sync.WaitGroup
	errs := make([]error, frees)
	for i := 0; i < frees; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = sim.Free()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, first) {
			t.Errorf("concurrent Free %d = %v, want the first call's verdict (%v)", i, err, first)
		}
	}
}
