package supervise

import (
	"errors"
	"testing"

	"mdm/internal/fault"
	"mdm/internal/store"
)

func faultFS(t *testing.T, scenario string) *store.FaultFS {
	t.Helper()
	if scenario == "" {
		return store.NewFaultFS(nil)
	}
	in, err := fault.ParseInjector(scenario)
	if err != nil {
		t.Fatal(err)
	}
	return store.NewFaultFS(in)
}

func appendSteps(t *testing.T, j *Journal, steps ...int) {
	t.Helper()
	for _, s := range steps {
		if err := j.Append(Record{Step: s, Stage: "nvt"}); err != nil {
			t.Fatalf("Append step %d: %v", s, err)
		}
	}
}

func readSteps(t *testing.T, fsys store.FS, path string) []int {
	t.Helper()
	recs, err := ReadJournalFS(fsys, path)
	if err != nil {
		t.Fatalf("ReadJournalFS: %v", err)
	}
	steps := make([]int, len(recs))
	for i, r := range recs {
		steps[i] = r.Step
	}
	return steps
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A turnover behind the segments' steps (checkpoint step 0 covers none of
// them) only rotates: the active segment moves aside and the full read spans
// segments.
func TestJournalRotateAndReadAcrossSegments(t *testing.T) {
	fs := faultFS(t, "")
	j, err := CreateJournalFS("wal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	appendSteps(t, j, 1, 2)
	if err := j.Turnover(0); err != nil {
		t.Fatal(err)
	}
	if segs, _ := store.JournalSegments(fs, "wal"); len(segs) != 1 || segs[0] != store.SegmentPath("wal", 1) {
		t.Fatalf("rotated to %v", segs)
	}
	appendSteps(t, j, 3, 4)
	if err := j.Turnover(0); err != nil {
		t.Fatal(err)
	}
	appendSteps(t, j, 5)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readSteps(t, fs, "wal"); !eqInts(got, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("steps across segments: %v", got)
	}
	// Everything is durable: the same read works after a crash.
	fs.Reboot(nil)
	if got := readSteps(t, fs, "wal"); !eqInts(got, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("steps after reboot: %v", got)
	}
}

// A turnover retires the rotated segments fully covered by the checkpoint and
// keeps newer ones, under one directory fsync.
func TestCompactJournal(t *testing.T) {
	fs := faultFS(t, "")
	j, _ := CreateJournalFS("wal", Options{FS: fs})
	appendSteps(t, j, 1, 2)
	j.Turnover(0) // wal.0001: steps 1-2
	appendSteps(t, j, 3, 4)
	j.Turnover(0) // wal.0002: steps 3-4
	appendSteps(t, j, 5)

	// Checkpoint at step 2: wal.0001 is covered; wal.0002 and the segment
	// rotated now (wal.0003: step 5) are not.
	if err := j.Turnover(2); err != nil {
		t.Fatal(err)
	}
	segs, _ := store.JournalSegments(fs, "wal")
	if len(segs) != 2 || segs[0] != store.SegmentPath("wal", 2) || segs[1] != store.SegmentPath("wal", 3) {
		t.Fatalf("turnover(2) left segments %v", segs)
	}
	if got := readSteps(t, fs, "wal"); !eqInts(got, []int{3, 4, 5}) {
		t.Fatalf("after turnover: %v", got)
	}
	// The removal is durable (the directory fsync ran).
	fs.Reboot(nil)
	if _, err := fs.ReadFile(store.SegmentPath("wal", 1)); !store.NotExist(err) {
		t.Fatalf("retired segment resurrected: %v", err)
	}

	// Checkpoint at step 5 covers everything: only the empty active segment
	// remains.
	j, _ = AppendJournalFS("wal", Options{FS: fs})
	if err := j.Turnover(5); err != nil {
		t.Fatal(err)
	}
	if segs, _ := store.JournalSegments(fs, "wal"); len(segs) != 0 {
		t.Fatalf("turnover(5) left segments %v", segs)
	}
	appendSteps(t, j, 6)
	j.Close()
	if got := readSteps(t, fs, "wal"); !eqInts(got, []int{6}) {
		t.Fatalf("after full turnover: %v", got)
	}
}

// A turnover that fails after giving up the old segment (rename or create
// refused) leaves the journal without an active segment: every later call is
// the typed ErrJournalClosed — an error on the commit path, not a nil-handle
// panic — and Close stays a no-op.
func TestJournalClosedAfterFailedTurnover(t *testing.T) {
	// CreateJournalFS spends rename 1 and creates 1-2 (temp file, append
	// handle): the turnover's Rename is rename 2, its Create is create 3.
	for _, scenario := range []string{"store:eio@rename=2", "store:eio@create=3"} {
		t.Run(scenario, func(t *testing.T) {
			fs := faultFS(t, scenario)
			j, err := CreateJournalFS("wal", Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			appendSteps(t, j, 1, 2)
			if err := j.Turnover(2); !errors.Is(err, store.ErrIO) {
				t.Fatalf("turnover under %s: %v, want ErrIO", scenario, err)
			}
			if err := j.Append(Record{Step: 3}); !errors.Is(err, ErrJournalClosed) {
				t.Fatalf("Append after failed turnover: %v, want ErrJournalClosed", err)
			}
			if err := j.Sync(); !errors.Is(err, ErrJournalClosed) {
				t.Fatalf("Sync after failed turnover: %v, want ErrJournalClosed", err)
			}
			if err := j.Turnover(2); !errors.Is(err, ErrJournalClosed) {
				t.Fatalf("Turnover after failed turnover: %v, want ErrJournalClosed", err)
			}
			if err := j.Close(); err != nil {
				t.Fatalf("Close after failed turnover: %v", err)
			}
			// Nothing committed was lost: both records are still readable.
			if got := readSteps(t, fs, "wal"); !eqInts(got, []int{1, 2}) {
				t.Fatalf("records after failed turnover: %v", got)
			}
		})
	}
}

// A fresh CreateJournalFS retires a previous run's rotated segments, and a
// crash during creation leaves the previous journal intact.
func TestCreateJournalCrashSafe(t *testing.T) {
	fs := faultFS(t, "")
	j, _ := CreateJournalFS("wal", Options{FS: fs})
	appendSteps(t, j, 1)
	j.Turnover(0)
	appendSteps(t, j, 2)
	j.Close()

	// Crash at the rename that would commit the new empty journal: the old
	// run's records must survive to the durable view.
	in, err := fault.ParseInjector("store:crash-before-rename@rename=1")
	if err != nil {
		t.Fatal(err)
	}
	fs.Reboot(in)
	if _, err := CreateJournalFS("wal", Options{FS: fs}); !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("create under crash: %v", err)
	}
	fs.Reboot(nil)
	if got := readSteps(t, fs, "wal"); !eqInts(got, []int{1, 2}) {
		t.Fatalf("old journal damaged by crashed create: %v\n%s", got, fs.Dump())
	}

	// A clean re-create starts empty and retires the stale segment.
	if _, err := CreateJournalFS("wal", Options{FS: fs}); err != nil {
		t.Fatal(err)
	}
	if got := readSteps(t, fs, "wal"); len(got) != 0 {
		t.Fatalf("fresh journal not empty: %v", got)
	}
	segs, _ := store.JournalSegments(fs, "wal")
	if len(segs) != 0 {
		t.Fatalf("stale segments survived create: %v", segs)
	}
}

// Group commit: with SyncEvery=3, a crash after two appends loses both; the
// third append syncs and all three survive.
func TestJournalGroupCommit(t *testing.T) {
	fs := faultFS(t, "")
	j, _ := CreateJournalFS("wal", Options{FS: fs, SyncEvery: 3})
	appendSteps(t, j, 1, 2)
	fs.Reboot(nil)
	if got := readSteps(t, fs, "wal"); len(got) != 0 {
		t.Fatalf("unsynced appends survived: %v", got)
	}

	fs = faultFS(t, "")
	j, _ = CreateJournalFS("wal", Options{FS: fs, SyncEvery: 3})
	appendSteps(t, j, 1, 2, 3) // third append triggers the group fsync
	fs.Reboot(nil)
	if got := readSteps(t, fs, "wal"); !eqInts(got, []int{1, 2, 3}) {
		t.Fatalf("group-committed records lost: %v", got)
	}
}

// Close flushes pending group-commit records.
func TestJournalCloseFlushes(t *testing.T) {
	fs := faultFS(t, "")
	j, _ := CreateJournalFS("wal", Options{FS: fs, SyncEvery: 10})
	appendSteps(t, j, 1, 2)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Reboot(nil)
	if got := readSteps(t, fs, "wal"); !eqInts(got, []int{1, 2}) {
		t.Fatalf("Close lost pending records: %v", got)
	}
}

// Rewind truncates the active segment after step, atomically, leaving
// rotated segments alone.
func TestRewindActiveSegment(t *testing.T) {
	fs := faultFS(t, "")
	j, _ := CreateJournalFS("wal", Options{FS: fs})
	appendSteps(t, j, 1, 2)
	j.Turnover(0)
	appendSteps(t, j, 3, 4, 5)
	j.Close()
	if err := Rewind(fs, "wal", 3); err != nil {
		t.Fatal(err)
	}
	if got := readSteps(t, fs, "wal"); !eqInts(got, []int{1, 2, 3}) {
		t.Fatalf("after rewind: %v", got)
	}
	fs.Reboot(nil)
	if got := readSteps(t, fs, "wal"); !eqInts(got, []int{1, 2, 3}) {
		t.Fatalf("rewind not durable: %v", got)
	}
}

// An injected eio on the journal read surfaces as an error — never a silent
// short read (satellite: typed-error coverage).
func TestReadJournalFSEIO(t *testing.T) {
	fs := faultFS(t, "")
	j, _ := CreateJournalFS("wal", Options{FS: fs})
	appendSteps(t, j, 1, 2)
	j.Close()
	in, err := fault.ParseInjector("store:eio@read=1")
	if err != nil {
		t.Fatal(err)
	}
	fs.Reboot(in)
	if _, err := ReadJournalFS(fs, "wal"); !errors.Is(err, store.ErrIO) {
		t.Fatalf("eio read: err = %v, want ErrIO", err)
	}
}

// An injected bitrot lands on a record's CRC: the reader reports
// ErrJournalCorrupt for interior damage rather than returning rotted data.
func TestReadJournalFSBitRot(t *testing.T) {
	fs := faultFS(t, "")
	j, _ := CreateJournalFS("wal", Options{FS: fs})
	appendSteps(t, j, 1, 2, 3)
	j.Close()
	// Corrupt a byte in the first record: damage followed by valid records.
	in, err := fault.ParseInjector("store:bitrot@read=1,offset=10")
	if err != nil {
		t.Fatal(err)
	}
	fs.Reboot(in)
	_, rerr := ReadJournalFS(fs, "wal")
	if !errors.Is(rerr, ErrJournalCorrupt) {
		t.Fatalf("bitrot read: err = %v, want ErrJournalCorrupt", rerr)
	}
}
