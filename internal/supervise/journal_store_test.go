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

// readSteps lists the steps of the records after the log's snapshot frame.
func readSteps(t *testing.T, fsys store.FS, path string) []int {
	t.Helper()
	recs, err := ReadJournalFS(fsys, path)
	if err != nil {
		t.Fatalf("ReadJournalFS: %v", err)
	}
	return stepsOf(recs)
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

// A snapshot commit replaces the log: the new file opens with the snapshot,
// the records before it are gone, and the records after it land in the new
// file — all of it durable once Snapshot returns.
func TestJournalSnapshotReplacesLog(t *testing.T) {
	fs := faultFS(t, "")
	j, err := CreateJournalFS("wal", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	appendSteps(t, j, 1, 2)
	if err := j.Snapshot(Record{Step: 2, State: []byte(`{"l":1}`)}); err != nil {
		t.Fatal(err)
	}
	appendSteps(t, j, 3)
	fs.Reboot(nil)
	recs, err := ReadJournalFS(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Step != 2 || string(recs[0].State) != `{"l":1}` || recs[1].Step != 3 {
		t.Fatalf("log after snapshot and reboot: %+v", recs)
	}
	if _, err := fs.ReadFile(store.TempPath("wal")); !store.NotExist(err) {
		t.Fatalf("temp left behind: %v", err)
	}
}

// A snapshot commit that fails after giving up the old log (create or
// rename refused) leaves the journal without an open log: every later call
// is the typed ErrJournalClosed — an error on the commit path, not a
// nil-handle panic — Close stays a no-op, and the old log is whole.
func TestJournalClosedAfterFailedSnapshot(t *testing.T) {
	// CreateJournalFS spends create 1 and rename 1: the snapshot's Create
	// is create 2, its Rename rename 2.
	for _, scenario := range []string{"store:eio@rename=2", "store:eio@create=2"} {
		t.Run(scenario, func(t *testing.T) {
			fs := faultFS(t, scenario)
			j, err := CreateJournalFS("wal", Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			appendSteps(t, j, 1, 2)
			if err := j.Snapshot(Record{Step: 2}); !errors.Is(err, store.ErrIO) {
				t.Fatalf("snapshot under %s: %v, want ErrIO", scenario, err)
			}
			if err := j.Append(Record{Step: 3}); !errors.Is(err, ErrJournalClosed) {
				t.Fatalf("Append after failed snapshot: %v, want ErrJournalClosed", err)
			}
			if err := j.Sync(); !errors.Is(err, ErrJournalClosed) {
				t.Fatalf("Sync after failed snapshot: %v, want ErrJournalClosed", err)
			}
			if err := j.Close(); err != nil {
				t.Fatalf("Close after failed snapshot: %v", err)
			}
			// Nothing committed was lost: both records are still readable.
			if got := readSteps(t, fs, "wal"); !eqInts(got, []int{1, 2}) {
				t.Fatalf("records after failed snapshot: %v", got)
			}
		})
	}
}

// A crash during CreateJournalFS leaves the previous log intact.
func TestCreateJournalCrashSafe(t *testing.T) {
	fs := faultFS(t, "")
	j, _ := CreateJournalFS("wal", Options{FS: fs})
	appendSteps(t, j, 1, 2)
	j.Close()

	// Crash at the rename that would commit the new log: the old run's
	// records must survive to the durable view.
	in, err := fault.ParseInjector("store:crash@rename=1")
	if err != nil {
		t.Fatal(err)
	}
	fs.Reboot(in)
	if _, err := CreateJournalFS("wal", Options{FS: fs}); !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("create under crash: %v", err)
	}
	fs.Reboot(nil)
	if got := readSteps(t, fs, "wal"); !eqInts(got, []int{1, 2}) {
		t.Fatalf("old log damaged by crashed create: %v\n%s", got, fs.Dump())
	}

	// A clean re-create holds only its snapshot.
	if _, err := CreateJournalFS("wal", Options{FS: fs}); err != nil {
		t.Fatal(err)
	}
	if got := readSteps(t, fs, "wal"); len(got) != 0 {
		t.Fatalf("fresh log holds records: %v", got)
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

// Rewind drops the records after the snapshot, atomically, and returns the
// snapshot; the log stays open for the records of the restarted timeline.
func TestRewindActiveSegment(t *testing.T) {
	fs := faultFS(t, "")
	j, _ := CreateLogFS("wal", Options{FS: fs}, Record{Step: 2, State: []byte(`{"l":1}`)})
	appendSteps(t, j, 3, 4, 5)
	snap, err := j.Rewind()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Step != 2 || string(snap.State) != `{"l":1}` {
		t.Fatalf("rewind returned %+v", snap)
	}
	appendSteps(t, j, 3)
	fs.Reboot(nil)
	if got := readSteps(t, fs, "wal"); !eqInts(got, []int{3}) {
		t.Fatalf("after rewind and reboot: %v", got)
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
	// Corrupt a byte in the snapshot frame: damage followed by valid records.
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
