package store_test

// The recovery manager's fuzz harness lives in an external test package so
// it can validate with the real log format — supervise.ScanLog — which
// internal/store itself must not import (supervise writes through it).

import (
	"testing"

	"mdm/internal/md"
	"mdm/internal/store"
	"mdm/internal/supervise"
)

const fuzzLog = "run.wal"

// plant writes data into the filesystem under path, skipping empty files so
// the fuzzer controls which artifacts exist at all.
func plant(t *testing.T, fsys store.FS, path string, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// realLog builds a genuine run log — a snapshot at step 3, records for steps
// 4..6 — to seed the corpus with the format Scan actually meets.
func realLog(t testing.TB) []byte {
	s, err := md.NewRockSalt(2, 5.64)
	if err != nil {
		t.Fatal(err)
	}
	fs := store.NewFaultFS(nil)
	if err := md.WriteCheckpointFS(fs, "j", s, 3); err != nil {
		t.Fatal(err)
	}
	j, err := supervise.AppendJournalFS("j", supervise.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for step := 4; step <= 6; step++ {
		if err := j.Append(supervise.Record{Step: step, Stage: "nvt"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("j")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzScanRunDir throws arbitrary run directories — a log and an
// atomic-replace leftover — at the recovery manager and asserts its safety
// contract: Scan never panics and never certifies a resume step its log
// does not hold, and Repair converges to a directory with no torn or stale
// debris without moving the snapshot or shrinking the resume step.
func FuzzScanRunDir(f *testing.F) {
	log := realLog(f)
	torn := log[:len(log)-5]
	rotted := append([]byte(nil), log...)
	rotted[10] ^= 0x08
	interior := append([]byte(nil), log...)
	interior[len(log)-60] ^= 0x08

	f.Add(log, []byte(nil))
	f.Add(torn, []byte("half-written temp"))
	f.Add(rotted, log)
	f.Add(interior, []byte(nil))
	f.Add(log[:len(log)/2], log)
	f.Add([]byte(nil), []byte(nil))

	f.Fuzz(func(t *testing.T, log, tmp []byte) {
		fs := store.NewFaultFS(nil)
		plant(t, fs, fuzzLog, log)
		plant(t, fs, store.TempPath(fuzzLog), tmp)

		inv, err := store.Scan(fs, fuzzLog, supervise.ScanLog)
		if err != nil {
			t.Fatalf("Scan on a fault-free fs: %v", err)
		}
		// A certified resume step must be consistent: a snapshot at or below
		// it, whose frame really does decode to the step the inventory
		// claims.
		if inv.ResumeStep >= 0 {
			if inv.SnapshotStep < 0 || inv.ResumeStep < inv.SnapshotStep {
				t.Fatalf("inconsistent pair: snapshot=%d resume=%d", inv.SnapshotStep, inv.ResumeStep)
			}
			recs, _ := supervise.ReadJournalFS(fs, fuzzLog)
			if len(recs) == 0 || recs[0].Step != inv.SnapshotStep {
				t.Fatalf("certified snapshot does not decode to step %d: %+v", inv.SnapshotStep, recs)
			}
		}
		if inv.SnapshotStep >= 0 && inv.ResumeStep < inv.SnapshotStep {
			t.Fatalf("valid snapshot but resume=%d < %d", inv.ResumeStep, inv.SnapshotStep)
		}

		// Repair converges: no torn or stale debris afterwards, and the
		// certified resume state is preserved exactly.
		if _, err := store.Repair(fs, inv); err != nil {
			t.Fatalf("Repair: %v", err)
		}
		after, err := store.Scan(fs, fuzzLog, supervise.ScanLog)
		if err != nil {
			t.Fatalf("post-repair Scan: %v", err)
		}
		if len(after.Torn) != 0 || len(after.Stale) != 0 {
			t.Fatalf("repair left debris: torn=%v stale=%v", after.Torn, after.Stale)
		}
		if after.SnapshotStep != inv.SnapshotStep || after.ResumeStep != inv.ResumeStep {
			t.Fatalf("repair moved the certified state: snapshot %d -> %d, resume %d -> %d",
				inv.SnapshotStep, after.SnapshotStep, inv.ResumeStep, after.ResumeStep)
		}
		// A post-repair directory with every artifact "ok" must read back
		// clean end to end.
		if after.Healthy() {
			if _, err := supervise.ReadJournalFS(fs, fuzzLog); err != nil {
				t.Fatalf("healthy log unreadable: %v", err)
			}
		}
	})
}
