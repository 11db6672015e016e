package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mdm/internal/md"
	"mdm/internal/store"
	"mdm/internal/supervise"
)

// writeRun lays down a healthy run log on the real filesystem: a snapshot
// at step 2 followed by records for steps 3..5.
func writeRun(t *testing.T) (journal string) {
	t.Helper()
	journal = filepath.Join(t.TempDir(), "run.wal")
	s, err := md.NewRockSalt(2, 5.64)
	if err != nil {
		t.Fatal(err)
	}
	if err := md.WriteCheckpointFS(store.OS(), journal, s, 2); err != nil {
		t.Fatal(err)
	}
	j, err := supervise.AppendJournalFS(journal, supervise.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for step := 3; step <= 5; step++ {
		if err := j.Append(supervise.Record{Step: step, Stage: "nvt"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return journal
}

// fsck runs the tool against the run directory and decodes its JSON report.
func fsck(t *testing.T, mode, journal string) (int, report) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "fsck-out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	args := []string{"-journal", journal}
	if mode != "" {
		args = append(args, mode)
	}
	code := run(args, out, os.Stderr)
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if len(data) > 0 {
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("report not valid JSON: %v\n%s", err, data)
		}
	}
	return code, rep
}

// A clean log verifies with exit 0 and reports its snapshot and resume steps.
func TestFsckHealthy(t *testing.T) {
	journal := writeRun(t)
	code, rep := fsck(t, "-verify", journal)
	if code != 0 {
		t.Fatalf("verify on healthy dir: exit %d", code)
	}
	if !rep.Healthy || rep.Unrecoverable {
		t.Fatalf("verdict: %+v", rep)
	}
	if rep.SnapshotStep != 2 || rep.ResumeStep != 5 {
		t.Fatalf("snapshot=%d resume=%d, want 2 and 5", rep.SnapshotStep, rep.ResumeStep)
	}
}

// A torn log tail fails -verify with exit 1, and -repair truncates it back
// to health: the surviving whole records still replay.
func TestFsckRepairTornTail(t *testing.T) {
	journal := writeRun(t)
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	code, rep := fsck(t, "-verify", journal)
	if code != 1 || rep.Healthy {
		t.Fatalf("verify on torn dir: exit %d, %+v", code, rep)
	}

	code, rep = fsck(t, "-repair", journal)
	if code != 0 || !rep.Healthy {
		t.Fatalf("repair: exit %d, %+v", code, rep)
	}
	if len(rep.Repaired) != 1 || rep.Repaired[0] != journal {
		t.Fatalf("repaired: %v", rep.Repaired)
	}
	if rep.ResumeStep != 4 {
		t.Fatalf("resume after truncating torn step-5 record: %d", rep.ResumeStep)
	}
	recs, err := supervise.ReadJournalFS(store.OS(), journal)
	if err != nil {
		t.Fatalf("repaired journal unreadable: %v", err)
	}
	if len(recs) != 3 || recs[2].Step != 4 {
		t.Fatalf("repaired journal records: %+v", recs)
	}
}

// A stale atomic-replace temp is debris: exit 1 until -repair removes it.
func TestFsckRepairStaleTemp(t *testing.T) {
	journal := writeRun(t)
	tmp := store.TempPath(journal)
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _ := fsck(t, "-verify", journal)
	if code != 1 {
		t.Fatalf("verify with stale temp: exit %d", code)
	}
	code, rep := fsck(t, "-repair", journal)
	if code != 0 || !rep.Healthy {
		t.Fatalf("repair: exit %d, %+v", code, rep)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived repair: %v", err)
	}
}

// A bit-flipped snapshot frame with records behind it is unrecoverable: exit
// 2, and -repair refuses to touch the log.
func TestFsckUnrecoverableCheckpoint(t *testing.T) {
	journal := writeRun(t)
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	data[40] ^= 1
	if err := os.WriteFile(journal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, rep := fsck(t, "", journal)
	if code != 2 || !rep.Unrecoverable {
		t.Fatalf("corrupt snapshot: exit %d, %+v", code, rep)
	}
	code, rep = fsck(t, "-repair", journal)
	if code != 2 || len(rep.Repaired) != 0 {
		t.Fatalf("repair must not touch a damaged snapshot: exit %d, repaired %v", code, rep.Repaired)
	}
	after, err := os.ReadFile(journal)
	if err != nil || len(after) != len(data) {
		t.Fatalf("log modified by repair: %v", err)
	}
}

// A missing run directory is simply empty: nothing to verify, exit 0.
func TestFsckEmptyDir(t *testing.T) {
	dir := t.TempDir()
	code, rep := fsck(t, "-verify", filepath.Join(dir, "run.wal"))
	if code != 0 || !rep.Healthy {
		t.Fatalf("empty dir: exit %d, %+v", code, rep)
	}
	if rep.ResumeStep != -1 {
		t.Fatalf("resume step in empty dir: %d", rep.ResumeStep)
	}
}
