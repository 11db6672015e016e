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

// writeRun lays down a healthy run directory on the real filesystem: a
// checkpoint at step 2 and a journal carrying steps 3..5.
func writeRun(t *testing.T) (dir, ckpt, journal string) {
	t.Helper()
	dir = t.TempDir()
	ckpt = filepath.Join(dir, "run.ckpt")
	journal = filepath.Join(dir, "run.journal")
	s, err := md.NewRockSalt(2, 5.64)
	if err != nil {
		t.Fatal(err)
	}
	if err := md.WriteCheckpointFS(store.OS(), ckpt, s, 2); err != nil {
		t.Fatal(err)
	}
	j, err := supervise.CreateJournalFS(journal, supervise.Options{})
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
	return dir, ckpt, journal
}

// fsck runs the tool against the run directory and decodes its JSON report.
func fsck(t *testing.T, mode, ckpt, journal string) (int, report) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "fsck-out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	args := []string{"-checkpoint", ckpt, "-journal", journal}
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

// A clean run directory verifies with exit 0 and reports the consistent
// resume pair.
func TestFsckHealthy(t *testing.T) {
	_, ckpt, journal := writeRun(t)
	code, rep := fsck(t, "-verify", ckpt, journal)
	if code != 0 {
		t.Fatalf("verify on healthy dir: exit %d", code)
	}
	if !rep.Healthy || rep.Unrecoverable {
		t.Fatalf("verdict: %+v", rep)
	}
	if rep.CheckpointStep != 2 || rep.ResumeStep != 5 {
		t.Fatalf("resume pair: ckpt=%d resume=%d", rep.CheckpointStep, rep.ResumeStep)
	}
}

// A torn journal tail fails -verify with exit 1, and -repair truncates it
// back to health: the surviving whole records still replay.
func TestFsckRepairTornTail(t *testing.T) {
	_, ckpt, journal := writeRun(t)
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	code, rep := fsck(t, "-verify", ckpt, journal)
	if code != 1 || rep.Healthy {
		t.Fatalf("verify on torn dir: exit %d, %+v", code, rep)
	}

	code, rep = fsck(t, "-repair", ckpt, journal)
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
	if len(recs) != 2 || recs[1].Step != 4 {
		t.Fatalf("repaired journal records: %+v", recs)
	}
}

// A stale atomic-replace temp is debris: exit 1 until -repair removes it.
func TestFsckRepairStaleTemp(t *testing.T) {
	_, ckpt, journal := writeRun(t)
	tmp := store.TempPath(ckpt)
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _ := fsck(t, "-verify", ckpt, journal)
	if code != 1 {
		t.Fatalf("verify with stale temp: exit %d", code)
	}
	code, rep := fsck(t, "-repair", ckpt, journal)
	if code != 0 || !rep.Healthy {
		t.Fatalf("repair: exit %d, %+v", code, rep)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived repair: %v", err)
	}
}

// A bit-flipped checkpoint with journal progress behind it is unrecoverable:
// exit 2, and -repair refuses to touch the checkpoint.
func TestFsckUnrecoverableCheckpoint(t *testing.T) {
	_, ckpt, journal := writeRun(t)
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[40] ^= 1
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, rep := fsck(t, "", ckpt, journal)
	if code != 2 || !rep.Unrecoverable {
		t.Fatalf("corrupt checkpoint: exit %d, %+v", code, rep)
	}
	code, rep = fsck(t, "-repair", ckpt, journal)
	if code != 2 || len(rep.Repaired) != 0 {
		t.Fatalf("repair must not touch a damaged checkpoint: exit %d, repaired %v", code, rep.Repaired)
	}
	after, err := os.ReadFile(ckpt)
	if err != nil || len(after) != len(data) {
		t.Fatalf("checkpoint modified by repair: %v", err)
	}
}

// A missing run directory is simply empty: nothing to verify, exit 0.
func TestFsckEmptyDir(t *testing.T) {
	dir := t.TempDir()
	code, rep := fsck(t, "-verify", filepath.Join(dir, "run.ckpt"), filepath.Join(dir, "run.journal"))
	if code != 0 || !rep.Healthy {
		t.Fatalf("empty dir: exit %d, %+v", code, rep)
	}
	if rep.ResumeStep != -1 {
		t.Fatalf("resume step in empty dir: %d", rep.ResumeStep)
	}
}
