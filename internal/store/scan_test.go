package store

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// A synthetic log format for Scan tests: newline-terminated "s<step>" lines,
// the first one the snapshot. "BAD" is corruption; a line without its
// newline is a torn tail.
func testScan(data []byte) ([]int, int, error) {
	var steps []int
	valid := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn tail
		}
		line := string(data[:nl])
		st, err := strconv.Atoi(strings.TrimPrefix(line, "s"))
		if err != nil || !strings.HasPrefix(line, "s") {
			return steps, valid, fmt.Errorf("corrupt record %q", line)
		}
		steps = append(steps, st)
		valid += nl + 1
		data = data[nl+1:]
	}
	if len(steps) == 0 {
		return nil, 0, fmt.Errorf("no snapshot")
	}
	return steps, valid, nil
}

func seg(steps ...int) []byte {
	var b bytes.Buffer
	for _, s := range steps {
		fmt.Fprintf(&b, "s%d\n", s)
	}
	return b.Bytes()
}

const logPath = "run.wal"

func put(t *testing.T, fs FS, path string, data []byte) {
	t.Helper()
	if err := WriteFileAtomic(fs, path, data); err != nil {
		t.Fatal(err)
	}
}

func TestScanEmptyDir(t *testing.T) {
	inv, err := Scan(NewFaultFS(nil), logPath, testScan)
	if err != nil {
		t.Fatal(err)
	}
	if inv.SnapshotStep != -1 || inv.ResumeStep != -1 || !inv.Healthy() || inv.Unrecoverable() {
		t.Fatalf("empty dir: %+v", inv)
	}
}

// A snapshot followed by contiguous records resumes at the last record.
func TestScanConsistentPair(t *testing.T) {
	fs := NewFaultFS(nil)
	put(t, fs, logPath, seg(4, 5, 6, 7))
	inv, err := Scan(fs, logPath, testScan)
	if err != nil {
		t.Fatal(err)
	}
	if inv.SnapshotStep != 4 || inv.ResumeStep != 7 {
		t.Fatalf("snapshot=%d resume=%d, want 4/7", inv.SnapshotStep, inv.ResumeStep)
	}
	if !inv.Healthy() {
		t.Fatalf("healthy dir flagged: %+v", inv)
	}
}

// A gap after the snapshot step truncates the resume step to the contiguous
// prefix — Scan never selects records beyond the gap.
func TestScanGapTruncatesResume(t *testing.T) {
	fs := NewFaultFS(nil)
	put(t, fs, logPath, seg(2, 3, 4, 6, 7))
	inv, err := Scan(fs, logPath, testScan)
	if err != nil {
		t.Fatal(err)
	}
	if inv.ResumeStep != 4 {
		t.Fatalf("resume=%d, want 4 (gap at 5)", inv.ResumeStep)
	}
}

// Torn tail: the valid prefix still resumes; Repair truncates the tear and
// the rescan is healthy with the same resume step.
func TestScanTornTailAndRepair(t *testing.T) {
	fs := NewFaultFS(nil)
	torn := append(seg(1, 2, 3), []byte("s4")...) // record 4 lost its newline
	put(t, fs, logPath, torn)
	inv, err := Scan(fs, logPath, testScan)
	if err != nil {
		t.Fatal(err)
	}
	if inv.ResumeStep != 3 || len(inv.Torn) != 1 {
		t.Fatalf("torn scan: %+v", inv)
	}
	changed, err := Repair(fs, inv)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 || changed[0] != logPath {
		t.Fatalf("repair changed %v", changed)
	}
	inv2, err := Scan(fs, logPath, testScan)
	if err != nil {
		t.Fatal(err)
	}
	if !inv2.Healthy() || inv2.ResumeStep != 3 {
		t.Fatalf("post-repair: %+v", inv2)
	}
}

// Interior corruption stops the resume step before the records after it,
// even if their steps would continue the sequence; Repair truncates it.
func TestScanCorruptSegmentStopsTail(t *testing.T) {
	fs := NewFaultFS(nil)
	bad := append(append(seg(0, 1, 2), []byte("BAD\n")...), seg(3, 4)...)
	put(t, fs, logPath, bad)
	inv, err := Scan(fs, logPath, testScan)
	if err != nil {
		t.Fatal(err)
	}
	if inv.ResumeStep != 2 {
		t.Fatalf("resume=%d, want 2 (stop at corruption)", inv.ResumeStep)
	}
	if len(inv.Damaged) != 1 || inv.Unrecoverable() {
		t.Fatalf("damaged: %v, unrecoverable %v", inv.Damaged, inv.Unrecoverable())
	}
	if _, err := Repair(fs, inv); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile(logPath); !bytes.Equal(got, seg(0, 1, 2)) {
		t.Fatalf("repaired log %q", got)
	}
}

// A corrupt snapshot frame with records behind it is unrecoverable; Repair
// leaves the log alone.
func TestScanCorruptCheckpointUnrecoverable(t *testing.T) {
	fs := NewFaultFS(nil)
	damaged := append([]byte("garbage\n"), seg(1, 2)...)
	put(t, fs, logPath, damaged)
	inv, err := Scan(fs, logPath, testScan)
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Unrecoverable() || inv.ResumeStep != -1 {
		t.Fatalf("corrupt snapshot not flagged unrecoverable: %+v", inv)
	}
	if _, err := Repair(fs, inv); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile(logPath); !bytes.Equal(got, damaged) {
		t.Fatal("Repair touched the damaged snapshot")
	}
}

// A stale atomic-replace temp is inventoried and removed by Repair.
func TestScanStaleTempRemoved(t *testing.T) {
	fs := NewFaultFS(nil)
	put(t, fs, logPath, seg(3))
	put(t, fs, TempPath(logPath), []byte("half-written"))
	inv, err := Scan(fs, logPath, testScan)
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Stale) != 1 {
		t.Fatalf("stale: %v", inv.Stale)
	}
	if _, err := Repair(fs, inv); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile(TempPath(logPath)); !NotExist(err) {
		t.Fatal("stale temp survived repair")
	}
}
