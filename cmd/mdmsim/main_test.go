package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// A fatal fault healed by an in-place restart leaves the same output as the
// clean run: one after-nvt frame, and a summary that differs only in what
// records the restart itself.
func TestFatalRestartMatchesCleanRun(t *testing.T) {
	dir := t.TempDir()
	invoke := func(name string, extra ...string) (xyz []byte, sum runSummary) {
		t.Helper()
		path := func(ext string) string { return filepath.Join(dir, name+ext) }
		args := append([]string{"-cells", "2", "-nvt", "10", "-nve", "20", "-checkpoint-every", "5",
			"-checkpoint", path(".ckpt"), "-xyz", path(".xyz"), "-summary", path(".json")}, extra...)
		if code := run(args); code != 0 {
			t.Fatalf("%s run exits %d", name, code)
		}
		xyz, err := os.ReadFile(path(".xyz"))
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path(".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &sum); err != nil {
			t.Fatal(err)
		}
		return xyz, sum
	}
	cleanXYZ, clean := invoke("clean")
	faultXYZ, faulted := invoke("fault", "-faults", "run:fatal@step=25")
	if n := bytes.Count(faultXYZ, []byte("after-nvt")); n != 1 {
		t.Errorf("restarted run wrote %d after-nvt frames, want 1", n)
	}
	if !bytes.Equal(faultXYZ, cleanXYZ) {
		t.Error("restarted run's trajectory differs from the clean run's")
	}
	if faulted.Restarts != 1 || faulted.Fault == nil {
		t.Errorf("restarts %d, fault report %v; want one restart, reported", faulted.Restarts, faulted.Fault)
	}
	for _, s := range []*runSummary{&clean, &faulted} {
		s.Restarts, s.WallSeconds, s.Fault, s.Commits, s.CommitStalls = 0, 0, nil, 0, 0
	}
	if faulted != clean {
		t.Errorf("summary after a restart %+v, clean %+v", faulted, clean)
	}
}

// mdmsim refuses, before anything runs, flag values it could only fail on
// after the whole run.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		every         int
		resume        bool
		ckpt, journal string
		ok            bool
	}{
		{10, false, "", "", true},
		{1, true, "run.ckpt", "run.wal", true},
		{0, false, "", "", false}, // the sample table divides by -every
		{-3, false, "", "", false},
		{10, true, "run.ckpt", "", false},
		{10, true, "", "run.wal", false},
	} {
		if err := checkFlags(c.every, c.resume, c.ckpt, c.journal); (err == nil) != c.ok {
			t.Errorf("checkFlags(every %d, resume %v, %q, %q) = %v, want ok=%v", c.every, c.resume, c.ckpt, c.journal, err, c.ok)
		}
	}
}

// An interrupted run names the -resume command only when it has both files
// to resume from.
func TestResumeHint(t *testing.T) {
	want := "status: interrupted at step 7; resume with -resume -checkpoint run.ckpt -journal run.wal"
	if got := resumeHint(7, "run.ckpt", "run.wal"); got != want {
		t.Errorf("hint = %q, want %q", got, want)
	}
	for _, c := range [][2]string{{"", ""}, {"run.ckpt", ""}, {"", "run.wal"}} {
		if got := resumeHint(7, c[0], c[1]); !strings.Contains(got, "cannot be resumed") || strings.Contains(got, "-resume") {
			t.Errorf("hint without both files (%q, %q) = %q", c[0], c[1], got)
		}
	}
}

// The closing ms/step divides by the steps this invocation advanced and
// reads n/a when it advanced none (-nvt 0 -nve 0, or a resume at the end).
func TestMsPerStep(t *testing.T) {
	if got := msPerStep(3*time.Second, 60); got != "50.0" {
		t.Errorf("3 s over 60 steps = %q, want 50.0", got)
	}
	if got := msPerStep(time.Second, 0); got != "n/a" {
		t.Errorf("no steps = %q, want n/a", got)
	}
}
