package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
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
			"-journal", path(".wal"), "-xyz", path(".xyz"), "-summary", path(".json")}, extra...)
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
	if clean.EnergyDrift == nil || faulted.EnergyDrift == nil || *faulted.EnergyDrift != *clean.EnergyDrift {
		t.Errorf("drift after a restart %v, clean %v", faulted.EnergyDrift, clean.EnergyDrift)
	}
	// The spine carries across the restart: the rebuilt engine books on
	// the same sink, so the faulted run counts the steps it ran twice.
	if n, m := clean.Phases["caller"]["sweep"].Count, faulted.Phases["caller"]["sweep"].Count; n != 31 || m <= n {
		t.Errorf("sweeps booked: clean %d, after a restart %d; want 31 and more", n, m)
	}
	for _, s := range []*runSummary{&clean, &faulted} {
		s.Restarts, s.WallSeconds, s.Fault, s.Commits, s.CommitStalls, s.EnergyDrift = 0, 0, nil, 0, 0, nil
		s.Phases = nil
	}
	if !reflect.DeepEqual(faulted, clean) {
		t.Errorf("summary after a restart %+v, clean %+v", faulted, clean)
	}
}

// A run whose NVE segment evaluated the potential at fewer than two steps
// has no drift: -summary writes null (JSON has no NaN).
func TestSummaryDriftUnavailable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	if code := run([]string{"-cells", "2", "-nvt", "10", "-nve", "50", "-potential-every", "100", "-summary", path}); code != 0 {
		t.Fatalf("run exits %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"energy_drift": null`)) {
		t.Errorf("summary %s, want \"energy_drift\": null", data)
	}
}

// Between -potential-every evaluations a sampled row shows the carried
// marker, not the stale PE and E; the evaluated rows print numbers.
func TestSampleTableMarksCarriedPotentials(t *testing.T) {
	var code int
	out := stdout(t, func() {
		code = run([]string{"-cells", "2", "-nvt", "5", "-nve", "6", "-potential-every", "5", "-every", "1"})
	})
	if code != 0 {
		t.Fatalf("run exits %d", code)
	}
	if !strings.Contains(out, "PE is evaluated every 5 steps") {
		t.Errorf("no cadence note in the header:\n%s", out)
	}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 {
			continue
		}
		step, err := strconv.Atoi(f[0])
		if err != nil {
			continue
		}
		rows++
		if marked := f[4] == "carried" && f[5] == "carried"; marked != (step%5 != 0) {
			t.Errorf("step %d row %q: carried marker %v, want %v", step, line, marked, step%5 != 0)
		}
	}
	if rows != 13 { // steps 0..11, step 5 sampled by both segments
		t.Errorf("%d sample rows, want 13:\n%s", rows, out)
	}
}

// stdout returns what f prints to os.Stdout.
func stdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	saved := os.Stdout
	os.Stdout = w
	f()
	os.Stdout = saved
	_ = w.Close()
	return string(<-done)
}

// mdmsim refuses, before anything runs, flag values it could only fail on
// after the whole run.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		every   int
		resume  bool
		journal string
		ok      bool
	}{
		{10, false, "", true},
		{1, true, "run.wal", true},
		{0, false, "", false}, // the sample table divides by -every
		{-3, false, "", false},
		{10, true, "", false},
	} {
		if err := checkFlags(c.every, c.resume, c.journal); (err == nil) != c.ok {
			t.Errorf("checkFlags(every %d, resume %v, %q) = %v, want ok=%v", c.every, c.resume, c.journal, err, c.ok)
		}
	}
}

// A fault clause the run would never fire is a usage error, refused before
// anything runs, like every other Config.Validate refusal.
func TestDeadFaultClauseExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-faults", "store:crash@sync=1; store:eio@write=1", "-journal", filepath.Join(t.TempDir(), "run.wal")},
		{"-faults", "mpi:drop@src=1,dst=0,n=1"},
		{"-ranks", "2", "-faults", "mpi:senderr@src=7,dst=9,n=1"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("mdmsim %q exits %d, want 2", args, code)
		}
	}
}

// An interrupted run names the -resume command only when it has a log to
// resume from.
func TestResumeHint(t *testing.T) {
	want := "status: interrupted at step 7; resume with -resume -journal run.wal"
	if got := resumeHint(7, "run.wal"); got != want {
		t.Errorf("hint = %q, want %q", got, want)
	}
	if got := resumeHint(7, ""); !strings.Contains(got, "cannot be resumed") || strings.Contains(got, "-resume") {
		t.Errorf("hint without a log = %q", got)
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
