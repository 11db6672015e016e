package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mdm/internal/serve"
)

// The daemon's startup, drain and exit-code contracts are pinned against a
// real process: the test binary re-execs itself as the server (TestMain
// dispatches on MDM_SERVE_HELPER) so flag parsing, signal handling, the HTTP
// listener and os.Exit all run exactly as in production.

func TestMain(m *testing.M) {
	if os.Getenv("MDM_SERVE_HELPER") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// startServer launches the daemon on an ephemeral port and returns the
// command, its base URL (parsed from the startup line) and its stdout
// scanner.
func startServer(t *testing.T, args ...string) (*exec.Cmd, string, *bufio.Scanner) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "MDM_SERVE_HELPER=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr := strings.TrimSpace(strings.SplitN(line[i+len("listening on "):], ",", 2)[0])
			return cmd, "http://" + addr, sc
		}
	}
	t.Fatalf("server never announced its address (scan err: %v)", sc.Err())
	return nil, "", nil
}

// TestServeBinaryDrainContract runs the full daemon lifecycle: start on an
// ephemeral port, submit and finish a session over HTTP, SIGTERM, and verify
// the drain line, the machine-readable summary file and exit code 0.
func TestServeBinaryDrainContract(t *testing.T) {
	dir := t.TempDir()
	sumPath := filepath.Join(dir, "drain.json")
	cmd, base, stdout := startServer(t,
		"-root", filepath.Join(dir, "data"), "-summary", sumPath, "-checkpoint-every", "2")

	resp, err := http.Post(base+"/v1/sessions", "application/json",
		bytes.NewReader([]byte(`{"tenant":"alice","cells":2,"steps":4,"backend":"reference"}`)))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d %+v", resp.StatusCode, st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for st.State != serve.StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("session stuck: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get(base + "/v1/sessions/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	drained := false
	for stdout.Scan() {
		if strings.Contains(stdout.Text(), "drained:") {
			drained = true
			break
		}
	}
	if !drained {
		t.Fatalf("no drain line before exit (scan err: %v)", stdout.Err())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("graceful drain exit: %v, want success (exit 0)", err)
	}

	data, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatalf("drain summary file: %v", err)
	}
	var sum serve.DrainSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("drain summary is not valid JSON: %v\n%s", err, data)
	}
	if sum.Sessions[serve.StateDone] != 1 || len(sum.Interrupted) != 0 {
		t.Fatalf("drain summary = %+v, want one done session, none interrupted", sum)
	}
}
