package lifecycle

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The exit-code contract is pinned against real signals delivered to a real
// process: the test binary re-execs itself as a helper (TestMain dispatches
// on MDM_LIFECYCLE_HELPER) so signal.Notify, the watcher goroutine and
// os.Exit run exactly as they do in the production binaries.

func TestMain(m *testing.M) {
	switch os.Getenv("MDM_LIFECYCLE_HELPER") {
	case "":
		os.Exit(m.Run())
	case "graceful":
		helperGraceful()
	case "wedged":
		helperWedged()
	default:
		fmt.Fprintln(os.Stderr, "unknown helper mode")
		os.Exit(3)
	}
}

// helperGraceful models mdmsim/mdmserve: poll Requested at "step"
// boundaries, then shut down cleanly with exit 0.
func helperGraceful() {
	sd := Watch(nil)
	defer sd.Stop()
	fmt.Println("ready")
	for !sd.Requested() {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Println("stopping")
	os.Exit(0)
}

// helperWedged models a binary whose graceful path is stuck (a run that
// never reaches a committed step): only the second signal can end it.
func helperWedged() {
	_ = Watch(nil)
	fmt.Println("ready")
	select {}
}

// helper launches the test binary in helper mode and returns the command
// with line-scanners over its stdout and stderr.
func helper(t *testing.T, mode string) (*exec.Cmd, *bufio.Scanner, *bufio.Scanner) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "MDM_LIFECYCLE_HELPER="+mode)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, bufio.NewScanner(stdout), bufio.NewScanner(stderr)
}

// waitLine scans until a line containing want appears.
func waitLine(t *testing.T, sc *bufio.Scanner, want string) {
	t.Helper()
	for sc.Scan() {
		if strings.Contains(sc.Text(), want) {
			return
		}
	}
	t.Fatalf("stream ended before %q (scan err: %v)", want, sc.Err())
}

func exitCode(t *testing.T, cmd *exec.Cmd) int {
	t.Helper()
	err := cmd.Wait()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if ok := isExitError(err, &ee); !ok {
		t.Fatalf("helper did not exit normally: %v", err)
	}
	return ee.ExitCode()
}

func isExitError(err error, out **exec.ExitError) bool {
	ee, ok := err.(*exec.ExitError)
	if ok {
		*out = ee
	}
	return ok
}

// One signal: the binary finishes its step loop and exits 0.
func TestExitCodeContractGraceful(t *testing.T) {
	cmd, stdout, _ := helper(t, "graceful")
	waitLine(t, stdout, "ready")
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitLine(t, stdout, "stopping")
	if code := exitCode(t, cmd); code != 0 {
		t.Fatalf("graceful shutdown exit code = %d, want 0", code)
	}
}

// Two signals: the second one kills the process with exit 130, even when the
// graceful path is wedged.
func TestExitCodeContractSecondSignalKills(t *testing.T) {
	cmd, stdout, stderr := helper(t, "wedged")
	waitLine(t, stdout, "ready")
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// The watcher logs after consuming the first signal; only then is the
	// second signal guaranteed to be the killing one rather than a
	// still-queued first.
	waitLine(t, stderr, "signal received")
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitLine(t, stderr, "killed")
	if code := exitCode(t, cmd); code != ExitKilled {
		t.Fatalf("hard-kill exit code = %d, want %d", code, ExitKilled)
	}
}

// The onFirst callback fires exactly once, on the first signal.
func TestWatchCallbackAndStop(t *testing.T) {
	exits := make(chan int, 1)
	sd := Watch(nil, WithExit(func(code int) { exits <- code }),
		WithLogf(func(string, ...any) {}))
	if sd.Requested() {
		t.Fatal("Requested before any signal")
	}
	sd.Stop()
	select {
	case code := <-exits:
		t.Fatalf("exit(%d) without any signal", code)
	default:
	}
}

func TestWriteSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sum.json")
	type sum struct {
		Status string `json:"status"`
		Steps  int    `json:"steps"`
	}
	if err := WriteSummary(path, sum{Status: "ok", Steps: 42}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	var got sum
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "ok" || got.Steps != 42 {
		t.Fatalf("round trip = %+v", got)
	}
	if !strings.HasSuffix(string(buf), "\n") {
		t.Error("summary file does not end in a newline")
	}
	// "" path: explicit no-op.
	if err := WriteSummary("", got); err != nil {
		t.Fatal(err)
	}
}

// WithExit overrides the hard-kill exit function (tests).
func WithExit(exit func(int)) Option {
	return func(s *Shutdown) { s.exit = exit }
}

// WithLogf overrides where the watcher's two progress lines go (default
// stderr).
func WithLogf(logf func(format string, args ...any)) Option {
	return func(s *Shutdown) { s.logf = logf }
}
