package analyzers_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdm/internal/analyzers"
)

// TestAuditDir exercises the suppression audit on a synthetic tree: justified
// suppressions are listed cleanly, bare and unknown-key ones are problems.
func TestAuditDir(t *testing.T) {
	root := t.TempDir()
	src := `package p

import "time"

//mdm:stepflow -- root of the synthetic hot path
func step() {
	_ = time.Now() //mdm:wallclockok -- liveness only
	bad()
}

func bad() {
	_ = time.Now() //mdm:wallclockok
}

//mdm:nosuchkey -- typo in the key
func typo() {}
`
	if err := os.WriteFile(filepath.Join(root, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Hidden directories are skipped even when they contain suppressions.
	hidden := filepath.Join(root, ".cache")
	if err := os.MkdirAll(hidden, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(hidden, "h.go"), []byte("package h\n\n//mdm:bogus\nfunc f() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	known := analyzers.KnownSuppressKeys(analyzers.All())
	sups, problems, err := analyzers.AuditDir(root, known)
	if err != nil {
		t.Fatal(err)
	}
	if len(sups) != 4 {
		t.Errorf("found %d suppressions, want 4: %v", len(sups), sups)
	}
	if len(problems) != 2 {
		t.Fatalf("found %d problems, want 2: %v", len(problems), problems)
	}
	var sawBare, sawUnknown bool
	for _, p := range problems {
		if strings.Contains(p, "lacks a justification") && strings.Contains(p, "wallclockok") {
			sawBare = true
		}
		if strings.Contains(p, `unknown suppression key "nosuchkey"`) {
			sawUnknown = true
		}
	}
	if !sawBare {
		t.Errorf("missing bare-suppression problem in %v", problems)
	}
	if !sawUnknown {
		t.Errorf("missing unknown-key problem in %v", problems)
	}
	for _, s := range sups {
		if s.Key == "stepflow" && s.Reason != "root of the synthetic hot path" {
			t.Errorf("stepflow reason = %q", s.Reason)
		}
	}
}

// TestAuditRepoClean runs the audit over the real module — the in-process
// equivalent of `mdmvet -audit` — and requires every suppression justified.
func TestAuditRepoClean(t *testing.T) {
	root := moduleRoot(t)
	known := analyzers.KnownSuppressKeys(analyzers.All())
	sups, problems, err := analyzers.AuditDir(root, known)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Errorf("audit: %s", p)
	}
	if len(sups) < 40 {
		t.Errorf("found only %d suppressions; the repo carries far more — is the walk broken?", len(sups))
	}
}
