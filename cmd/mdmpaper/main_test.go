package main

import (
	"bytes"
	"strings"
	"testing"
)

// The whole report: every section the paper's claims live in prints, and no
// row fails.
func TestPaperClaims(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 0 || errb.Len() != 0 {
		t.Errorf("exit %d, stderr %q; want exit 0 and no stderr", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, line := range lines {
		if strings.HasSuffix(line, " fail") {
			t.Errorf("failing row: %s", line)
		}
	}
	for _, s := range []string{"Table 1", "Table 4", "model", "Table 5", "§3.1", "§6.1", "§6.2", "§3.5.4", "§3.4.4", "§3.4–5", "§5", "Fig. 2", "Fig. 2a"} {
		found := false
		for _, line := range lines {
			found = found || strings.HasPrefix(line, s+" ")
		}
		if !found {
			t.Errorf("no %q row in:\n%s", s, out.String())
		}
	}
	t.Log("\n" + out.String())
}

// A row's verdict follows its tolerance; a deviation or info row has none and
// never fails the report.
func TestVerdicts(t *testing.T) {
	for _, c := range []struct {
		row     claim
		verdict string
		status  int
	}{
		{claim{section: "Table 4", quantity: "q", paper: 10, ours: 11.1, tol: rel(0.10)}, "fail", 1},
		{claim{section: "Table 4", quantity: "q", paper: 10, ours: 10.9, tol: rel(0.10)}, "pass", 0},
		{claim{section: "§3.4.4", quantity: "q", paper: none, ours: 0, tol: upTo(1e-4)}, "fail", 1},
		{claim{section: "Table 5", quantity: "q", paper: 10, ours: 1e9, doc: "section"}, "deviation (EXPERIMENTS.md: section)", 0},
		{claim{section: "model", quantity: "q", paper: none, ours: 1}, "info", 0},
	} {
		var out bytes.Buffer
		status := report(&out, []claim{c.row})
		if !strings.HasSuffix(strings.TrimSpace(out.String()), " "+c.verdict) || status != c.status {
			t.Errorf("%+v: status %d, output\n%s\nwant verdict %q, status %d", c.row, status, out.String(), c.verdict, c.status)
		}
	}
}

// The command takes no arguments: any is a usage error before any output.
func TestRejectsArguments(t *testing.T) {
	for _, args := range [][]string{{"-x"}, {"-quick"}, {"table4"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 || !strings.Contains(errb.String(), "mdmpaper") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no output and a usage line", args, code, out.String(), errb.String())
		}
	}
}
