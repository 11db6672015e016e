package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// Counts no trial can be measured with are refused before any output, with
// the usage exit status.
func TestRefusesEmptyRuns(t *testing.T) {
	for _, args := range [][]string{
		{"-cells", "0"},
		{"-cells", "-1"},
		{"-trials", "0"},
		{"-cells", "2", "-trials", "-3"},
		{"-no-such-flag"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 || !strings.Contains(errb.String(), "mdmaccuracy") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no output and a usage line", args, code, out.String(), errb.String())
		}
	}
}

// One trial prints a default-α row and an α = 14 row of finite, positive
// errors (3 cells a side: at 2, α = 14 leaves no pair inside r_cut).
func TestOneTrialRowsParse(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-cells", "3", "-trials", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	var alphas []float64
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 7 || f[0] != "1" {
			continue
		}
		for _, s := range f[1:] {
			if v, err := strconv.ParseFloat(s, 64); err != nil || !(v > 0) {
				t.Errorf("row %q: field %q is not a positive number", line, s)
			}
		}
		a, _ := strconv.ParseFloat(f[1], 64)
		alphas = append(alphas, a)
	}
	if len(alphas) != 2 || alphas[1] != 14 {
		t.Errorf("rows at α %v, want the default and 14:\n%s", alphas, out.String())
	}
}
