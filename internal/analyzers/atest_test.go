package analyzers_test

// A minimal analysistest-style harness for the mdmvet analyzers: fixture
// files under internal/analyzers/testdata/<name>/ are type-checked against
// the real module and the produced diagnostics are matched against
// `// want "regexp"` comments, exactly in the style of
// golang.org/x/tools/go/analysis/analysistest.

import (
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mdm/internal/analyzers"
	"mdm/internal/analyzers/load"
)

// moduleRoot returns the repository root, located relative to this source
// file.
func moduleRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("fixture harness: no caller info")
	}
	return filepath.Clean(filepath.Join(filepath.Dir(file), "..", ".."))
}

var (
	loaderOnce sync.Once
	loader     *load.Loader
	loaderErr  error
)

// fixtureLoader returns a process-wide loader for the module, so the `go list
// -export` walk happens once per test binary.
func fixtureLoader(t *testing.T) *load.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = load.NewLoader(moduleRoot(t))
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return loader
}

// fixtureDir returns the testdata directory of the named fixture.
func fixtureDir(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(moduleRoot(t), "internal", "analyzers", "testdata", name)
}

// fixtureFiles returns the sorted .go files of the named fixture.
func fixtureFiles(t *testing.T, name string) []string {
	t.Helper()
	dir := fixtureDir(t, name)
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture harness: no fixture files in %s (%v)", dir, err)
	}
	sort.Strings(files)
	return files
}

// runFixture type-checks the fixture directory testdata/<name> as a package with
// the given import path, applies the analyzer, and matches diagnostics
// against the fixture's want comments. Stepflow facts are computed over the
// fixture package itself, so //mdm:stepflow-rooted fixtures exercise the
// fact-dependent analyzers.
func runFixture(t *testing.T, a *analyzers.Analyzer, name, importPath string) {
	t.Helper()
	files := fixtureFiles(t, name)
	pkg, err := fixtureLoader(t).Check(importPath, fixtureDir(t, name), files)
	if err != nil {
		t.Fatalf("fixture harness: fixture %s does not type-check: %v", name, err)
	}
	facts := analyzers.BuildFacts([]*load.Package{pkg})
	diags := analyzers.RunPackageFacts(pkg, []*analyzers.Analyzer{a}, facts)

	wants := collectWants(t, files)
	for _, d := range diags {
		key := posKey{filepath.Base(d.Pos.Filename), d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w.re)
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// collectWants extracts `// want "re" ["re" ...]` expectations per line.
func collectWants(t *testing.T, files []string) map[posKey][]*want {
	t.Helper()
	out := make(map[posKey][]*want)
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Base(path)
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			rest := strings.TrimSpace(m[1])
			for rest != "" {
				quote := rest[0]
				if quote != '"' && quote != '`' {
					t.Fatalf("%s:%d: malformed want clause %q", base, i+1, rest)
				}
				end := 1
				for end < len(rest) && (rest[end] != quote || (quote == '"' && rest[end-1] == '\\')) {
					end++
				}
				if end >= len(rest) {
					t.Fatalf("%s:%d: unterminated want string", base, i+1)
				}
				quoted := rest[:end+1]
				rest = strings.TrimSpace(rest[end+1:])
				pattern, err := strconv.Unquote(quoted)
				if err != nil {
					t.Fatalf("%s:%d: bad want string %s: %v", base, i+1, quoted, err)
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", base, i+1, pattern, err)
				}
				key := posKey{base, i + 1}
				out[key] = append(out[key], &want{re: re})
			}
		}
	}
	return out
}
