// Command mdmvet runs the mdmvet static-analysis suite (internal/analyzers)
// over Go packages, in the style of a go/analysis multichecker:
//
//	go run ./cmd/mdmvet ./...
//	go run ./cmd/mdmvet -list
//	go run ./cmd/mdmvet -run fixedformat,mpitags ./internal/...
//	go run ./cmd/mdmvet -json ./...              # machine-readable findings
//	go run ./cmd/mdmvet -sarif -o out.sarif ./...
//	go run ./cmd/mdmvet -audit                   # suppression-comment hygiene
//	go run ./cmd/mdmvet -stepflow ./...          # dump the hot-path fact set
//
// Before the analyzers run, a callgraph pass over every loaded package
// computes the "stepflow" fact — transitive reachability from the
// //mdm:stepflow-annotated hot-path roots — which gates the determinism
// analyzers (maporder, wallclock, hotalloc, shardmerge).
//
// Exit status is 0 when the suite is clean, 1 when it reports diagnostics
// (or -audit finds malformed suppressions), and 2 when packages fail to load
// or type-check. Findings can be silenced for a reviewed line with a
// "//mdm:<key> -- justification" comment; see the package documentation of
// internal/analyzers. The justification is mandatory: -audit lists every
// suppression in the tree and fails on bare ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mdm/internal/analyzers"
	"mdm/internal/analyzers/load"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mdmvet", flag.ExitOnError)
	list := fs.Bool("list", false, "list available analyzers and exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	dir := fs.String("C", ".", "directory to resolve package patterns in")
	jsonOut := fs.Bool("json", false, "emit findings as JSON instead of text")
	sarifOut := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0 instead of text")
	outPath := fs.String("o", "", "write the -json/-sarif report to this file (default stdout)")
	github := fs.Bool("github", false, "also print GitHub workflow-command annotations for findings")
	audit := fs.Bool("audit", false, "list every //mdm:* suppression in the tree and fail on missing justifications")
	stepflow := fs.Bool("stepflow", false, "print the stepflow fact set (hot-path functions) and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: mdmvet [flags] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := filepath.Abs(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdmvet: %v\n", err)
		return 2
	}

	if *audit {
		return runAudit(root, suite)
	}

	if *only != "" {
		suite = selectAnalyzers(suite, *only)
		if suite == nil {
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := load.NewLoader(root, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdmvet: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(root, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdmvet: %v\n", err)
		return 2
	}

	facts := analyzers.BuildFacts(pkgs)
	if *stepflow {
		for _, name := range facts.StepFlowNames() {
			fmt.Println(name)
		}
		return 0
	}

	var findings []Finding
	for _, pkg := range pkgs {
		for _, d := range analyzers.RunPackageFacts(pkg, suite, facts) {
			findings = append(findings, newFinding(root, d))
		}
	}

	out := os.Stdout
	if *outPath != "" {
		//mdm:rawiook -- findings report: re-runnable output, not durable run state
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdmvet: %v\n", err)
			return 2
		}
		defer f.Close()
		out = f
	}
	switch {
	case *jsonOut:
		if err := emitJSON(out, findings); err != nil {
			fmt.Fprintf(os.Stderr, "mdmvet: %v\n", err)
			return 2
		}
	case *sarifOut:
		if err := emitSARIF(out, suite, findings); err != nil {
			fmt.Fprintf(os.Stderr, "mdmvet: %v\n", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintf(out, "%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Column, f.Message, f.Analyzer)
		}
	}
	if *github {
		emitGitHub(os.Stdout, findings)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// runAudit implements -audit: the suppression-hygiene listing and gate.
func runAudit(root string, suite []*analyzers.Analyzer) int {
	sups, problems, err := analyzers.AuditDir(root, analyzers.KnownSuppressKeys(suite))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdmvet: %v\n", err)
		return 2
	}
	for _, s := range sups {
		fmt.Printf("%s:%d: //mdm:%s -- %s\n", s.Pos.Filename, s.Pos.Line, s.Key, s.Reason)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "\nmdmvet -audit: %d problem(s):\n", len(problems))
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "  %s\n", p)
		}
		return 1
	}
	fmt.Fprintf(os.Stderr, "mdmvet -audit: %d suppression(s), all justified\n", len(sups))
	return 0
}

func selectAnalyzers(suite []*analyzers.Analyzer, names string) []*analyzers.Analyzer {
	byName := make(map[string]*analyzers.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*analyzers.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "mdmvet: unknown analyzer %q\n", name)
			return nil
		}
		out = append(out, a)
	}
	return out
}
