package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mdm/internal/analyzers"
)

func sampleFindings() []Finding {
	return []Finding{
		{Analyzer: "maporder", File: "internal/core/machine.go", Line: 42, Column: 7,
			Message: "map iteration in hot-path function Forces writes total, declared outside the loop"},
		{Analyzer: "wallclock", File: "internal/md/md.go", Line: 9, Column: 2,
			Message: "time.Now in hot-path function Step"},
	}
}

// TestSARIFRoundTrip emits SARIF and re-reads it as untyped JSON, checking
// the shape code-scanning requires: schema/version header, a driver with
// rules, and results whose ruleId resolves against the rules and whose
// locations carry uri + startLine.
func TestSARIFRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := emitSARIF(&buf, analyzers.All(), sampleFindings()); err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if got := log["$schema"]; got != sarifSchemaURI {
		t.Errorf("$schema = %v, want %v", got, sarifSchemaURI)
	}
	if got := log["version"]; got != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", got)
	}
	runs, ok := log["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("runs = %v, want exactly one run", log["runs"])
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "mdmvet" {
		t.Errorf("driver name = %v, want mdmvet", driver["name"])
	}
	ruleIDs := map[string]bool{}
	for _, r := range driver["rules"].([]any) {
		rule := r.(map[string]any)
		id := rule["id"].(string)
		ruleIDs[id] = true
		if rule["shortDescription"].(map[string]any)["text"].(string) == "" {
			t.Errorf("rule %s has an empty shortDescription", id)
		}
	}
	for _, a := range analyzers.All() {
		if !ruleIDs[a.Name] {
			t.Errorf("analyzer %s missing from SARIF rules", a.Name)
		}
	}
	results, ok := run["results"].([]any)
	if !ok || len(results) != len(sampleFindings()) {
		t.Fatalf("got %d results, want %d", len(results), len(sampleFindings()))
	}
	for i, r := range results {
		res := r.(map[string]any)
		if id := res["ruleId"].(string); !ruleIDs[id] {
			t.Errorf("result %d ruleId %q not among the declared rules", i, id)
		}
		if res["level"] != "error" {
			t.Errorf("result %d level = %v, want error", i, res["level"])
		}
		loc := res["locations"].([]any)[0].(map[string]any)["physicalLocation"].(map[string]any)
		uri := loc["artifactLocation"].(map[string]any)["uri"].(string)
		if uri == "" || strings.Contains(uri, "\\") {
			t.Errorf("result %d uri = %q, want a slash-separated relative path", i, uri)
		}
		if line := loc["region"].(map[string]any)["startLine"].(float64); line < 1 {
			t.Errorf("result %d startLine = %v, want >= 1", i, line)
		}
	}
}

// TestEmitGitHub checks the workflow-command shape GitHub parses.
func TestEmitGitHub(t *testing.T) {
	var buf bytes.Buffer
	emitGitHub(&buf, sampleFindings()[:1])
	got := buf.String()
	want := "::error file=internal/core/machine.go,line=42,col=7,title=mdmvet/maporder::"
	if !strings.HasPrefix(got, want) {
		t.Errorf("annotation = %q, want prefix %q", got, want)
	}
	if strings.Count(got, "\n") != 1 {
		t.Errorf("annotation must be a single line, got %q", got)
	}
}

// TestEmitJSONRoundTrip checks the flat JSON list re-parses into Findings.
func TestEmitJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := emitJSON(&buf, sampleFindings()); err != nil {
		t.Fatal(err)
	}
	var back []Finding
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != sampleFindings()[0] || back[1] != sampleFindings()[1] {
		t.Errorf("round-trip mismatch: %v", back)
	}
}
