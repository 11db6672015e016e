// Machine-consumable output for mdmvet: a flat JSON finding list, SARIF
// 2.1.0 for code-scanning uploads, and GitHub workflow-command annotations.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"mdm/internal/analyzers"
)

// A Finding is one diagnostic with a module-relative path — the unit of the
// JSON, SARIF and annotation output.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"` // slash-separated, relative to the module root
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// newFinding relativizes a diagnostic against the module root.
func newFinding(root string, d analyzers.Diagnostic) Finding {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return Finding{
		Analyzer: d.Analyzer,
		File:     file,
		Line:     d.Pos.Line,
		Column:   d.Pos.Column,
		Message:  d.Message,
	}
}

func emitJSON(w io.Writer, findings []Finding) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// emitGitHub prints one workflow-command annotation per finding; GitHub
// renders them inline on the PR diff.
func emitGitHub(w io.Writer, findings []Finding) {
	for _, f := range findings {
		// Workflow commands terminate at newlines; findings are single-line.
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=mdmvet/%s::%s\n",
			f.File, f.Line, f.Column, f.Analyzer, f.Message)
	}
}

//
// SARIF 2.1.0 (the subset code-scanning consumes).
//

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

const sarifSchemaURI = "https://json.schemastore.org/sarif-2.1.0.json"

// buildSARIF assembles the log: one run, one rule per analyzer that appears
// in the suite, one result per finding.
func buildSARIF(suite []*analyzers.Analyzer, findings []Finding) sarifLog {
	rules := make([]sarifRule, 0, len(suite))
	for _, a := range suite {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: f.File},
					Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Column},
				},
			}},
		})
	}
	return sarifLog{
		Schema:  sarifSchemaURI,
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "mdmvet", InformationURI: "https://example.invalid/mdm", Rules: rules}},
			Results: results,
		}},
	}
}

func emitSARIF(w io.Writer, suite []*analyzers.Analyzer, findings []Finding) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildSARIF(suite, findings))
}
