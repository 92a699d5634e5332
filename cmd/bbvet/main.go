// Command bbvet runs the repository's static-analysis suite — the
// numeric, determinism, and zero-alloc invariant checks in
// internal/analysis — over the given package patterns.
//
// Usage:
//
//	go run ./cmd/bbvet ./...
//	go run ./cmd/bbvet -analyzers floatcmp,maprange ./internal/core
//
// Patterns are Go-style: plain package directories or trees ending in
// "/...". With no patterns, ./... is assumed. Diagnostics print as
// file:line:col: analyzer: message; the exit status is 1 when any
// diagnostic is reported, 2 on usage or load errors, and 0 on a clean run.
//
// With -json, diagnostics are emitted instead as a JSON array of
// {file, line, col, analyzer, message} objects (an empty array on a clean
// run), for editors and tooling. In text mode, when running under GitHub
// Actions (GITHUB_ACTIONS=true), each diagnostic is additionally emitted as
// a ::error workflow command so findings surface as inline annotations on
// the pull request.
//
// bbvet is a checker only: it never rewrites source, and every run loads
// and analyzes the packages from scratch. Only non-test files are read.
//
// A finding can be suppressed by an adjacent directive comment with a
// mandatory reason, on the flagged line or the line above (for a wrapped
// statement, the directive covers the statement's full line extent):
//
//	//bbvet:allow <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list the available analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array instead of text lines")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bbvet [-analyzers a,b] [-list] [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		as := analysis.All()
		sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
		for _, a := range as {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := analysis.ByName(*names)
	if err != nil {
		fmt.Fprintf(stderr, "bbvet: %v\n", err)
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "bbvet: %v\n", err)
		return 2
	}
	diags, err := Check(cwd, fs.Args(), analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "bbvet: %v\n", err)
		return 2
	}
	diags = relativize(cwd, diags)
	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "bbvet: %v\n", err)
			return 2
		}
	} else {
		annotate := os.Getenv("GITHUB_ACTIONS") == "true"
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
			if annotate {
				fmt.Fprintln(stdout, ghaAnnotation(d))
			}
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// relativize rewrites diagnostic filenames relative to dir, for stable
// output across checkouts.
func relativize(dir string, diags []analysis.Diagnostic) []analysis.Diagnostic {
	for i := range diags {
		if rel, err := filepath.Rel(dir, diags[i].Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			diags[i].Pos.Filename = rel
		}
	}
	return diags
}

// jsonDiagnostic is the stable machine-readable form of one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON emits the diagnostics as a JSON array; a clean run is an empty
// array, never null, so consumers can range without a nil check.
func writeJSON(w io.Writer, diags []analysis.Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ghaAnnotation renders one diagnostic as a GitHub Actions workflow command
// that turns into an inline PR annotation.
func ghaAnnotation(d analysis.Diagnostic) string {
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=bbvet %s::%s",
		ghaEscapeProperty(d.Pos.Filename), d.Pos.Line, d.Pos.Column,
		ghaEscapeProperty(d.Analyzer), ghaEscapeData(d.Message))
}

// ghaEscapeData escapes a workflow-command message per the Actions runner
// rules: %, CR, and LF.
func ghaEscapeData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// ghaEscapeProperty escapes a workflow-command property value, which must
// additionally protect the property delimiters : and , .
func ghaEscapeProperty(s string) string {
	s = ghaEscapeData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}

// Check loads the packages matching the patterns (resolved relative to
// dir) and returns the combined diagnostics of the given analyzers, package
// by package in sorted directory order, each package's sorted by position.
func Check(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := analysis.ExpandPatterns(dir, patterns)
	if err != nil {
		return nil, err
	}
	var diags []analysis.Diagnostic
	for _, pkgDir := range dirs {
		pkg, err := loader.LoadDir(pkgDir)
		if err != nil {
			return nil, err
		}
		diags = append(diags, analysis.Run(pkg, analyzers)...)
	}
	return diags, nil
}
