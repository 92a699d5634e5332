package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func TestListAnalyzers(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("bbvet -list exited %d: %s", code, errOut.String())
	}
	// The listing is exactly the suite, sorted by name, with a one-line
	// description per row. Adding or removing an analyzer takes an edit
	// here too.
	want := []string{"csralias", "ctxflow", "floatcmp", "hotalloc", "maprange", "statuscheck"}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var names []string
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Errorf("-list row has no description: %q", line)
			continue
		}
		names = append(names, fields[0])
	}
	if !slices.Equal(names, want) {
		t.Errorf("-list names = %v, want exactly %v", names, want)
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-analyzers", "bogus", "."}, &out, &errOut); code != 2 {
		t.Fatalf("unknown analyzer exited %d, want 2", code)
	}
	if msg := errOut.String(); !strings.Contains(msg, "valid: ") {
		t.Errorf("stderr does not list the valid analyzers: %q", msg)
	}
	// A near-miss spelling earns a did-you-mean hint on stderr.
	errOut.Reset()
	if code := run([]string{"-analyzers", "hotaloc", "."}, &out, &errOut); code != 2 {
		t.Fatalf("misspelled analyzer exited %d, want 2", code)
	}
	if msg := errOut.String(); !strings.Contains(msg, `did you mean "hotalloc"?`) {
		t.Errorf("stderr has no suggestion for the near-miss: %q", msg)
	}
}

// TestOutputIsDeterministic runs the same scan twice through the full CLI
// path (text and JSON) and requires byte-identical output: packages are
// visited in sorted directory order and each package's diagnostics are
// sorted by position.
func TestOutputIsDeterministic(t *testing.T) {
	t.Setenv("GITHUB_ACTIONS", "")
	for _, mode := range [][]string{
		{"../../testdata/analysis/maprange", "../../testdata/analysis/csralias"},
		{"-json", "../../testdata/analysis/hotalloc", "../../testdata/analysis/csralias"},
	} {
		var first, second, errOut bytes.Buffer
		c1 := run(mode, &first, &errOut)
		c2 := run(mode, &second, &errOut)
		if c1 != c2 {
			t.Fatalf("%v: exit codes differ across runs: %d then %d", mode, c1, c2)
		}
		if first.String() != second.String() {
			t.Errorf("%v: output differs across identical runs:\n--- first\n%s--- second\n%s",
				mode, first.String(), second.String())
		}
		if first.Len() == 0 {
			t.Errorf("%v: fixture scan produced no output at all", mode)
		}
	}
}

// TestFixtureFindingsExitNonZero drives the real CLI path against a
// fixture package with known findings: exit status 1 and canonical
// file:line:col: analyzer: message lines.
func TestFixtureFindingsExitNonZero(t *testing.T) {
	t.Setenv("GITHUB_ACTIONS", "") // keep the output pure text lines
	var out, errOut bytes.Buffer
	code := run([]string{"../../testdata/analysis/floatcmp"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("bbvet on the floatcmp fixture exited %d, want 1 (stderr: %s)", code, errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, "floatcmp.go:") || !strings.Contains(text, ": floatcmp: ") {
		t.Errorf("diagnostics not in file:line:col: analyzer: message form:\n%s", text)
	}
	// The fixture has exactly three positives; its two bbvet:allow'd
	// comparisons must not leak into the output.
	if n := strings.Count(text, ": floatcmp: "); n != 3 {
		t.Errorf("got %d diagnostics, want 3 (suppression broken?):\n%s", n, text)
	}
}

// TestRepositoryExitsZero is the repository's self-run gate: every package
// of the module must load and the full analyzer suite must report nothing,
// so the CLI exits 0 over the whole module. Any new finding fails it until
// it is fixed or suppressed with a reasoned bbvet:allow.
func TestRepositoryExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"../../..."}, &out, &errOut); code != 0 {
		t.Fatalf("bbvet on the repository exited %d:\n%s%s", code, out.String(), errOut.String())
	}
}

// TestJSONOutput checks the machine-readable mode: a JSON array with one
// object per finding, fields populated, no text lines mixed in.
func TestJSONOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-json", "../../testdata/analysis/floatcmp"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("bbvet -json on the floatcmp fixture exited %d, want 1 (stderr: %s)", code, errOut.String())
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(diags) != 3 {
		t.Fatalf("got %d JSON diagnostics, want 3", len(diags))
	}
	for _, d := range diags {
		if d.File == "" || d.Line <= 0 || d.Col <= 0 || d.Analyzer != "floatcmp" || d.Message == "" {
			t.Errorf("incomplete JSON diagnostic: %+v", d)
		}
		if !strings.HasSuffix(d.File, "floatcmp.go") {
			t.Errorf("file %q does not point at the fixture", d.File)
		}
	}
}

// TestJSONCleanRunIsEmptyArray pins the clean-run contract: [] rather than
// null, so consumers can range over the result unconditionally.
func TestJSONCleanRunIsEmptyArray(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-json", "-analyzers", "csralias", "../../testdata/analysis/floatcmp"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("clean -json run exited %d: %s%s", code, out.String(), errOut.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Fatalf("clean run printed %q, want []", got)
	}
}

// TestGHAAnnotations checks that under GitHub Actions each text diagnostic
// is doubled by a ::error workflow command carrying file/line/col.
func TestGHAAnnotations(t *testing.T) {
	t.Setenv("GITHUB_ACTIONS", "true")
	var out, errOut bytes.Buffer
	code := run([]string{"../../testdata/analysis/floatcmp"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exited %d, want 1 (stderr: %s)", code, errOut.String())
	}
	text := out.String()
	if n := strings.Count(text, "::error file="); n != 3 {
		t.Fatalf("got %d ::error annotations, want 3:\n%s", n, text)
	}
	if !strings.Contains(text, ",line=") || !strings.Contains(text, ",col=") {
		t.Errorf("annotations missing line/col properties:\n%s", text)
	}
	if !strings.Contains(text, "title=bbvet floatcmp::") {
		t.Errorf("annotations missing the analyzer title:\n%s", text)
	}
}

// TestGHAEscaping pins the workflow-command escaping rules.
func TestGHAEscaping(t *testing.T) {
	if got := ghaEscapeData("50% of a\nline\r"); got != "50%25 of a%0Aline%0D" {
		t.Errorf("ghaEscapeData = %q", got)
	}
	if got := ghaEscapeProperty("a:b,c%d"); got != "a%3Ab%2Cc%25d" {
		t.Errorf("ghaEscapeProperty = %q", got)
	}
}
