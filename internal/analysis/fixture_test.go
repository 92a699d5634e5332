package analysis

import (
	"path/filepath"
	"regexp"
	"testing"
)

// wantRx extracts the quoted or backquoted expectation patterns from a
// `// want "rx"` comment.
var wantRx = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// expectation is one // want pattern with its match state.
type expectation struct {
	line int
	rx   *regexp.Regexp
	hit  bool
}

// runFixture loads testdata/analysis/<name>, runs the analyzer, and checks
// the diagnostics against the fixture's // want comments: every diagnostic
// must match a want pattern on its line and every want pattern must be hit
// exactly where it is written. Suppressed findings (bbvet:allow negative
// cases) simply produce no diagnostic, so an unexpected survivor fails.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(loader.ModDir, "testdata", "analysis", name)
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, pkg)
	for _, d := range Run(pkg, []*Analyzer{a}) {
		matched := false
		for _, w := range wants[d.Pos.Filename] {
			if w.line == d.Pos.Line && w.rx.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, w.line, w.rx)
			}
		}
	}
}

// collectWants parses the fixture's // want comments into expectations
// keyed by filename.
func collectWants(t *testing.T, pkg *Package) map[string][]*expectation {
	t.Helper()
	wants := map[string][]*expectation{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := indexWant(text)
				if i < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				groups := wantRx.FindAllStringSubmatch(text[i:], -1)
				if len(groups) == 0 {
					t.Fatalf("%s:%d: want comment without a quoted pattern", pos.Filename, pos.Line)
				}
				for _, g := range groups {
					pat := g[1]
					if pat == "" {
						pat = g[2]
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants[pos.Filename] = append(wants[pos.Filename], &expectation{line: pos.Line, rx: rx})
				}
			}
		}
	}
	return wants
}

// indexWant returns the offset of the expectation payload in a comment, or
// -1 if the comment is not a want comment.
func indexWant(comment string) int {
	const marker = "// want "
	for i := 0; i+len(marker) <= len(comment); i++ {
		if comment[i:i+len(marker)] == marker {
			return i + len(marker)
		}
	}
	return -1
}

func TestFloatCmpFixture(t *testing.T)    { runFixture(t, FloatCmp, "floatcmp") }
func TestMapRangeFixture(t *testing.T)    { runFixture(t, MapRange, "maprange") }
func TestHotAllocFixture(t *testing.T)    { runFixture(t, HotAlloc, "hotalloc") }
func TestStatusCheckFixture(t *testing.T) { runFixture(t, StatusCheck, "statuscheck") }
func TestCSRAliasFixture(t *testing.T)    { runFixture(t, CSRAlias, "csralias") }
func TestCtxFlowFixture(t *testing.T)     { runFixture(t, CtxFlow, "ctxflow") }

// TestFixturesAreExercised guards against a silently skipped fixture: every
// fixture package must produce at least one positive and contain at least
// one suppression directive, so both directions of each analyzer stay
// covered.
func TestFixturesAreExercised(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range All() {
		pkg, err := loader.LoadDir(filepath.Join(loader.ModDir, "testdata", "analysis", a.Name))
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if n := len(Run(pkg, []*Analyzer{a})); n == 0 {
			t.Errorf("%s fixture produced no diagnostics", a.Name)
		}
		if len(collectAllows(pkg).byFileLine) == 0 {
			t.Errorf("%s fixture has no bbvet:allow negative case", a.Name)
		}
	}
}
