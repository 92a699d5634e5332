// Package analysis is a small, stdlib-only static-analysis framework plus
// the repository's analyzer suite. It exists because three properties of
// this codebase are load-bearing and easy to regress silently:
//
//   - numeric discipline: the SRDF/SOCP pipeline is only sound under
//     conservative floating-point comparison (tolerance helpers, never raw
//     ==/!= except against exact-zero sentinels);
//   - determinism: sweep and experiment results must not depend on Go's
//     randomized map iteration order;
//   - zero-alloc hot paths: the per-iteration interior-point
//     refactorization must not allocate.
//
// The framework deliberately mirrors the shape of golang.org/x/tools'
// go/analysis (Analyzer, Pass, Diagnostic) but is built only on go/parser,
// go/types and the source go/importer, so the module gains no dependencies.
// The cmd/bbvet driver runs every registered analyzer over the repository
// and CI requires a clean run. The package is a checker only: it reports
// findings and never rewrites source. Only non-test files are loaded, so
// findings and suppressions both live in production code.
//
// Findings can be suppressed per line with a directive comment, either on
// the flagged line or on the line directly above it; a directive annotating
// a statement wrapped across several lines covers the statement's full
// extent (composite statements contribute only their header lines):
//
//	x := a.Val // bbvet:allow csralias transient view, released below
//	//bbvet:allow floatcmp sort tie-break needs exact ordering
//	if p.BudgetTotal != q.BudgetTotal {
//
// A reason is mandatory: a bare allow without justification is itself
// reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in reports and in bbvet:allow directives.
	Name string
	// Doc is a short description shown by `bbvet -help`.
	Doc string
	// Run inspects a package and reports findings through the pass.
	Run func(*Pass)
}

// A Diagnostic is one finding, attributed to the analyzer that produced it.
// Its message names the remedy.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmp,
		MapRange,
		HotAlloc,
		StatusCheck,
		CSRAlias,
		CtxFlow,
	}
}

// Names returns the analyzer names of the suite, sorted.
func Names() []string {
	names := make([]string, 0, len(All()))
	for _, a := range All() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// ByName resolves a comma-separated analyzer list against the suite. An
// unknown name yields an error that lists the valid names and, when a
// close misspelling exists, suggests it.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("%s", unknownAnalyzerText(n))
		}
		out = append(out, a)
	}
	return out, nil
}

// unknownAnalyzerText renders the shared unknown-analyzer-name message:
// the rejected name, the sorted valid names, and a did-you-mean hint when
// one is close enough to be a plausible typo.
func unknownAnalyzerText(n string) string {
	msg := fmt.Sprintf("unknown analyzer %q (valid: %s)", n, strings.Join(Names(), ", "))
	if near := nearestName(n); near != "" {
		msg += fmt.Sprintf("; did you mean %q?", near)
	}
	return msg
}

// nearestName returns the suite name with the smallest edit distance to n,
// or "" when even the best candidate differs in more than half its
// letters (a threshold that keeps garbage input from producing a random
// suggestion). Ties break toward the alphabetically first name, so the
// hint is deterministic.
func nearestName(n string) string {
	best, bestDist := "", -1
	for _, cand := range Names() {
		d := editDistance(n, cand)
		if bestDist < 0 || d < bestDist {
			best, bestDist = cand, d
		}
	}
	if best == "" || bestDist > len(best)/2 {
		return ""
	}
	return best
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			sub := prev[j-1]
			if a[i-1] != b[j-1] {
				sub++
			}
			cur[j] = min(sub, min(prev[j]+1, cur[j-1]+1))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Run applies the analyzers to the package and returns the surviving
// diagnostics: suppressed findings are dropped, malformed suppression
// directives are themselves reported, and the result is sorted by position
// so output order never depends on analyzer internals.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
		a.Run(pass)
	}
	sup := collectAllows(pkg)
	diags = append(diags, sup.malformed...)
	kept := diags[:0]
	for _, d := range diags {
		if !sup.allows(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// allowPrefix opens every suppression directive.
const allowPrefix = "bbvet:allow"

// HotpathDirective marks a function whose body must not allocate; the
// hotalloc analyzer checks every function so annotated.
const HotpathDirective = "bbvet:hotpath"

type suppressions struct {
	// byFileLine maps filename -> line -> set of allowed analyzer names.
	byFileLine map[string]map[int]map[string]bool
	// spans extends a directive over the full line range of the statement
	// it annotates, so an allow above (or trailing) a multi-line statement
	// suppresses diagnostics anchored on any of its wrapped lines.
	spans     map[string][]allowSpan
	malformed []Diagnostic
}

// allowSpan is one analyzer's suppression over an inclusive line range.
type allowSpan struct {
	from, to int
	analyzer string
}

// collectAllows scans the comments of the package's files for allow
// directives.
func collectAllows(pkg *Package) *suppressions {
	s := &suppressions{
		byFileLine: map[string]map[int]map[string]bool{},
		spans:      map[string][]allowSpan{},
	}
	for _, f := range pkg.Files {
		var extents []lineExtent // built lazily, only when a directive needs it
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := directiveText(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "bbvet",
						Message:  "malformed bbvet:allow directive: want \"bbvet:allow <analyzer> <reason>\"",
					})
					continue
				}
				name := fields[0]
				known := false
				for _, a := range All() {
					if a.Name == name {
						known = true
						break
					}
				}
				if !known {
					s.malformed = append(s.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "bbvet",
						Message:  "bbvet:allow names " + unknownAnalyzerText(name),
					})
					continue
				}
				lines := s.byFileLine[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					s.byFileLine[pos.Filename] = lines
				}
				if lines[pos.Line] == nil {
					lines[pos.Line] = map[string]bool{}
				}
				lines[pos.Line][name] = true
				if extents == nil {
					extents = stmtExtents(pkg.Fset, f)
				}
				if from, to, ok := directiveExtent(extents, pos.Line); ok {
					s.spans[pos.Filename] = append(s.spans[pos.Filename],
						allowSpan{from: from, to: to, analyzer: name})
				}
			}
		}
	}
	return s
}

// lineExtent is the line range of one simple statement (or of a composite
// statement's header), used to give allow directives statement extent.
type lineExtent struct {
	from, to int
}

// stmtExtents collects the line extents of the file's statements. Simple
// statements span their full source range; composite statements (if, for,
// range, switch, select, case bodies, blocks) contribute only their header
// lines, so a directive never silently suppresses a whole block. Top-level
// non-function declarations (a wrapped var/const initializer) count too.
func stmtExtents(fset *token.FileSet, f *ast.File) []lineExtent {
	var out []lineExtent
	add := func(from, to token.Pos) {
		out = append(out, lineExtent{
			from: fset.Position(from).Line,
			to:   fset.Position(to).Line,
		})
	}
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				add(spec.Pos(), spec.End())
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			add(n.Pos(), n.Body.Lbrace)
		case *ast.ForStmt:
			add(n.Pos(), n.Body.Lbrace)
		case *ast.RangeStmt:
			add(n.Pos(), n.Body.Lbrace)
		case *ast.SwitchStmt:
			add(n.Pos(), n.Body.Lbrace)
		case *ast.TypeSwitchStmt:
			add(n.Pos(), n.Body.Lbrace)
		case *ast.SelectStmt:
			add(n.Pos(), n.Body.Lbrace)
		case *ast.CaseClause:
			add(n.Pos(), n.Colon)
		case *ast.CommClause:
			add(n.Pos(), n.Colon)
		case *ast.BlockStmt, *ast.LabeledStmt:
			// Containers: their inner statements carry their own extents.
		case ast.Stmt:
			add(n.Pos(), n.End())
		}
		return true
	})
	return out
}

// directiveExtent resolves the statement extent a directive on line L
// annotates: the narrowest statement starting on L+1 (directive-above
// form) or, failing that, the narrowest statement whose lines contain L
// (trailing form on a wrapped statement). Reported extents always include
// the legacy {L, L+1} lines via the byFileLine fallback, so this only ever
// widens suppression.
func directiveExtent(extents []lineExtent, line int) (from, to int, ok bool) {
	best := -1
	for i, e := range extents {
		if e.from == line+1 || (e.from <= line && line <= e.to) {
			if best < 0 || e.to-e.from < extents[best].to-extents[best].from {
				best = i
			}
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return extents[best].from, extents[best].to, true
}

// directiveText extracts the payload after bbvet:allow from a comment, in
// either the strict directive form //bbvet:allow or the prose form
// "// bbvet:allow" usable at the end of a code line.
func directiveText(comment string) (string, bool) {
	text := strings.TrimPrefix(comment, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, allowPrefix) {
		return "", false
	}
	return strings.TrimSpace(strings.TrimPrefix(text, allowPrefix)), true
}

// allows reports whether a directive suppresses the diagnostic: one on the
// diagnostic's line or the line directly above it, or one whose annotated
// statement's full extent covers the diagnostic's line (the multi-line
// wrapped-statement case).
func (s *suppressions) allows(d Diagnostic) bool {
	if lines := s.byFileLine[d.Pos.Filename]; lines != nil {
		if lines[d.Pos.Line][d.Analyzer] || lines[d.Pos.Line-1][d.Analyzer] {
			return true
		}
	}
	for _, sp := range s.spans[d.Pos.Filename] {
		if sp.analyzer == d.Analyzer && sp.from <= d.Pos.Line && d.Pos.Line <= sp.to {
			return true
		}
	}
	return false
}

// funcHotpath reports whether the function declaration's doc comment
// carries the hotpath directive. (The directive name is spelled via the
// constant here: a doc-comment line that *starts* with the directive text
// would annotate its own function.)
func funcHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == HotpathDirective || strings.HasPrefix(text, HotpathDirective+" ") {
			return true
		}
	}
	return false
}
