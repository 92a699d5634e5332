package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// A Package is one parsed and type-checked package ready for analysis.
// Test files (_test.go) are not loaded at all: the invariants bbvet
// enforces are about production behavior, and tests legitimately use
// exact comparisons and discard results.
type Package struct {
	Path  string // import path ("repro/internal/linalg")
	Dir   string // absolute directory
	Name  string // package name from the package clauses
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages of one module using only the
// standard library: intra-module imports are resolved against the module
// directory tree and everything else goes through the source go/importer
// (which type-checks the standard library from GOROOT source). Loaded
// packages are cached, so a whole-repo run type-checks each package once.
type Loader struct {
	ModPath string // module path from go.mod
	ModDir  string // absolute module root
	Fset    *token.FileSet

	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import cycle guard
}

// Every Loader of a process shares one FileSet and one source importer, so
// the standard library is type-checked from source once per process rather
// than once per Loader. The source importer is not safe for concurrent
// use; stdMu serializes it.
var (
	sharedFset = token.NewFileSet()
	stdMu      sync.Mutex
	stdSource  = importer.ForCompiler(sharedFset, "source", nil)
)

// NewLoader builds a loader for the module rooted at or above dir.
func NewLoader(dir string) (*Loader, error) {
	modDir, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	return &Loader{
		ModPath: modPath,
		ModDir:  modDir,
		Fset:    sharedFset,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module directory and module path.
func findModule(dir string) (string, string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found at or above %s", dir)
		}
		dir = parent
	}
}

// importPath maps a directory inside the module to its import path.
func (l *Loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModDir)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// dirOf maps an intra-module import path back to its directory.
func (l *Loader) dirOf(path string) string {
	if path == l.ModPath {
		return l.ModDir
	}
	rel := strings.TrimPrefix(path, l.ModPath+"/")
	return filepath.Join(l.ModDir, filepath.FromSlash(rel))
}

// LoadDir parses and type-checks the package in dir.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPath(dir)
	if err != nil {
		return nil, err
	}
	return l.load(path)
}

// load returns the cached package for an intra-module import path, parsing
// and type-checking it on first use.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if path != l.ModPath && !strings.HasPrefix(path, l.ModPath+"/") {
		return nil, fmt.Errorf("analysis: package %s is outside module %s", path, l.ModPath)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirOf(path)
	names, err := goSourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go source files in %s", dir)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset}
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		} else if f.Name.Name != pkg.Name {
			return nil, fmt.Errorf("analysis: %s contains packages %s and %s", dir, pkg.Name, f.Name.Name)
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}

// loaderImporter routes intra-module imports to the loader and everything
// else to the stdlib source importer.
type loaderImporter Loader

func (im *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(im)
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdSource.Import(path)
}

// goSourceFiles lists the non-test .go files of dir, sorted.
func goSourceFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ExpandPatterns resolves bbvet's package patterns relative to dir into
// package directories. Supported forms are Go-style: a plain directory
// ("./internal/linalg"), or a tree pattern ending in "/..." that expands to
// every package directory beneath it, skipping testdata, hidden, and
// underscore-prefixed directories exactly as the go tool does.
func ExpandPatterns(dir string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root := filepath.Join(dir, filepath.FromSlash(rest))
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				files, err := goSourceFiles(path)
				if err != nil {
					return err
				}
				if len(files) > 0 {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(filepath.Join(dir, filepath.FromSlash(pat)))
	}
	sort.Strings(dirs)
	return dirs, nil
}
