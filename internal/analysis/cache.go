package analysis

import (
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The incremental cache keys each package's diagnostics by an FNV-1a hash
// chain over everything that can change them: the package's own file
// contents (test files included — the suppression scanner reads them), the
// contents of every intra-module package in its transitive import closure,
// and the analyzer-suite version. A package whose key is unchanged is a
// pure cache hit: the warm path parses import clauses and hashes bytes but
// never type-checks, which is where almost all of a cold run's time goes.
// Editing one file changes the content hash of exactly one directory, and
// therefore the keys of exactly that package and its reverse-dependency
// closure — nothing else re-analyzes.
//
// External (stdlib) imports need no separate versioning: the toolchain is
// pinned by go.mod, and the import clauses that select stdlib packages are
// part of the hashed file bytes. The cache directory is relocatable —
// persisted diagnostics store module-relative paths and are resolved
// against the module root on load — so CI can restore it into a different
// checkout path.

// cacheSchemaVersion invalidates every entry when the persisted format or
// the analyzers' semantics change. Bump it when analyzer logic changes in
// a way the source hash chain cannot see.
const cacheSchemaVersion = "bbvet-cache-v1"

// A Cache memoizes per-package diagnostics across bbvet runs.
type Cache struct {
	dir     string
	loader  *Loader
	version string

	contentHashes map[string]uint64   // pkg dir -> hash of its file contents
	deps          map[string][]string // pkg dir -> direct intra-module dep dirs
	closures      map[string][]string // pkg dir -> sorted transitive dep dirs

	// Hits and Misses count Get outcomes, for tests and benchmarks.
	Hits, Misses int
}

// NewCache opens (creating if needed) the cache rooted at dir for the
// loader's module and the given analyzer suite.
func NewCache(dir string, loader *Loader, analyzers []*Analyzer) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	sort.Strings(names)
	return &Cache{
		dir:           dir,
		loader:        loader,
		version:       cacheSchemaVersion + ":" + strings.Join(names, ","),
		contentHashes: map[string]uint64{},
		deps:          map[string][]string{},
		closures:      map[string][]string{},
	}, nil
}

// Key computes the cache key of the package in dir (absolute path).
func (c *Cache) Key(dir string) (string, error) {
	self, err := c.contentHash(dir)
	if err != nil {
		return "", err
	}
	closure, err := c.closure(dir)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%016x\x00", c.version, c.relDir(dir), self)
	for _, dep := range closure {
		dh, err := c.contentHash(dep)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%016x\x00", c.relDir(dep), dh)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// Get returns the cached diagnostics for key. Missing or unreadable
// entries are misses; filenames come back absolute, resolved against the
// module root.
func (c *Cache) Get(key string) ([]Diagnostic, bool) {
	data, err := os.ReadFile(c.entryPath(key))
	if err != nil {
		c.Misses++
		return nil, false
	}
	var diags []Diagnostic
	if err := json.Unmarshal(data, &diags); err != nil {
		c.Misses++
		return nil, false
	}
	for i := range diags {
		diags[i].Pos.Filename = c.absPath(diags[i].Pos.Filename)
		for fi := range diags[i].Fixes {
			for ei := range diags[i].Fixes[fi].Edits {
				e := &diags[i].Fixes[fi].Edits[ei]
				e.File = c.absPath(e.File)
			}
		}
	}
	c.Hits++
	return diags, true
}

// Put persists the diagnostics under key, with all paths rewritten
// relative to the module root so the cache survives checkout moves. The
// write is atomic (temp + rename): concurrent bbvet runs sharing a cache
// directory never observe torn entries.
func (c *Cache) Put(key string, diags []Diagnostic) error {
	stored := make([]Diagnostic, len(diags))
	copy(stored, diags)
	for i := range stored {
		stored[i].Pos.Filename = c.relPath(stored[i].Pos.Filename)
		if len(stored[i].Fixes) > 0 {
			fixes := make([]SuggestedFix, len(stored[i].Fixes))
			copy(fixes, stored[i].Fixes)
			for fi := range fixes {
				edits := make([]TextEdit, len(fixes[fi].Edits))
				copy(edits, fixes[fi].Edits)
				for ei := range edits {
					edits[ei].File = c.relPath(edits[ei].File)
				}
				fixes[fi].Edits = edits
			}
			stored[i].Fixes = fixes
		}
	}
	data, err := json.Marshal(stored)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, ".put-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, c.entryPath(key))
}

func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}

func (c *Cache) relDir(dir string) string {
	return filepath.ToSlash(c.relPath(dir))
}

func (c *Cache) relPath(path string) string {
	if rel, err := filepath.Rel(c.loader.ModDir, path); err == nil && !filepath.IsAbs(rel) && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return path
}

func (c *Cache) absPath(path string) string {
	if filepath.IsAbs(path) {
		return path
	}
	return filepath.Join(c.loader.ModDir, filepath.FromSlash(path))
}

// contentHash hashes the names and bytes of every .go file in dir,
// _test.go files included.
func (c *Cache) contentHash(dir string) (uint64, error) {
	if h, ok := c.contentHashes[dir]; ok {
		return h, nil
	}
	names, err := goSourceFiles(dir)
	if err != nil {
		return 0, err
	}
	testNames, err := goTestFiles(dir)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	for _, name := range append(names, testNames...) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(data))
		h.Write(data)
	}
	sum := h.Sum64()
	c.contentHashes[dir] = sum
	return sum, nil
}

// directDeps parses dir's files (ImportsOnly — no type-checking) and
// returns the directories of its direct intra-module imports. Test files
// participate: an external foo_test package legally imports other module
// packages whose declarations feed the test-aware analyzers.
func (c *Cache) directDeps(dir string) ([]string, error) {
	if d, ok := c.deps[dir]; ok {
		return d, nil
	}
	names, err := goSourceFiles(dir)
	if err != nil {
		return nil, err
	}
	testNames, err := goTestFiles(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	var deps []string
	for _, name := range append(names, testNames...) {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path != c.loader.ModPath && !strings.HasPrefix(path, c.loader.ModPath+"/") {
				continue
			}
			depDir := c.loader.dirOf(path)
			if depDir == dir || seen[depDir] {
				continue
			}
			seen[depDir] = true
			deps = append(deps, depDir)
		}
	}
	sort.Strings(deps)
	c.deps[dir] = deps
	return deps, nil
}

// closure returns the sorted transitive intra-module dependency
// directories of dir (dir itself excluded). Cycles introduced by test-file
// imports are tolerated: the walk visits each directory once.
func (c *Cache) closure(dir string) ([]string, error) {
	if cl, ok := c.closures[dir]; ok {
		return cl, nil
	}
	visited := map[string]bool{dir: true}
	var out []string
	var walk func(string) error
	walk = func(d string) error {
		deps, err := c.directDeps(d)
		if err != nil {
			return err
		}
		for _, dep := range deps {
			if visited[dep] {
				continue
			}
			visited[dep] = true
			out = append(out, dep)
			if err := walk(dep); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(dir); err != nil {
		return nil, err
	}
	sort.Strings(out)
	c.closures[dir] = out
	return out, nil
}
