package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// writeModule lays out a throwaway module under a temp dir and returns a
// loader rooted in it. files maps module-relative paths to contents.
func writeModule(t *testing.T, files map[string]string) *Loader {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module example.com/m\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	return loader
}

// TestExpandPatternsWalksModule pins the "./..." walk over this module
// without loading anything: it must reach every package directory (well
// over 15 of them, this one included) and skip underscore-prefixed trees
// such as the separate benchmark module.
func TestExpandPatternsWalksModule(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns(loader.ModDir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 15 {
		t.Fatalf("pattern expansion found only %d package dirs; the walk is broken", len(dirs))
	}
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range dirs {
		found = found || d == self
		rel, err := filepath.Rel(loader.ModDir, d)
		if err != nil || strings.HasPrefix(rel, "_") || strings.Contains(filepath.ToSlash(rel), "/_") {
			t.Errorf("pattern expansion descended into %s", d)
		}
	}
	if !found {
		t.Errorf("pattern expansion missed this package's own dir %s in %v", self, dirs)
	}
}

// TestLoadTestOnlyPackage pins that test files are never loaded: a
// directory holding only _test.go files is no package to the loader, and
// ExpandPatterns skips it.
func TestLoadTestOnlyPackage(t *testing.T) {
	loader := writeModule(t, map[string]string{
		"a/a.go":         "package a\n",
		"only/x_test.go": "package only_test\n\nfunc helper() int { return 1 }\n",
	})
	if _, err := loader.load("example.com/m/only"); err == nil ||
		!strings.Contains(err.Error(), "no Go source files") {
		t.Errorf("test-only directory loaded: err %v, want a no-Go-source-files error", err)
	}
	dirs, err := ExpandPatterns(loader.ModDir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if filepath.Base(d) == "only" {
			t.Errorf("ExpandPatterns kept the test-only directory %s", d)
		}
	}
	if len(dirs) != 1 || filepath.Base(dirs[0]) != "a" {
		t.Errorf("ExpandPatterns = %v, want only the a package", dirs)
	}
}

// TestLoadIgnoresBrokenTestFile: a _test.go file that does not even parse
// cannot stop the package from loading or analyzing cleanly, because the
// loader never reads test files.
func TestLoadIgnoresBrokenTestFile(t *testing.T) {
	loader := writeModule(t, map[string]string{
		"a/a.go":      "package a\n\nfunc A(x, y float64) bool { return x < y }\n",
		"a/a_test.go": "package a\n\nfunc broken( {\n",
	})
	pkg, err := loader.load("example.com/m/a")
	if err != nil {
		t.Fatalf("package with a broken test file did not load: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Errorf("got %d files, want the one production file", len(pkg.Files))
	}
	if diags := Run(pkg, All()); len(diags) != 0 {
		t.Errorf("clean package reported findings: %v", diags)
	}
}

// TestLoadCycleThroughTestFiles: a dependency cycle that exists only
// through _test.go files is legal (the go tool allows it for external test
// packages, and the loader never type-checks test files), while the same
// cycle through production files is an error, not a hang.
func TestLoadCycleThroughTestFiles(t *testing.T) {
	loader := writeModule(t, map[string]string{
		"a/a.go":      "package a\n\nfunc A() int { return 1 }\n",
		"a/a_test.go": "package a_test\n\nimport \"example.com/m/b\"\n\nvar _ = b.B\n",
		"b/b.go":      "package b\n\nimport \"example.com/m/a\"\n\nfunc B() int { return a.A() }\n",
	})
	if _, err := loader.load("example.com/m/a"); err != nil {
		t.Errorf("test-file cycle rejected: %v", err)
	}
	if _, err := loader.load("example.com/m/b"); err != nil {
		t.Errorf("loading the importer side failed: %v", err)
	}
}

func TestLoadProductionCycleIsError(t *testing.T) {
	loader := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport \"example.com/m/b\"\n\nfunc A() int { return b.B() }\n",
		"b/b.go": "package b\n\nimport \"example.com/m/a\"\n\nfunc B() int { return a.A() }\n",
	})
	_, err := loader.load("example.com/m/a")
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("production import cycle not reported: %v", err)
	}
}

// TestLoadImportOutsideModule pins the error path: the loader only
// resolves intra-module paths, and says so instead of guessing.
func TestLoadImportOutsideModule(t *testing.T) {
	loader := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nfunc A() int { return 1 }\n",
	})
	if _, err := loader.load("example.com/m/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := loader.load("example.com/other/pkg"); err == nil ||
		!strings.Contains(err.Error(), "outside module") {
		t.Errorf("out-of-module import not rejected: %v", err)
	}
}

// TestLoadMissingPackage: a directory with no Go files at all is an error.
func TestLoadMissingPackage(t *testing.T) {
	loader := writeModule(t, map[string]string{
		"a/a.go": "package a\n",
	})
	if _, err := loader.load("example.com/m/empty"); err == nil {
		t.Error("loading a nonexistent package succeeded")
	}
}

// TestLoadersShareStdlibConcurrently type-checks two modules through two
// Loaders at once. Every Loader shares the stdlib source importer and the
// FileSet, so this is the test the race detector needs for that sharing.
func TestLoadersShareStdlibConcurrently(t *testing.T) {
	src := "package a\n\nimport (\n\t\"container/heap\"\n\t\"strconv\"\n)\n\n" +
		"var _ heap.Interface\n\nfunc F(n int) string { return strconv.Itoa(n) }\n"
	loaders := []*Loader{
		writeModule(t, map[string]string{"a/a.go": src}),
		writeModule(t, map[string]string{"a/a.go": src}),
	}
	var wg sync.WaitGroup
	for _, l := range loaders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := l.load("example.com/m/a"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
