package analysis

import (
	"os"
	"path/filepath"
	"strings"
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

// TestLoadTestOnlyPackage pins the _test.go-only package path: no
// type-checking happens, but the files parse into TestFiles and every
// Package field is non-nil so analyzers need no special casing.
func TestLoadTestOnlyPackage(t *testing.T) {
	loader := writeModule(t, map[string]string{
		"only/x_test.go": "package only_test\n\nfunc helper() int { return 1 }\n",
	})
	pkg, err := loader.load("example.com/m/only")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Name != "only" {
		t.Errorf("package name = %q, want %q (the _test suffix stripped)", pkg.Name, "only")
	}
	if len(pkg.Files) != 0 || len(pkg.TestFiles) != 1 {
		t.Errorf("got %d production / %d test files, want 0 / 1", len(pkg.Files), len(pkg.TestFiles))
	}
	if pkg.Types == nil || pkg.Info == nil {
		t.Error("test-only package has nil Types or Info")
	}
	// The cached entry must be returned on the second load.
	again, err := loader.load("example.com/m/only")
	if err != nil || again != pkg {
		t.Errorf("second load returned a different package (err %v)", err)
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
