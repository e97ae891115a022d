package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hclocksync/internal/analysis"
)

// TestLoadReportsTypeErrors pins the loader's error path: a package that
// does not type-check makes Load fail with an error naming the offending
// file and line, never a partial package set.
func TestLoadReportsTypeErrors(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":     "module badmod\n\ngo 1.22\n",
		"bad/bad.go": "package bad\n\nfunc F() int {\n\treturn \"x\"\n}\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := analysis.Load(root, "./...")
	if err == nil {
		t.Fatalf("Load returned %d package(s) and no error for a package that does not type-check", len(pkgs))
	}
	if !strings.Contains(err.Error(), "bad.go:4:") {
		t.Errorf("Load error does not name bad.go:4: %v", err)
	}
}
