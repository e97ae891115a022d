package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
}

// Load enumerates the packages matching patterns (relative to root, e.g.
// "./...") with `go list`, then parses and type-checks each one. Test
// files are excluded — the analyzers guard shipped behavior, and tests
// legitimately use literal seeds and wall clocks.
//
// Type checking resolves imports with the stdlib source importer, so the
// loader works in a hermetic build environment with no module proxy: every
// import (stdlib and module-internal alike) is re-checked from source.
func Load(root string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(root, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := loadOne(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// loadOne parses and type-checks one listed package under the given
// FileSet and importer.
func loadOne(fset *token.FileSet, imp types.Importer, lp listedPkg) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	pkg, info, err := Check(fset, imp, lp.ImportPath, files)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", lp.ImportPath, err)
	}
	return &Package{
		PkgPath: lp.ImportPath,
		Dir:     lp.Dir,
		Fset:    fset,
		Files:   files,
		Types:   pkg,
		Info:    info,
	}, nil
}

// LoadParallel is Load with the parse+typecheck work fanned out over
// workers goroutines. Loading dominates synclint wall-clock (every
// import is re-checked from source), so this is where parallelism pays.
//
// Neither token.FileSet nor the source importer is safe for concurrent
// use, so each worker owns a private FileSet and importer and takes a
// round-robin share of the package list. Results come back in `go list`
// order — identical to Load — and workers <= 1 just delegates to Load.
func LoadParallel(root string, workers int, patterns ...string) ([]*Package, error) {
	if workers <= 1 {
		return Load(root, patterns...)
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(root, patterns)
	if err != nil {
		return nil, err
	}
	var work []listedPkg
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 {
			continue
		}
		work = append(work, lp)
	}
	if workers > len(work) {
		workers = len(work)
	}
	results := make([]*Package, len(work))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fset := token.NewFileSet()
			imp := importer.ForCompiler(fset, "source", nil)
			for i := w; i < len(work); i += workers {
				pkg, err := loadOne(fset, imp, work[i])
				if err != nil {
					errs[w] = err
					return
				}
				results[i] = pkg
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Check type-checks one package's parsed files under the given importer,
// returning the package and a fully populated types.Info.
func Check(fset *token.FileSet, imp types.Importer, pkgPath string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// goList shells out to `go list -json` in root. The go command is the one
// piece of toolchain the loader depends on; it is always present where the
// code it analyzes builds.
func goList(root string, patterns []string) ([]listedPkg, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,Name,GoFiles"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listedPkg
	for {
		var lp listedPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// ModuleRoot walks up from dir to the nearest go.mod, for tests that need
// to load the repository regardless of the package they run in.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
