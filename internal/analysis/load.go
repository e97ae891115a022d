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

// listedPkg is the subset of `go list -export -deps -json` output the
// loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string // compiled export data, in the build cache
	DepOnly    bool   // a dependency only, not matched by the patterns
}

// Load enumerates the packages matching patterns (relative to root, e.g.
// "./...") with `go list`, then parses and type-checks each one. Test
// files are excluded — the analyzers guard shipped behavior, and tests
// legitimately use literal seeds and wall clocks.
//
// `go list -export -deps` compiles every package the patterns reach (the
// build cache makes that cheap after the first build) and names each
// one's export data. Each matched package is type-checked from source;
// its imports, stdlib and module-internal alike, are read from their
// export data rather than re-checked from source. A package that does
// not compile fails the `go list` step, whose error names file:line:col.
func Load(root string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(root, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, lp := range listed {
		exports[lp.ImportPath] = lp.Export
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	var pkgs []*Package
	for _, lp := range listed {
		if lp.DepOnly || len(lp.GoFiles) == 0 {
			continue
		}
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
		pkgs = append(pkgs, &Package{
			PkgPath: lp.ImportPath,
			Dir:     lp.Dir,
			Fset:    fset,
			Files:   files,
			Types:   pkg,
			Info:    info,
		})
	}
	return pkgs, nil
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

// goList shells out to `go list -export -deps -json` in root. The go
// command is the one piece of toolchain the loader depends on; it is
// always present where the code it analyzes builds.
func goList(root string, patterns []string) ([]listedPkg, error) {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Dir,Name,GoFiles,Export,DepOnly"}, patterns...)
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
