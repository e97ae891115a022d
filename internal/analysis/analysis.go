// Package analysis is a small, dependency-free analysis framework modeled
// on golang.org/x/tools/go/analysis. The repository's correctness story
// leans on two invariants that ordinary tests only catch after the fact —
// byte-identical outputs for a given seed regardless of job count, and the
// allocation-free sim/MPI hot path — so cmd/synclint enforces them at the
// source level with the analyzers under internal/analysis/... instead.
//
// The framework is stdlib-only (go/ast + go/types, with imports read
// from the compiler's export data that `go list -export` names): the
// build environment is hermetic and cannot fetch x/tools, and the subset
// needed here — load, type-check, walk, report — is small.
// The API mirrors x/tools so the analyzers could migrate to a vet-tool
// build with mechanical changes only.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one per-package analysis: a name, documentation,
// and the Run function.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (synclint prints
	// "file:line:col: name: message").
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one type-checked package.
	Run func(*Pass) error
}

// Pass hands an analyzer one type-checked package and a sink for
// diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dirs indexes the //synclint: directives of Files; analyzers consult
	// it for escape hatches (see directive.go for the grammar).
	Dirs *DirIndex

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allows reports whether a directive named name covers the line of pos:
// either trailing on the same line or alone on the line immediately above.
func (p *Pass) Allows(pos token.Pos, name string) bool {
	pp := p.Fset.Position(pos)
	return p.Dirs.Allows(pp.Filename, pp.Line, name)
}

// Run applies each analyzer to the single package pkg and returns the
// diagnostics sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunAll([]*Package{pkg}, analyzers)
}

// RunAll applies each analyzer to every package of the loaded set.
// Diagnostics come back sorted by position regardless of package order,
// so output is deterministic under any load schedule.
func RunAll(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		dirs := IndexDirectives(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Dirs:      dirs,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders diags by (file, line, column, analyzer,
// message) — the stable order synclint prints in every output mode.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}

// CountDirectives tallies every well-formed //synclint: directive across
// pkgs by name. The selfcheck asserts these counts exactly so a new
// escape hatch shows up as a reviewed diff, not silent growth.
func CountDirectives(pkgs []*Package) map[string]int {
	counts := map[string]int{}
	for _, pkg := range pkgs {
		IndexDirectives(pkg.Fset, pkg.Files).Count(counts)
	}
	return counts
}

// FuncOf resolves a call expression to the static *types.Func it invokes
// (package-level function or method), or nil for dynamic calls, builtins,
// and type conversions.
func FuncOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fn].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fn.Sel].(*types.Func)
		return f
	}
	return nil
}
