// Package cachekey enforces cache-key hygiene on the config structs
// that flow into harness.CacheKey. The content-addressed result cache
// keys on the JSON encoding of a task's config, so a field the encoder
// does not see is a field two *different* experiments can share a cached
// result through — the silent-corruption dual of a snapshot field that
// never enters the codec.
//
// For every struct type that reaches CacheKey's config argument (via a
// harness.Task literal's Config element or a direct CacheKey call), every
// field — of it and of the struct types its fields name — must enter the
// key with its value: exported, not tagged json:"-", and not omitempty
// (which drops the zero value, so "field absent" and "field zero" become
// the same cache entry). There is no escape hatch: a knob results cannot
// depend on does not belong in a task's config.
//
// What the analyzer cannot prove: key hygiene for configs passed as
// pre-formed interface values whose concrete type never appears at a call
// site.
package cachekey

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"

	"hclocksync/internal/analysis"
)

// harnessPkg is the import path owning Task and CacheKey; a variable so
// the analysistest fixture, type-checked under its own path, can stand
// in for the real package.
var harnessPkg = "hclocksync/internal/harness"

var Analyzer = &analysis.Analyzer{
	Name:       "cachekey",
	Doc:        "config structs reaching harness.CacheKey must have every field exported, JSON-visible and not omitempty",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	structs := analysis.BuildStructIndex(pass.Prog.Pkgs)

	// Collect the root config types: every concrete struct type that
	// appears as a harness.Task Config element or as CacheKey's config
	// argument anywhere in the program.
	roots := map[string]bool{}
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					collectTaskLit(pkg, n, roots)
				case *ast.CallExpr:
					collectCacheKeyCall(pkg, n, roots)
				}
				return true
			})
		}
	}

	checked := map[string]bool{}
	for key := range roots { //synclint:ordered -- diagnostics are position-sorted by the framework afterwards
		if sd, ok := structs[key]; ok {
			check(pass, structs, sd, checked)
		}
	}
	return nil
}

// collectTaskLit records the static type of the Config element of a
// harness.Task composite literal.
func collectTaskLit(pkg *analysis.Package, lit *ast.CompositeLit, roots map[string]bool) {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Name() != "Task" || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != harnessPkg {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); !ok || id.Name != "Config" {
			continue
		}
		if ref, ok := analysis.NamedStructRef(pkg, kv.Value); ok {
			roots[ref.String()] = true
		}
	}
}

// collectCacheKeyCall records the static type of the config argument of
// a direct harness.CacheKey call. Interface-typed arguments are skipped:
// the concrete type was recorded where the value was built.
func collectCacheKeyCall(pkg *analysis.Package, call *ast.CallExpr, roots map[string]bool) {
	if !analysis.IsPkgFunc(pkg.Info, call, harnessPkg, "CacheKey") {
		return
	}
	const configArg = 4
	if len(call.Args) <= configArg {
		return
	}
	arg := call.Args[configArg]
	if tv, ok := pkg.Info.Types[arg]; ok {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
			return
		}
	}
	if ref, ok := analysis.NamedStructRef(pkg, arg); ok {
		roots[ref.String()] = true
	}
}

// check audits one config struct and recurses into its struct-typed
// fields (they enter the key too).
func check(pass *analysis.ProgramPass, structs analysis.StructIndex, sd *analysis.StructDecl, checked map[string]bool) {
	if checked[sd.Ref().String()] {
		return
	}
	checked[sd.Ref().String()] = true
	for _, fld := range sd.Fields {
		ref := analysis.FieldRef{Pkg: sd.Pkg.PkgPath, Type: sd.Name, Field: fld.Name}
		jsonTag := reflect.StructTag(fld.Tag).Get("json")
		_, opts, _ := strings.Cut(jsonTag, ",")
		switch {
		case jsonTag == "-":
			pass.Reportf(sd.Pkg, fld.Pos(), "cache-key field %s is tagged json:\"-\" and never enters the key: drop the tag, or move the field out of the task's config", ref)
		case !ast.IsExported(fld.Name):
			// The JSON encoder skips unexported fields the same way.
			pass.Reportf(sd.Pkg, fld.Pos(), "cache-key field %s is unexported and never enters the key: export it, or move it out of the task's config", ref)
		case hasOpt(opts, "omitempty"):
			pass.Reportf(sd.Pkg, fld.Pos(), "cache-key field %s is omitempty: the zero value drops out of the key, so a zero config and an absent one share cached results; remove omitempty", ref)
		default:
			if sub, ok := analysis.NamedStructRef(sd.Pkg, fld.Type); ok {
				if subDecl, ok := structs[sub.String()]; ok {
					check(pass, structs, subDecl, checked)
				}
			}
		}
	}
}

// hasOpt reports whether the comma-separated json tag options contain
// opt.
func hasOpt(opts, opt string) bool {
	for opts != "" {
		var o string
		o, opts, _ = strings.Cut(opts, ",")
		if o == opt {
			return true
		}
	}
	return false
}
