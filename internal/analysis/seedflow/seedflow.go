// Package seedflow audits every RNG construction in the tree. The
// reproducibility discipline (one base seed, SHA-256-derived per-task
// streams via harness.DeriveSeed) only holds if no code path mints a
// random source from somewhere else, so seed arguments to rand.New,
// rand.NewSource, and the math/rand/v2 constructors must be runtime
// values that flow from the derivation helpers — never compile-time
// constants (which silently alias streams across tasks) and never the
// wall clock (which destroys replay).
//
// The check is intraprocedural and conservative: it rejects the two
// patterns that are provably wrong (constant seeds, wall-clock seeds) and
// accepts runtime values, whose provenance the harness layer owns. The
// audited escape is //synclint:seedok -- <reason>.
package seedflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"hclocksync/internal/analysis"
)

// Analyzer is the package-level seedflow instance.
var Analyzer = &analysis.Analyzer{
	Name: "seedflow",
	Doc:  "RNG constructions must be seeded from harness-derived runtime values, not literals or the wall clock",
	Run:  run,
}

// seedArgs maps RNG constructors to the indices of their seed arguments.
var seedArgs = map[string]map[string][]int{
	"math/rand": {
		"NewSource": {0},
		// rand.New takes a Source; when that source is an inline
		// NewSource call the inner call is checked directly, and a
		// named source was checked at its own construction.
	},
	"math/rand/v2": {
		"NewPCG":     {0, 1},
		"NewChaCha8": {0},
	},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.FuncOf(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			byName, ok := seedArgs[fn.Pkg().Path()]
			if !ok {
				return true
			}
			idxs, ok := byName[fn.Name()]
			if !ok {
				return true
			}
			for _, i := range idxs {
				if i < len(call.Args) {
					checkSeed(pass, fn, call.Args[i])
				}
			}
			return true
		})
	}
	return nil
}

func checkSeed(pass *analysis.Pass, fn *types.Func, arg ast.Expr) {
	if pass.Allows(arg.Pos(), analysis.DirSeedok) {
		return
	}
	if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
		pass.Reportf(arg.Pos(), "%s.%s seeded with constant %s: constant seeds alias RNG streams across tasks; derive the seed through harness.DeriveSeed (or audit with //synclint:seedok -- <reason>)", fn.Pkg().Name(), fn.Name(), tv.Value)
		return
	}
	if wallPos, found := wallClockIn(pass, arg); found {
		pass.Reportf(wallPos, "%s.%s seeded from the wall clock: wall-clock seeds make runs unreplayable; derive the seed through harness.DeriveSeed (or audit with //synclint:seedok -- <reason>)", fn.Pkg().Name(), fn.Name())
	}
}

// wallClockIn reports whether expr contains a call that bottoms out in the
// host clock (time.Now or a Unix* conversion of a time.Time).
func wallClockIn(pass *analysis.Pass, expr ast.Expr) (pos token.Pos, found bool) {
	pos = expr.Pos()
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := analysis.FuncOf(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return true
		}
		switch fn.Name() {
		case "Now", "Since", "Until", "Unix", "UnixMilli", "UnixMicro", "UnixNano", "Nanosecond":
			pos, found = call.Pos(), true
		}
		return !found
	})
	return pos, found
}
