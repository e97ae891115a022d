// Package nondeterm rejects the three stdlib-level sources of
// nondeterminism that can silently break the repository's byte-identity
// contract (same seed + config => same bytes, at any worker count):
//
//  1. wall-clock reads (time.Now, time.Since, time.Sleep, timers) —
//     virtual time comes from the sim kernel, never the host;
//  2. the global math/rand functions — they draw from a process-wide
//     source shared across concurrently running tasks, so results would
//     depend on scheduling;
//  3. range over a map — iteration order is randomized per run, so any
//     map range on a path that feeds results, manifests, or hashes is a
//     latent identity break.
//
// The checks apply only to output-affecting packages (the simulation
// substrate, the experiment layer, and the cmd/ tools that emit
// artifacts). Audited escapes: //synclint:wallclock for telemetry-only
// clock reads, //synclint:ordered for order-insensitive map ranges.
package nondeterm

import (
	"go/ast"
	"go/types"
	"strings"

	"hclocksync/internal/analysis"
)

// DefaultGuarded is the output-affecting package set: an entry ending in
// "/..." matches the subtree, anything else matches the exact import path.
var DefaultGuarded = []string{
	"hclocksync/internal/sim",
	"hclocksync/internal/mpi",
	"hclocksync/internal/clocksync",
	"hclocksync/internal/cluster",
	"hclocksync/internal/faults",
	"hclocksync/internal/experiments",
	"hclocksync/internal/harness",
	"hclocksync/internal/scale",
	"hclocksync/internal/checkpoint",
	"hclocksync/internal/fabric",
	"hclocksync/internal/stats",
	"hclocksync/internal/trace",
	"hclocksync/cmd/...",
}

// Note on the seed-flow side of the guard set: seedflow has no package
// guard at all — it checks RNG constructions in every loaded package —
// so fabric/stats/trace were already covered there and only this list
// had the gap (fabric grew after the list was frozen in the PR that
// introduced it).

// forbiddenTimeFuncs are the package-level time functions that read or
// depend on the host clock.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRandFuncs are the math/rand package-level functions that
// construct explicitly seeded sources rather than drawing from the global
// one (the constructions themselves are audited by the seedflow analyzer).
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

// Analyzer guards DefaultGuarded.
var Analyzer = NewAnalyzer(DefaultGuarded...)

// NewAnalyzer returns a nondeterm analyzer guarding the given package
// patterns (tests substitute their fixture path).
func NewAnalyzer(guarded ...string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "nondeterm",
		Doc:  "forbid wall-clock reads, global math/rand, and unordered map iteration in output-affecting packages",
		Run:  func(pass *analysis.Pass) error { return run(pass, guarded) },
	}
}

func guardedPkg(path string, guarded []string) bool {
	for _, g := range guarded {
		if sub, ok := strings.CutSuffix(g, "/..."); ok {
			if path == sub || strings.HasPrefix(path, sub+"/") {
				return true
			}
		} else if path == g {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass, guarded []string) error {
	if !guardedPkg(pass.Pkg.Path(), guarded) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.FuncOf(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Methods are fine: time.Time/Timer methods don't read the clock
	// anew, and *rand.Rand methods draw from an explicit source.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[fn.Name()] {
			if pass.Allows(call.Pos(), analysis.DirWallclock) {
				return
			}
			pass.Reportf(call.Pos(), "wall-clock call time.%s in output-affecting package %s: use the sim kernel's virtual time, or audit with //synclint:wallclock -- <reason> if this is telemetry that never reaches results or hashes", fn.Name(), pass.Pkg.Path())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "global %s.%s draws from the process-wide source, which is shared across concurrent tasks: construct a *rand.Rand from a harness-derived seed instead", fn.Pkg().Path(), fn.Name())
		}
	}
}

func checkRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.Allows(rng.Pos(), analysis.DirOrdered) {
		return
	}
	pass.Reportf(rng.Pos(), "range over map %s iterates in randomized order: sort the keys first, or audit with //synclint:ordered -- <reason> if order cannot reach results, manifests, or hashes", types.ExprString(rng.X))
}
