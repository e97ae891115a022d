// Package mpierr is errcheck for the MPI layer's fallible operations. The
// timed receives report delivery failure through their final ok result;
// under fault injection a silently discarded result turns a lost message
// into a wrong number instead of a handled fault, so discarding one is
// rejected:
//
//   - calling a fallible operation as a bare statement (all results
//     dropped);
//   - assigning the final bool result to the blank identifier.
//
// Audited discards (e.g. a best-effort notification where losing the
// message is acceptable) carry //synclint:checked -- <reason>.
package mpierr

import (
	"go/ast"
	"go/types"

	"hclocksync/internal/analysis"
)

// mpiPkg is the package whose fallible operations are guarded.
const mpiPkg = "hclocksync/internal/mpi"

// fallible lists the receiver type and method names whose final bool
// result reports delivery success.
var fallible = map[string]map[string]bool{
	"Comm": {
		"RecvTimeout":    true,
		"RecvF64Timeout": true,
	},
	// Unexported transport internals: enforced inside the mpi package
	// itself, where a dropped ok would corrupt the public wrappers.
	"Proc": {
		"recvTimeout": true,
	},
}

// Analyzer guards hclocksync/internal/mpi callers.
var Analyzer = NewAnalyzer(mpiPkg)

// NewAnalyzer returns an mpierr analyzer bound to the given package path
// (tests substitute a fixture package).
func NewAnalyzer(pkgPath string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "mpierr",
		Doc:  "results of fallible mpi send/recv/timeout operations must not be silently discarded",
		Run:  func(pass *analysis.Pass) error { return run(pass, pkgPath) },
	}
}

func run(pass *analysis.Pass, pkgPath string) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name, is := fallibleCall(pass, call, pkgPath); is {
						if !pass.Allows(call.Pos(), analysis.DirChecked) {
							pass.Reportf(call.Pos(), "result of %s discarded: under fault injection this turns a lost message into silent corruption; handle the ok result or audit with //synclint:checked -- <reason>", name)
						}
					}
				}
			case *ast.AssignStmt:
				checkAssign(pass, n, pkgPath)
			}
			return true
		})
	}
	return nil
}

// checkAssign flags `data, _ := c.RecvTimeout(...)`-style blank discards
// of the final bool result.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt, pkgPath string) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, is := fallibleCall(pass, call, pkgPath)
	if !is || len(as.Lhs) == 0 {
		return
	}
	last, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident)
	if !ok || last.Name != "_" {
		return
	}
	if pass.Allows(as.Pos(), analysis.DirChecked) {
		return
	}
	pass.Reportf(last.Pos(), "ok result of %s assigned to _: under fault injection this turns a lost message into silent corruption; handle it or audit with //synclint:checked -- <reason>", name)
}

// fallibleCall reports whether call invokes a guarded method and returns
// its display name.
func fallibleCall(pass *analysis.Pass, call *ast.CallExpr, pkgPath string) (string, bool) {
	fn := analysis.FuncOf(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return "", false
	}
	methods, ok := fallible[named.Obj().Name()]
	if !ok || !methods[fn.Name()] {
		return "", false
	}
	return named.Obj().Name() + "." + fn.Name(), true
}
