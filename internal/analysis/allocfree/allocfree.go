// Package allocfree proves, at the source level, that functions annotated
//
//	//synclint:allocfree
//
// contain no construct that heap-allocates in steady state. The sim
// kernel's event loop and the MPI messaging layer earned their
// zero-allocation profile in PR 3; ReportAllocs benchmarks catch a
// regression only after it ships, while this analyzer rejects the commit
// that introduces it.
//
// Rejected constructs inside an annotated function:
//
//   - make / new / append (append growth is a heap operation);
//   - address-taken or reference-typed (slice/map) composite literals;
//   - closures (func literals), go statements, defer statements;
//   - map writes (inserts can allocate buckets);
//   - interface boxing: passing, assigning, or returning a non-constant,
//     non-pointer-shaped concrete value where an interface is expected;
//   - string concatenation and string<->[]byte conversions;
//   - calls into the known-allocating fmt/errors/strings/strconv/sort
//     packages;
//   - calls to unannotated functions of the same package (allocation
//     freedom must propagate through the hot call graph, not stop at the
//     annotated frame).
//
// Pool warm-ups, amortized growth, and cold panic paths are real and
// audited: mark the single allocating line with
// //synclint:alloc -- <reason>. Arguments to panic are exempt from the
// boxing rule — a panicking frame is off the steady-state path by
// definition.
package allocfree

import (
	"go/ast"
	"go/token"
	"go/types"

	"hclocksync/internal/analysis"
)

// Analyzer is the package-level allocfree instance.
var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Doc:  "functions annotated //synclint:allocfree must not contain heap-allocating constructs",
	Run:  run,
}

// allocPkgs are stdlib packages whose exported functions allocate on
// essentially every call.
var allocPkgs = map[string]bool{
	"fmt": true, "errors": true, "strings": true, "strconv": true, "sort": true,
}

func run(pass *analysis.Pass) error {
	// Annotated function objects of this package, for the propagation rule.
	annotated := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if analysis.FuncDirective(fn, analysis.DirAllocfree) {
				annotated[pass.TypesInfo.Defs[fn.Name]] = true
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if analysis.FuncDirective(fn, analysis.DirAllocfree) {
				check(pass, fn, annotated)
			}
		}
	}
	return nil
}

type checker struct {
	pass      *analysis.Pass
	fname     string
	annotated map[types.Object]bool
	// results is the enclosing function's result tuple, for the
	// return-boxing check.
	results *types.Tuple
	// panicArgs holds argument expressions of panic calls, exempt from
	// the boxing rule.
	panicArgs map[ast.Expr]bool
}

func check(pass *analysis.Pass, fn *ast.FuncDecl, annotated map[types.Object]bool) {
	c := &checker{pass: pass, fname: fn.Name.Name, annotated: annotated, panicArgs: map[ast.Expr]bool{}}
	if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil {
		c.results = obj.Type().(*types.Signature).Results()
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && c.isBuiltin(call, "panic") {
			for _, a := range call.Args {
				c.panicArgs[a] = true
			}
		}
		return true
	})
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.report(n.Pos(), "closure allocates (and its captures escape)")
			return false // don't double-report the closure's own body
		case *ast.GoStmt:
			c.report(n.Pos(), "go statement allocates a goroutine")
		case *ast.DeferStmt:
			c.report(n.Pos(), "defer may allocate its frame record")
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.CompositeLit:
			c.checkCompositeLit(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.report(n.Pos(), "address-taken composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			c.checkConcat(n)
		case *ast.AssignStmt:
			c.checkAssign(n)
		case *ast.ValueSpec:
			c.checkValueSpec(n)
		case *ast.ReturnStmt:
			c.checkReturn(n)
		}
		return true
	})
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.pass.Allows(pos, analysis.DirAlloc) {
		return
	}
	args = append(args, c.fname)
	c.pass.Reportf(pos, format+" in allocfree function %s (audit cold paths with //synclint:alloc -- <reason>)", args...)
}

func (c *checker) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := c.pass.TypesInfo.Uses[id]
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin
}

func (c *checker) checkCall(call *ast.CallExpr) {
	switch {
	case c.isBuiltin(call, "make"):
		c.report(call.Pos(), "make allocates")
		return
	case c.isBuiltin(call, "new"):
		c.report(call.Pos(), "new allocates")
		return
	case c.isBuiltin(call, "append"):
		c.report(call.Pos(), "append may grow its backing array on the heap")
		return
	}
	// Type conversions: string <-> []byte/[]rune copy their payload.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		to := tv.Type.Underlying()
		if len(call.Args) == 1 {
			from := c.pass.TypesInfo.TypeOf(call.Args[0])
			if from != nil && isStringBytesConv(to, from.Underlying()) {
				c.report(call.Pos(), "string/[]byte conversion copies its payload")
			}
		}
		return
	}
	fn := analysis.FuncOf(c.pass.TypesInfo, call)
	if fn != nil && fn.Pkg() != nil {
		if allocPkgs[fn.Pkg().Path()] {
			c.report(call.Pos(), "call to %s.%s allocates", fn.Pkg().Name(), fn.Name())
			return
		}
		// Propagation: a same-package callee must itself be annotated.
		if fn.Pkg() == c.pass.Pkg && !c.annotated[fn] {
			c.report(call.Pos(), "call to %s, which is not annotated //synclint:allocfree: allocation freedom must propagate through the hot call graph", fn.Name())
		}
	}
	// Boxing at the call boundary.
	if sig, ok := c.pass.TypesInfo.TypeOf(call.Fun).(*types.Signature); ok {
		c.checkCallBoxing(call, sig)
	}
}

func (c *checker) checkCallBoxing(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // passing a slice through, no boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		c.checkBox(arg, pt)
	}
}

// checkBox reports if expr (of concrete, non-pointer-shaped type) is
// converted to an interface destination type.
func (c *checker) checkBox(expr ast.Expr, dst types.Type) {
	if dst == nil || c.panicArgs[expr] {
		return
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if tv.Value != nil {
		return // constants box into static runtime data
	}
	t := tv.Type
	if _, ok := t.Underlying().(*types.Interface); ok {
		return // interface-to-interface, no new allocation
	}
	if types.Identical(t, types.Typ[types.UntypedNil]) || isPointerShaped(t) {
		return
	}
	c.report(expr.Pos(), "converting %s to interface %s boxes it on the heap", t, dst)
}

func (c *checker) checkCompositeLit(lit *ast.CompositeLit) {
	tv, ok := c.pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		c.report(lit.Pos(), "slice literal allocates its backing array")
	case *types.Map:
		c.report(lit.Pos(), "map literal allocates")
	}
	// Struct and array literals are values; the address-taken case is
	// reported at the & operator.
}

func (c *checker) checkConcat(b *ast.BinaryExpr) {
	if b.Op != token.ADD {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[b]
	if !ok || tv.Type == nil || tv.Value != nil {
		return // constant folding happens at compile time
	}
	if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
		c.report(b.Pos(), "string concatenation allocates")
	}
}

func (c *checker) checkAssign(as *ast.AssignStmt) {
	// Map writes can allocate buckets.
	for _, lhs := range as.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t := c.pass.TypesInfo.TypeOf(ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					c.report(lhs.Pos(), "map assignment may allocate")
				}
			}
		}
	}
	// Boxing through assignment (1:1 assignments only; multi-value
	// assignments from calls keep their concrete types).
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			if lt := c.pass.TypesInfo.TypeOf(as.Lhs[i]); lt != nil {
				c.checkBox(as.Rhs[i], lt)
			}
		}
	}
}

// checkValueSpec catches boxing through var declarations
// (`var x any = v`).
func (c *checker) checkValueSpec(spec *ast.ValueSpec) {
	if len(spec.Values) != len(spec.Names) {
		return
	}
	for i, name := range spec.Names {
		if lt := c.pass.TypesInfo.TypeOf(name); lt != nil {
			c.checkBox(spec.Values[i], lt)
		}
	}
}

func (c *checker) checkReturn(ret *ast.ReturnStmt) {
	if c.results == nil || len(ret.Results) != c.results.Len() {
		return // bare return, or multi-value call passthrough
	}
	for i, expr := range ret.Results {
		c.checkBox(expr, c.results.At(i).Type())
	}
}

func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

func isStringBytesConv(to, from types.Type) bool {
	return (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
