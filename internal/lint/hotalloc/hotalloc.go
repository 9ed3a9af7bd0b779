// Package hotalloc guards the hot-path allocation-freedom contract:
// functions annotated //mclint:hotpath — the per-tick spines of
// cloudmc/internal/memctrl and internal/core (the kernel step among
// them) whose 0 allocs/op steady state the bench gate pins — and
// everything they reach through the module-wide static call graph
// must not allocate. The shared callgraph substrate supplies the
// cross-package closure; interface method calls and function-typed
// values are closure boundaries (the policy/trace/sink
// implementations behind them are governed by their own contracts).
//
// Flagged allocation sources:
//
//   - make and new;
//   - heap-bound composite literals: &T{...}, slice and map literals
//     (a plain struct value T{...} stays on the stack);
//   - possibly-growing append: any append whose destination is not
//     the slice it extends (x = append(x, ...) recycles x's backing
//     capacity and is the free-list idiom, so it is allowed — the
//     bench gate pins the steady state);
//   - map writes (a fresh key may trigger growth);
//   - string concatenation and fmt calls;
//   - value-to-interface boxing at call arguments and assignments
//     (non-pointer concrete values force a heap copy);
//   - function literals (closure allocation).
//
// panic(...) argument subtrees are exempt — death paths may allocate.
// A deliberate exception (a cold branch, a first-use amortized
// allocation, a free-list miss path) is suppressed on the offending
// line (or the line above) with //mclint:alloc-ok -- <justification>.
//
// The dynamic checks see only the common paths. TestSteadyStateAllocs
// (< 300 mallocs per 100k cycles on DS and MR) catches a request taken
// with new instead of the free list, or a fresh fill closure per
// primary miss. A fresh allocation on any of these hot paths passes
// `go test ./...`, and only this analyzer flags it:
//
//   - DMA block injection (core's tickIO);
//   - per-tenant accounting of a retired read (memctrl's Tick);
//   - page-policy closes (tryPendingClose);
//   - the mixed-mode option build that RL runs (buildOptions);
//   - a write-drain flip.
//
// Each runs rarely enough to stay under that bound, or not at all in
// the test's single-tenant, FR-FCFS, DMA-free systems.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"cloudmc/internal/lint/analysis"
	"cloudmc/internal/lint/callgraph"
)

// Analyzer is the hotalloc allocation-freedom check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "forbids allocation (make/new/heap composites/growing append/map writes/boxing/closures/" +
		"string concat/fmt) in //mclint:hotpath functions and their module-wide call closure; " +
		"suppress a deliberate cold or amortized site with //mclint:alloc-ok",
	Run: run,
}

func run(pass *analysis.Pass) error {
	g := callgraph.Of(pass)

	// Roots: every //mclint:hotpath declaration, module-wide. The
	// reachability map records, per reached node, the first root (in
	// graph order) whose closure contains it, for attribution.
	var roots []*callgraph.Node
	for _, n := range g.Nodes() {
		if n.HasDirective("hotpath") {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	reachedBy := make(map[*callgraph.Node]*callgraph.Node)
	for _, root := range roots {
		g.Closure(root, func(n *callgraph.Node) {
			if _, ok := reachedBy[n]; !ok {
				reachedBy[n] = root
			}
		})
	}

	// Each pass reports only its own package's findings, so a
	// violation in a cross-package callee is attributed exactly once,
	// in its home package.
	for _, n := range g.PackageNodes(pass.Pkg) {
		root, hot := reachedBy[n]
		if !hot {
			continue
		}
		check(pass, n, root)
	}
	return nil
}

// check walks one hot function body and reports its allocation sites.
func check(pass *analysis.Pass, n *callgraph.Node, root *callgraph.Node) {
	flag := func(node ast.Node, what string) {
		if pass.Suppressed(node, "alloc-ok") {
			return
		}
		where := ""
		if root != n {
			where = " (reachable from //mclint:hotpath " + root.Func.Name() + ")"
		}
		pass.Reportf(node.Pos(), "%s in hot path%s — the //mclint:hotpath closure must be allocation-free; "+
			"suppress a cold or amortized site with //mclint:alloc-ok -- <justification>", what, where)
	}

	// selfAppend marks append calls whose destination is the extended
	// slice itself (x = append(x, ...)): capacity-recycling, allowed.
	selfAppend := make(map[*ast.CallExpr]bool)

	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				if i >= len(s.Lhs) {
					break
				}
				if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(pass, call, "append") && len(call.Args) > 0 {
					if types.ExprString(call.Args[0]) == types.ExprString(s.Lhs[i]) {
						selfAppend[call] = true
					}
				}
			}
			// Map writes: a fresh key may trigger rehash/growth.
			for _, lhs := range s.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					if t := typeOf(pass, idx.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							flag(lhs, "map write (may grow the map)")
						}
					}
				}
			}
			// String concatenation via +=.
			if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 && isString(pass, s.Lhs[0]) {
				flag(s, "string concatenation")
			}
		case *ast.CallExpr:
			switch {
			case isBuiltin(pass, s, "panic"):
				return false // death path: panic arguments may allocate
			case isBuiltin(pass, s, "make"):
				flag(s, "make")
			case isBuiltin(pass, s, "new"):
				flag(s, "new")
			case isBuiltin(pass, s, "append"):
				if !selfAppend[s] {
					flag(s, "append to a different destination (copies into fresh backing)")
				}
			case isPkgCall(pass, s, "fmt"):
				flag(s, "fmt call")
			default:
				checkBoxing(pass, s, flag)
			}
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				if _, ok := s.X.(*ast.CompositeLit); ok {
					flag(s, "heap composite literal (&T{...})")
				}
			}
		case *ast.CompositeLit:
			if t := typeOf(pass, s); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					flag(s, "slice literal")
				case *types.Map:
					flag(s, "map literal")
				}
			}
		case *ast.BinaryExpr:
			if s.Op == token.ADD && isString(pass, s.X) {
				flag(s, "string concatenation")
			}
		case *ast.FuncLit:
			flag(s, "function literal (closure allocation)")
		}
		return true
	})
}

// checkBoxing flags concrete non-pointer values passed where an
// interface is expected: the conversion copies the value to the heap.
// Pointer-shaped values (pointers, channels, maps, funcs) and
// interface-to-interface assignments box without allocating.
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr, flag func(ast.Node, string)) {
	sig, ok := typeOfU(pass, call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // spread: no per-element conversion
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := typeOf(pass, arg)
		if at == nil || isNilExpr(arg) {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue
		}
		flag(arg, "value boxed into interface argument")
	}
}

func typeOf(pass *analysis.Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// typeOfU is typeOf with a nil-safe Underlying for signature lookup.
func typeOfU(pass *analysis.Pass, e ast.Expr) types.Type {
	t := typeOf(pass, e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	t := typeOf(pass, e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isNilExpr(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// isBuiltin reports whether call invokes the named predeclared
// builtin (not shadowed by a local declaration).
func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isPkgCall reports whether call is pkg.F(...) for the named imported
// package.
func isPkgCall(pass *analysis.Pass, call *ast.CallExpr, pkg string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Name() == pkg
}
