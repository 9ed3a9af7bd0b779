// Package maprange flags `for range` over a map in simulation
// packages. Go randomizes map iteration order, so any observable
// output derived from a map range — error text listing valid names,
// option ordering, accumulated floating-point sums — varies from run
// to run, which breaks the repo's bit-identical determinism contract
// (the naive and kernel loop modes must produce identical Metrics,
// and checkpoint/resume must replay exactly).
//
// A map range is accepted when:
//
//   - the statement carries a `//mclint:order-insensitive` directive
//     (same line or the line above) asserting that the loop body is
//     invariant under iteration order — e.g. it only counts, or
//     writes to distinct keys of another map; or
//   - the loop provably feeds an order-free sink: the statement
//     immediately following the loop is a sort.* call, the standard
//     collect-keys-then-sort idiom.
package maprange

import (
	"go/ast"
	"go/types"
	"strings"

	"cloudmc/internal/lint/analysis"
)

// Analyzer is the maprange determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "maprange",
	Doc: "flags `for range` over a map in simulation packages (cloudmc/internal/...) " +
		"unless justified by //mclint:order-insensitive or followed immediately by a sort.* call",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.EffectivePath(), "cloudmc/internal/") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch s := n.(type) {
			case *ast.BlockStmt:
				list = s.List
			case *ast.CaseClause:
				list = s.Body
			case *ast.CommClause:
				list = s.Body
			default:
				return true
			}
			for i, stmt := range list {
				rs, ok := stmt.(*ast.RangeStmt)
				if !ok || !rangesOverMap(pass, rs) {
					continue
				}
				if pass.Suppressed(rs, "order-insensitive") {
					continue
				}
				if i+1 < len(list) && isSortCall(pass, list[i+1]) {
					continue
				}
				pass.Reportf(rs.Pos(), "range over map has nondeterministic iteration order; "+
					"sort the keys, or justify with //mclint:order-insensitive")
			}
			return true
		})
	}
	return nil
}

// rangesOverMap reports whether rs ranges over a value of map type.
func rangesOverMap(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isSortCall reports whether stmt is an expression statement calling
// into the sort package (sort.Strings, sort.Slice, ...), i.e. the tail
// of the collect-then-sort idiom.
func isSortCall(pass *analysis.Pass, stmt ast.Stmt) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	p := pn.Imported().Path()
	return p == "sort" || p == "slices"
}
