// Package groupsync guards the candidate-group index maintenance
// contract of cloudmc/internal/memctrl: the controller keeps one live
// group entry per (bankIdx, row) — the input of buildOptions —
// updated incrementally as requests enter and leave the queues. Any
// function that changes queue membership (the readQ/writeQ slices)
// MUST update the index in the same function, by calling one of the
// maintenance entry points: groupEnqueue, which files a queued request
// into its group, or groupRemove, which takes one out. Otherwise the
// index silently diverges from the queues and the incremental option
// builder emits a stale candidate set — a divergence only the
// differential suites would catch, one randomized stream too late. A
// rebuild of the option set (buildOptions) does not discharge the
// obligation: it reads the index and repairs nothing.
//
// The write-drain flag is outside the contract: the index reads it
// only through the mode each build derives, and no memo is keyed on
// the mode.
//
// The group type's own reads/writes lists are deliberately outside
// the contract: mutating them IS the index maintenance.
package groupsync

import (
	"go/ast"
	"go/token"
	"go/types"

	"cloudmc/internal/lint/analysis"
	"cloudmc/internal/lint/callgraph"
)

// Analyzer is the groupsync maintenance-contract check.
var Analyzer = &analysis.Analyzer{
	Name: "groupsync",
	Doc: "requires every function in cloudmc/internal/memctrl that mutates queue membership " +
		"(readQ/writeQ) to update the candidate-group index in the same function",
	Run: run,
}

// guarded maps a memctrl type name to the fields whose mutation (or
// address-taking — removeRequest edits the queues through pointers)
// requires index maintenance in the same function.
var guarded = map[string]map[string]bool{
	"Controller": {"readQ": true, "writeQ": true},
}

// syncCalls are the maintenance entry points that discharge the
// obligation.
var syncCalls = map[string]bool{
	"groupEnqueue": true,
	"groupRemove":  true,
}

func run(pass *analysis.Pass) error {
	if pass.EffectivePath() != "cloudmc/internal/memctrl" {
		return nil
	}
	g := callgraph.Of(pass)
	for _, n := range g.PackageNodes(pass.Pkg) {
		if syncCalls[n.Name()] {
			continue // the maintenance paths themselves
		}
		checkFunc(pass, n)
	}
	return nil
}

func checkFunc(pass *analysis.Pass, n *callgraph.Node) {
	fd := n.Decl
	var firstMut token.Pos
	var mutDesc string
	synced := false

	// Discharge: any method call naming a maintenance entry point,
	// from the graph's call list.
	for _, c := range n.Calls {
		if _, isSel := c.Site.Fun.(*ast.SelectorExpr); isSel && syncCalls[c.Name] {
			synced = true
			break
		}
	}

	note := func(expr ast.Expr) {
		tname, field, ok := guardedTarget(pass, expr)
		if !ok {
			return
		}
		if firstMut == token.NoPos {
			firstMut = expr.Pos()
			mutDesc = tname + "." + field
		}
	}

	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				note(lhs)
			}
		case *ast.IncDecStmt:
			note(s.X)
		case *ast.UnaryExpr:
			// Taking a guarded field's address hands out mutable
			// access (the queue-removal helpers work through
			// pointers), so it carries the same obligation.
			if s.Op == token.AND {
				note(s.X)
			}
		}
		return true
	})

	if firstMut == token.NoPos || synced {
		return
	}
	if pass.Suppressed(fd, "allow groupsync") {
		return
	}
	pass.Reportf(firstMut, "%s mutates %s but never updates the candidate-group index "+
		"(groupEnqueue/groupRemove) in the same function; the incremental option builder "+
		"would emit a stale candidate set (see the groups.go maintenance contract)",
		fd.Name.Name, mutDesc)
}

// guardedTarget resolves an expression to (type name, field name)
// when it is a selector — possibly through indexing or pointer
// dereference — on a value of one of the guarded types declared in
// this package.
func guardedTarget(pass *analysis.Pass, expr ast.Expr) (tname, field string, ok bool) {
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			expr = e.X
			continue
		case *ast.ParenExpr:
			expr = e.X
			continue
		case *ast.StarExpr:
			expr = e.X
			continue
		}
		break
	}
	sel, isSel := expr.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return "", "", false
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	name := named.Obj().Name()
	fields, tracked := guarded[name]
	if !tracked || !fields[sel.Sel.Name] {
		return "", "", false
	}
	// Only this package's types: a Controller imported from elsewhere
	// is not under this package's maintenance contract.
	if named.Obj().Pkg() != pass.Pkg {
		return "", "", false
	}
	return name, sel.Sel.Name, true
}
