// Package horizonarm guards the event-horizon contract of
// cloudmc/internal/memctrl: any exported entry point that grows a
// request queue must re-establish the controller's event horizon
// somewhere in its (intra-package, transitive) call path. The kernel
// step in cloudmc/internal/core ticks a controller only when
// Controller.NextEvent says it can act, so a stale horizon makes a
// parked controller sleep through work that just became due and the
// kernel diverges from the naive per-cycle loop.
//
// The obligation is a mutation of the request queues (readQ/writeQ);
// it is discharged by a call to noteEnqueue or a wakeAt write
// (resetting the horizon to "unknown" forces a full tick).
//
// The analysis is a reachability closure over the package's static
// call graph (function literals count as part of their enclosing
// declaration, via the shared callgraph substrate), checked per
// exported function: an entry point whose closure contains the
// obligation but neither discharge is flagged. Unexported helpers are
// deliberately exempt — the exported caller that reaches them
// discharges the obligation — because the contract binds the
// boundaries other packages can call into.
package horizonarm

import (
	"go/ast"

	"cloudmc/internal/lint/analysis"
	"cloudmc/internal/lint/callgraph"
)

// Analyzer is the horizonarm event-horizon check.
var Analyzer = &analysis.Analyzer{
	Name: "horizonarm",
	Doc: "requires exported entry points of cloudmc/internal/memctrl that grow a request queue " +
		"to re-establish the controller's event horizon (noteEnqueue or a wakeAt write in the call path)",
	Run: run,
}

// funcFacts is what one function body contributes to the closure.
// Callee resolution and the reachability walk live in the shared
// callgraph substrate; only the domain facts are collected here.
type funcFacts struct {
	mutatesQueues bool // assignment through a selector named readQ/writeQ
	callsNote     bool // call to noteEnqueue
	setsWakeAt    bool // assignment through a selector named wakeAt
}

func run(pass *analysis.Pass) error {
	if pass.EffectivePath() != "cloudmc/internal/memctrl" {
		return nil
	}

	g := callgraph.Of(pass)
	nodes := g.PackageNodes(pass.Pkg)
	facts := make(map[*callgraph.Node]*funcFacts, len(nodes))
	for _, n := range nodes {
		facts[n] = collect(n)
	}

	for _, n := range nodes {
		if !n.Func.Exported() {
			continue
		}
		if pass.Suppressed(n.Decl, "allow horizonarm") {
			continue
		}
		// The contract is intra-package: a callee in another package
		// contributes nothing (its own package's obligations are its
		// own pass's).
		var cl funcFacts
		g.Closure(n, func(m *callgraph.Node) bool {
			ff, ok := facts[m]
			if !ok {
				return false
			}
			cl.mutatesQueues = cl.mutatesQueues || ff.mutatesQueues
			cl.callsNote = cl.callsNote || ff.callsNote
			cl.setsWakeAt = cl.setsWakeAt || ff.setsWakeAt
			return true
		})
		if cl.mutatesQueues && !(cl.callsNote || cl.setsWakeAt) {
			pass.Reportf(n.Decl.Name.Pos(), "exported entry point %s mutates the request queues "+
				"but never re-establishes the event horizon (neither noteEnqueue nor a wakeAt write "+
				"in its call path)", n.Name())
		}
	}
	return nil
}

// collect records one node's direct facts: noteEnqueue calls from
// the graph's call sites (matched by name), mutations from a body
// walk.
func collect(n *callgraph.Node) *funcFacts {
	ff := &funcFacts{}
	for _, c := range n.Calls {
		if c.Name == "noteEnqueue" {
			ff.callsNote = true
		}
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				noteTarget(ff, lhs)
			}
		case *ast.IncDecStmt:
			noteTarget(ff, s.X)
		}
		return true
	})
	return ff
}

// noteTarget classifies an assignment target by the field it reaches
// through (unwrapping indexing and dereference).
func noteTarget(ff *funcFacts, expr ast.Expr) {
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
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "readQ", "writeQ":
		ff.mutatesQueues = true
	case "wakeAt":
		ff.setsWakeAt = true
	}
}
