// Package epochbump guards the cache invalidation contract of
// cloudmc/internal/dram: the memory controller caches each candidate
// group's command and earliest-issue cycle stamped with the DRAM
// constraint epochs (Bank.Epoch, Rank.ActEpoch, Channel.DataEpoch) and
// revalidates them by comparison, so every mutation of a timing field
// MUST bump the matching epoch in the same function — otherwise a
// stale cached cycle survives the state change, and the option builder
// and the park horizon can act late (or skip a legal cycle), silently
// diverging from the naive loop.
//
// The contract, per type:
//
//	Bank:    State, OpenRow, actAllowedAt, colAllowedAt, preAllowedAt -> epoch
//	Rank:    lastActAt, anyActivate, actTimes, actCount              -> actEpoch
//	Channel: dataFreeAt, lastWriteDataEnd, lastReadDataEnd           -> dataEpoch
//
// The command-bus fields (lastCmdAt, anyCmd) are deliberately outside
// the contract: before the controller issues in a cycle their
// constraint never exceeds that cycle, so it cannot decide whether a
// command is legal now or how long a parked controller sleeps (see
// the dram.Channel.dataEpoch comment).
package epochbump

import (
	"go/ast"
	"go/token"
	"go/types"

	"cloudmc/internal/lint/analysis"
)

// Analyzer is the epochbump invalidation-contract check.
var Analyzer = &analysis.Analyzer{
	Name: "epochbump",
	Doc: "requires every function in cloudmc/internal/dram that mutates a timing field " +
		"(bank state, rank ACT window, data-bus busy-until) to bump the matching constraint epoch",
	Run: run,
}

// contractOrder fixes the reporting order over contract's types.
var contractOrder = []string{"Bank", "Rank", "Channel"}

// contract maps a dram type name to its guarded timing fields and the
// epoch field a mutating function must bump.
var contract = map[string]struct {
	fields map[string]bool
	epoch  string
}{
	"Bank": {
		fields: map[string]bool{"State": true, "OpenRow": true,
			"actAllowedAt": true, "colAllowedAt": true, "preAllowedAt": true},
		epoch: "epoch",
	},
	"Rank": {
		fields: map[string]bool{"lastActAt": true, "anyActivate": true,
			"actTimes": true, "actCount": true},
		epoch: "actEpoch",
	},
	"Channel": {
		fields: map[string]bool{"dataFreeAt": true, "lastWriteDataEnd": true,
			"lastReadDataEnd": true},
		epoch: "dataEpoch",
	},
}

func run(pass *analysis.Pass) error {
	if pass.EffectivePath() != "cloudmc/internal/dram" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// firstMut records the first guarded-field mutation per type;
	// bumped records which epochs the function bumps.
	firstMut := make(map[string]token.Pos)
	mutField := make(map[string]string)
	bumped := make(map[string]bool)

	note := func(expr ast.Expr) {
		tname, field, ok := guardedTarget(pass, expr)
		if !ok {
			return
		}
		spec := contract[tname]
		switch {
		case field == spec.epoch:
			bumped[tname] = true
		case spec.fields[field]:
			if _, seen := firstMut[tname]; !seen {
				firstMut[tname] = expr.Pos()
				mutField[tname] = field
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				note(lhs)
			}
		case *ast.IncDecStmt:
			note(s.X)
		}
		return true
	})

	for _, tname := range contractOrder {
		pos, mutated := firstMut[tname]
		if !mutated || bumped[tname] {
			continue
		}
		if pass.Suppressed(fd, "allow epochbump") {
			continue
		}
		pass.Reportf(pos, "%s mutates %s.%s but never bumps %s.%s; a cached earliest-issue cycle stamped with "+
			"the old epoch would survive this state change (see the memctrl group-cache revalidation contract)",
			fd.Name.Name, tname, mutField[tname], tname, contract[tname].epoch)
	}
}

// guardedTarget resolves an assignment target to (type name, field
// name) when it is a selector — possibly through indexing or pointer
// dereference — on a value of one of the contract types declared in
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
	if _, tracked := contract[name]; !tracked {
		return "", "", false
	}
	// Only this package's types: a Bank imported from elsewhere is not
	// under this package's epoch contract.
	if named.Obj().Pkg() != pass.Pkg {
		return "", "", false
	}
	return name, sel.Sel.Name, true
}
