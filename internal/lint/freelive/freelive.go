// Package freelive guards the free-list lifetime contract of the
// recycled hot-path objects (cloudmc/internal/memctrl's Request
// structs and candidate-group arena, cloudmc/internal/core's
// mshrEntry free list): once such an object is returned to its free
// list, any pointer that survived the recycle point dangles — the
// same storage is reused for an unrelated future request, silently,
// with no tool able to catch it (it is not a use-after-free the race
// detector or GC can see).
//
// The check is a first-order taint analysis over the packages that
// handle recycled objects (memctrl, core, sched): a value whose type
// is a pointer to a recycled type (*Request, *group, *mshrEntry) — or
// a slice/map of such pointers — may flow through locals, parameters
// and returns freely, but every store that parks it somewhere that
// outlives the statement is flagged:
//
//   - into a struct field (directly, through an index/dereference
//     chain, or by appending to a field-rooted slice or writing a
//     field-rooted map);
//   - into a composite literal's field or element (the literal may be
//     stored anywhere);
//   - into a package-level variable;
//   - into a closure, by capture of a tracked variable.
//
// A store site that is part of the ownership discipline — an index
// structure provably cleared before its objects are recycled — is
// annotated //mclint:owns on the destination field's declaration (or
// on the store/capture site itself), with a justification explaining
// why the pointer cannot survive the recycle point.
//
// Additionally, every implementation of the registered interface sets
// that receive recycled pointers (memctrl.Policy, memctrl.CommandTrace,
// obs.Sink — resolved through the shared callgraph substrate's method
// sets) is checked against the policy.go lifetime contract: per-request
// state held past OnComplete must be keyed by value (Request.ID),
// never by pointer, so a field whose type involves *Request in a
// Policy/CommandTrace/Sink implementation is flagged.
package freelive

import (
	"go/ast"
	"go/token"
	"go/types"

	"cloudmc/internal/lint/analysis"
	"cloudmc/internal/lint/callgraph"
)

// Analyzer is the freelive free-list lifetime check.
var Analyzer = &analysis.Analyzer{
	Name: "freelive",
	Doc: "flags stores that let a pointer to a free-listed object (memctrl.Request, the candidate-group " +
		"arena, core.mshrEntry) escape into a field, slice, map, package variable or closure not annotated " +
		"//mclint:owns, and Policy/CommandTrace/Sink implementations that key state by *Request instead of Request.ID",
	Run: run,
}

// tracked maps an effective package path to the recycled type names
// whose pointers must not outlive their recycle point.
var tracked = map[string]map[string]bool{
	"cloudmc/internal/memctrl": {"Request": true, "group": true},
	"cloudmc/internal/core":    {"mshrEntry": true},
}

// scope is the set of packages that handle recycled objects.
var scope = map[string]bool{
	"cloudmc/internal/memctrl": true,
	"cloudmc/internal/core":    true,
	"cloudmc/internal/sched":   true,
}

// retainIfaces are the registered interface sets whose implementations
// receive *Request arguments under the policy.go lifetime contract.
var retainIfaces = []struct{ path, name string }{
	{"cloudmc/internal/memctrl", "Policy"},
	{"cloudmc/internal/memctrl", "CommandTrace"},
	{"cloudmc/internal/obs", "Sink"},
}

func run(pass *analysis.Pass) error {
	if !scope[pass.EffectivePath()] {
		return nil
	}
	c := &checker{pass: pass, owns: newOwnsIndex(pass)}
	for _, f := range pass.Files {
		ast.Inspect(f, c.visit)
	}
	c.checkImplementations()
	return nil
}

// checker carries the per-pass state.
type checker struct {
	pass *analysis.Pass
	owns *ownsIndex
}

// trackedNamed reports whether named is one of the recycled types.
func trackedNamed(named *types.Named) bool {
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	set, ok := tracked[analysis.EffectivePath(obj.Pkg().Path())]
	return ok && set[obj.Name()]
}

// trackedPtr reports whether t is a pointer to a recycled type.
func trackedPtr(t types.Type) bool {
	if t == nil {
		return false
	}
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && trackedNamed(named)
}

// trackedAggregate reports whether t is a slice, array or map holding
// pointers to a recycled type.
func trackedAggregate(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return trackedPtr(u.Elem())
	case *types.Array:
		return trackedPtr(u.Elem())
	case *types.Map:
		return trackedPtr(u.Key()) || trackedPtr(u.Elem())
	}
	return false
}

// describe names t's recycled type for diagnostics.
func describe(t types.Type) string {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		if named, ok := u.Elem().(*types.Named); ok {
			return "*" + named.Obj().Name()
		}
	case *types.Slice:
		return "[]" + describe(u.Elem())
	case *types.Array:
		return "[...]" + describe(u.Elem())
	case *types.Map:
		if trackedPtr(u.Elem()) {
			return "map of " + describe(u.Elem())
		}
		return "map keyed by " + describe(u.Key())
	}
	return t.String()
}

func (c *checker) visit(n ast.Node) bool {
	switch s := n.(type) {
	case *ast.AssignStmt:
		c.checkAssign(s)
	case *ast.CompositeLit:
		c.checkComposite(s)
	case *ast.FuncLit:
		c.checkCaptures(s)
	}
	return true
}

// checkAssign flags assignments that park a tracked value in a field
// or package variable.
func (c *checker) checkAssign(s *ast.AssignStmt) {
	if len(s.Lhs) == len(s.Rhs) {
		for i, lhs := range s.Lhs {
			c.checkStore(lhs, s.Rhs[i], c.typeOf(s.Rhs[i]))
		}
		return
	}
	// Tuple assignment: component types from the call's result tuple.
	if len(s.Rhs) == 1 {
		if tup, ok := c.typeOf(s.Rhs[0]).(*types.Tuple); ok && tup.Len() == len(s.Lhs) {
			for i, lhs := range s.Lhs {
				c.checkStore(lhs, nil, tup.At(i).Type())
			}
		}
	}
}

func (c *checker) typeOf(e ast.Expr) types.Type {
	if tv, ok := c.pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// checkStore examines one (destination, value) pair. rhs is nil for
// tuple components.
func (c *checker) checkStore(lhs ast.Expr, rhs ast.Expr, rhsType types.Type) {
	if isNil(rhs) {
		return // clearing a slot is the discipline, not a leak
	}
	field, pkgVar := destOf(c.pass, lhs)
	if field == nil && pkgVar == nil {
		return // local-rooted destination: first-order ownership stays with the function
	}
	var leak types.Type
	switch {
	case rhs != nil && isSelfReslice(lhs, rhs):
		return // truncating a field in place introduces no new reference
	case rhs != nil && isAppend(rhs):
		// append grows the destination; only tracked *elements* leak
		// into it (appending untracked structs is fine — their
		// composite literals are checked separately).
		call := rhs.(*ast.CallExpr)
		for _, arg := range call.Args[1:] {
			t := c.typeOf(arg)
			if trackedPtr(t) || (call.Ellipsis != token.NoPos && trackedAggregate(t)) {
				leak = t
				break
			}
		}
	case trackedPtr(rhsType) || trackedAggregate(rhsType):
		leak = rhsType
	}
	if leak == nil {
		return
	}
	if field != nil {
		c.flagField(lhs.Pos(), field, leak, "store")
		return
	}
	if c.owns.at(pkgVar.Pos()) || c.pass.Suppressed(lhs, "owns") {
		return
	}
	c.pass.Reportf(lhs.Pos(), "tracked %s escapes into package-level variable %s — a recycled "+
		"free-list object could be reached through it after its recycle point; if the variable is "+
		"provably cleared before recycle, annotate it //mclint:owns with a justification",
		describe(leak), pkgVar.Name())
}

// flagField reports a tracked value parked in field unless the field's
// declaration (or the store site) carries //mclint:owns.
func (c *checker) flagField(pos token.Pos, field *types.Var, leak types.Type, how string) {
	if c.owns.at(field.Pos()) {
		return
	}
	// Site-level suppression: //mclint:owns on the store line.
	if c.pass.Suppressed(posNode{pos}, "owns") {
		return
	}
	c.pass.Reportf(pos, "tracked %s escapes into field %s (%s) — a recycled free-list object "+
		"could be reached through it after its recycle point; if the index is provably cleared "+
		"before recycle, annotate the field //mclint:owns with a justification",
		describe(leak), field.Name(), how)
}

// posNode adapts a bare position to ast.Node for Pass.Suppressed.
type posNode struct{ pos token.Pos }

func (p posNode) Pos() token.Pos { return p.pos }
func (p posNode) End() token.Pos { return p.pos }

// isNil reports whether e is the predeclared nil.
func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// isAppend reports whether e is a call to the builtin append.
func isAppend(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append" && len(call.Args) > 0
}

// isSelfReslice reports whether rhs reslices the destination itself
// (c.q = c.q[:n] and friends), which recycles the field's own backing
// array without introducing a new reference.
func isSelfReslice(lhs, rhs ast.Expr) bool {
	sl, ok := rhs.(*ast.SliceExpr)
	if !ok {
		return false
	}
	return types.ExprString(sl.X) == types.ExprString(lhs)
}

// destOf resolves an assignment destination to the struct field or
// package-level variable it roots in, unwrapping index, dereference
// and parenthesis chains. Both results nil means the destination is
// local-rooted.
func destOf(pass *analysis.Pass, expr ast.Expr) (field *types.Var, pkgVar *types.Var) {
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
		case *ast.SelectorExpr:
			if v, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var); ok {
				if v.IsField() {
					return v, nil
				}
				// Qualified package variable: pkg.Var.
				if id, isID := e.X.(*ast.Ident); isID {
					if _, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); isPkg && isPackageLevel(v) {
						return nil, v
					}
				}
			}
			return nil, nil
		case *ast.Ident:
			if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok && isPackageLevel(v) {
				return nil, v
			}
			return nil, nil
		default:
			return nil, nil
		}
	}
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// checkComposite flags composite literals whose fields or elements
// hold tracked values — the literal itself may be stored anywhere, so
// construction is the choke point.
func (c *checker) checkComposite(cl *ast.CompositeLit) {
	t := c.typeOf(cl)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i, elt := range cl.Elts {
			var value ast.Expr
			var field *types.Var
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				value = kv.Value
				if key, isID := kv.Key.(*ast.Ident); isID {
					field, _ = c.pass.TypesInfo.Uses[key].(*types.Var)
				}
			} else {
				value = elt
				if i < u.NumFields() {
					field = u.Field(i)
				}
			}
			vt := c.typeOf(value)
			if field == nil || !(trackedPtr(vt) || trackedAggregate(vt)) {
				continue
			}
			c.flagField(value.Pos(), field, vt, "composite literal")
		}
	case *types.Slice, *types.Array, *types.Map:
		for _, elt := range cl.Elts {
			value := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				value = kv.Value
			}
			vt := c.typeOf(value)
			if !trackedPtr(vt) {
				continue
			}
			if c.pass.Suppressed(posNode{value.Pos()}, "owns") {
				continue
			}
			c.pass.Reportf(value.Pos(), "tracked %s escapes into a %s literal — a recycled free-list "+
				"object could be reached through it after its recycle point; annotate the site "+
				"//mclint:owns with a justification if the container is provably cleared before recycle",
				describe(vt), kindName(u))
		}
	}
}

func kindName(t types.Type) string {
	switch t.(type) {
	case *types.Slice:
		return "slice"
	case *types.Array:
		return "array"
	case *types.Map:
		return "map"
	}
	return "composite"
}

// checkCaptures flags function literals that capture a tracked
// variable from their enclosing scope: the closure may outlive the
// captured object's life on the free list.
func (c *checker) checkCaptures(fl *ast.FuncLit) {
	if c.pass.Suppressed(fl, "owns") {
		return
	}
	seen := make(map[*types.Var]bool)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if !trackedPtr(v.Type()) {
			return true
		}
		// Captured = declared outside the literal.
		if v.Pos() >= fl.Pos() && v.Pos() <= fl.End() {
			return true
		}
		seen[v] = true
		c.pass.Reportf(id.Pos(), "closure captures tracked %s %s — the closure may outlive the object's "+
			"free-list life and fire after its recycle point; annotate the literal //mclint:owns with a "+
			"justification if the closure provably cannot fire after recycle",
			describe(v.Type()), v.Name())
		return true
	})
}

// checkImplementations applies the policy.go lifetime contract to the
// registered interface sets: implementations must key per-request
// state by Request.ID, never by pointer, so a struct field whose type
// involves *Request is flagged.
func (c *checker) checkImplementations() {
	g := callgraph.Of(c.pass)
	for _, iface := range retainIfaces {
		for _, impl := range g.Implementations(iface.path, iface.name) {
			if impl.Pkg != c.pass.Pkg {
				continue // its home package's pass reports it
			}
			st, ok := impl.Named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				t := f.Type()
				if !(trackedPtr(t) || trackedAggregate(t)) {
					continue
				}
				if c.owns.at(f.Pos()) {
					continue
				}
				c.pass.Reportf(f.Pos(), "%s implements %s.%s but keys state by pointer: field %s involves "+
					"a recycled *Request, which may be reused for an unrelated request after OnComplete — "+
					"key per-request state by value (Request.ID) instead (see the policy.go lifetime contract)",
					impl.Named.Obj().Name(), iface.path, iface.name, f.Name())
			}
		}
	}
}

// ownsIndex answers "does the declaration at pos carry //mclint:owns?"
// across every source-loaded file of the run — field declarations may
// live in a different file or package than the store being checked.
type ownsIndex struct {
	fset  *token.FileSet
	files []*ast.File
	memo  map[*ast.File]map[int][]string
}

func newOwnsIndex(pass *analysis.Pass) *ownsIndex {
	ix := &ownsIndex{fset: pass.Fset, memo: make(map[*ast.File]map[int][]string)}
	for _, p := range pass.AllPackages {
		ix.files = append(ix.files, p.Files...)
	}
	return ix
}

// at reports whether an owns directive is attached to the line of pos
// (or the line above it).
func (ix *ownsIndex) at(pos token.Pos) bool {
	if !pos.IsValid() {
		return false
	}
	var file *ast.File
	for _, f := range ix.files {
		if f.FileStart <= pos && pos < f.FileEnd {
			file = f
			break
		}
	}
	if file == nil {
		return false
	}
	m, ok := ix.memo[file]
	if !ok {
		m = analysis.DirectiveLines(ix.fset, file)
		ix.memo[file] = m
	}
	line := ix.fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, d := range m[l] {
			if d == "owns" {
				return true
			}
		}
	}
	return false
}
