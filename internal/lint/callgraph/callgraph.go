// Package callgraph is the shared interprocedural substrate of the
// mclint suite: a module-wide static call graph over every
// source-loaded package of a driver run, with function literals
// attributed to their enclosing declaration, mclint directives
// attached to each node, cross-package call edges resolved through
// stable symbol names, and method-set resolution for the small
// interface sets the analyzers care about (memctrl.Policy, obs.Sink,
// memctrl.CommandTrace).
//
// hotalloc walks the graph from its //mclint:hotpath roots (Nodes,
// Closure, PackageNodes); freelive asks it for the implementations of
// the interfaces that receive recycled pointers (Implementations). The
// graph is built once per lint run and memoized in the run-wide
// analysis.Cache, so both analyzers share one construction.
//
// Resolution is first-order and static: a call edge exists when the
// callee identifier resolves to a *types.Func whose declaration is in
// one of the run's source-loaded packages. Interface method calls,
// function-typed fields and variables resolve to no node — they are
// deliberate closure boundaries.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"cloudmc/internal/lint/analysis"
)

// Node is one declared function or method.
type Node struct {
	// Func is the declared object, from its home package's
	// type-checking universe.
	Func *types.Func
	// Decl is the declaration; Decl.Body is non-nil for every node.
	Decl *ast.FuncDecl
	// Directives are the mclint directives attached to the
	// declaration (trailing comment on its first line, or the line
	// above — which covers doc comments), justifications stripped.
	Directives []string
	// Callees are the distinct nodes this body calls, in first-call
	// order, function literals attributed to this declaration.
	Callees []*Node
}

// HasDirective reports whether the declaration carries the mclint
// directive d.
func (n *Node) HasDirective(d string) bool {
	for _, got := range n.Directives {
		if got == d {
			return true
		}
	}
	return false
}

// Graph is the module-wide call graph of one driver run.
type Graph struct {
	order []*Node // deterministic: package, file, declaration order
	byPkg map[*types.Package][]*Node
	pkgs  []*analysis.PackageInfo
}

// cacheKey keys the memoized graph in the run-wide analysis.Cache.
const cacheKey = "callgraph"

// Of returns the call graph over pass.AllPackages, building it on
// first use and memoizing it in pass.Cache.
func Of(pass *analysis.Pass) *Graph {
	if v, ok := pass.Cache.Get(cacheKey); ok {
		return v.(*Graph)
	}
	g := build(pass.Fset, pass.AllPackages)
	pass.Cache.Put(cacheKey, g)
	return g
}

// build constructs the graph over pkgs, which must share fset.
func build(fset *token.FileSet, pkgs []*analysis.PackageInfo) *Graph {
	g := &Graph{byPkg: make(map[*types.Package][]*Node), pkgs: pkgs}
	// One node per declared function body, directives attached; keyed
	// by FullName so a *types.Func from an importing package's
	// universe resolves to the home package's node. infos[i] is the
	// type info of g.order[i]'s package.
	byName := make(map[string]*Node)
	var infos []*types.Info
	for _, p := range pkgs {
		for _, f := range p.Files {
			directives := analysis.DirectiveLines(fset, f)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Func: obj, Decl: fd}
				line := fset.Position(fd.Pos()).Line
				for _, l := range []int{line - 1, line} {
					n.Directives = append(n.Directives, directives[l]...)
				}
				g.order = append(g.order, n)
				byName[obj.FullName()] = n
				infos = append(infos, p.TypesInfo)
				g.byPkg[p.Pkg] = append(g.byPkg[p.Pkg], n)
			}
		}
	}
	// Edges, in one walk of each body.
	for i, n := range g.order {
		seen := make(map[*Node]bool)
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			}
			if fn, ok := infos[i].Uses[id].(*types.Func); ok {
				if callee := byName[fn.FullName()]; callee != nil && !seen[callee] {
					seen[callee] = true
					n.Callees = append(n.Callees, callee)
				}
			}
			return true
		})
	}
	return g
}

// Nodes returns every node in deterministic (package, file,
// declaration) order.
func (g *Graph) Nodes() []*Node { return g.order }

// PackageNodes returns pkg's nodes in declaration order.
func (g *Graph) PackageNodes(pkg *types.Package) []*Node { return g.byPkg[pkg] }

// Closure walks the static call closure of root depth-first in
// first-call order, calling visit once per reached node (root
// included).
func (g *Graph) Closure(root *Node, visit func(*Node)) {
	visited := make(map[*Node]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if visited[n] {
			return
		}
		visited[n] = true
		visit(n)
		for _, c := range n.Callees {
			walk(c)
		}
	}
	walk(root)
}

// Impl is one concrete implementation of a registered interface.
type Impl struct {
	// Named is the implementing named type, from its home package's
	// universe; the method set satisfying the interface may be on
	// *Named.
	Named *types.Named
	// Pkg is the home package.
	Pkg *types.Package
}

// Implementations resolves the method sets behind one of the
// registered interface types — identified by the effective package
// path (per analysis.EffectivePath, so fixture re-rooting applies)
// and the interface name, e.g. ("cloudmc/internal/memctrl",
// "Policy"), ("cloudmc/internal/obs", "Sink"),
// ("cloudmc/internal/memctrl", "CommandTrace") — returning every
// named type declared in the run's packages whose value or pointer
// method set implements it. Each candidate package resolves the
// interface in its own type-checking universe (its own scope when it
// declares the interface, its direct imports otherwise), so the
// types.Implements check never crosses universes. Deterministic
// (package, declaration) order.
func (g *Graph) Implementations(ifacePkgPath, ifaceName string) []Impl {
	var impls []Impl
	for _, p := range g.pkgs {
		iface := lookupInterface(p.Pkg, ifacePkgPath, ifaceName)
		if iface == nil {
			continue
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				impls = append(impls, Impl{Named: named, Pkg: p.Pkg})
			}
		}
	}
	return impls
}

// lookupInterface finds the interface (path, name) as seen from pkg's
// universe: pkg's own scope when pkg effectively is that package, a
// direct import's scope otherwise. Paths compare under
// analysis.EffectivePath so fixture packages resolve like the real
// ones.
func lookupInterface(pkg *types.Package, path, name string) *types.Interface {
	resolve := func(p *types.Package) *types.Interface {
		tn, ok := p.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			return nil
		}
		iface, _ := tn.Type().Underlying().(*types.Interface)
		return iface
	}
	if analysis.EffectivePath(pkg.Path()) == path {
		return resolve(pkg)
	}
	for _, imp := range pkg.Imports() {
		if analysis.EffectivePath(imp.Path()) == path {
			return resolve(imp)
		}
	}
	return nil
}
