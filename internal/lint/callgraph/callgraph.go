// Package callgraph is the shared interprocedural substrate of the
// mclint suite: a module-wide static call graph over every
// source-loaded package of a driver run, with function literals
// attributed to their enclosing declaration, mclint directives
// attached to each node, cross-package call edges resolved through
// stable symbol names, and method-set resolution for the small
// interface sets the analyzers care about (memctrl.Policy, obs.Sink,
// memctrl.CommandTrace).
//
// Before this package existed, horizonarm and groupsync each
// hand-rolled their own same-package call-closure walk; they now
// collect only their domain facts per function body and delegate
// callee resolution and reachability (Closure) here. The graph is
// built once per driver run and memoized in the run-wide
// analysis.Cache, so the module-wide analyzers (hotalloc) and the
// per-package ones share one construction.
//
// Resolution is first-order and static: a call edge exists when the
// callee identifier resolves to a *types.Func whose declaration is in
// one of the run's source-loaded packages. Interface method calls,
// function-typed fields and variables resolve to no node — they are
// deliberate closure boundaries (Implementations exposes the method
// sets behind the registered interfaces for analyzers that want to
// reason across that boundary explicitly).
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"cloudmc/internal/lint/analysis"
)

// Call is one static call site inside a node's body (function
// literals included).
type Call struct {
	// Site is the call expression.
	Site *ast.CallExpr
	// Name is the called identifier or selector name ("" when the
	// callee expression is itself a call or other non-name form).
	Name string
	// Fn is the resolved callee object, when the identifier resolves
	// to a function or method (including interface methods and
	// functions outside the run's packages). Nil for builtins and
	// dynamic calls.
	Fn *types.Func
	// Callee is the graph node for Fn when its declaration is in one
	// of the run's source-loaded packages; nil otherwise (interface
	// methods, imported-only packages, builtins, dynamic calls).
	Callee *Node
}

// Node is one declared function or method.
type Node struct {
	// Func is the declared object, from its home package's
	// type-checking universe.
	Func *types.Func
	// Decl is the declaration; Decl.Body is non-nil for every node.
	Decl *ast.FuncDecl
	// Pkg and Info are the home package and its type info.
	Pkg  *types.Package
	Info *types.Info
	// PkgPath is the home package's raw import path.
	PkgPath string
	// Directives are the mclint directives attached to the
	// declaration (trailing comment on its first line, or the line
	// above — which covers doc comments), justifications stripped.
	Directives []string
	// Calls lists every static call site in the body, in source
	// order, function literals attributed to this declaration.
	Calls []Call
	// Callees are the distinct nodes this body calls, in first-call
	// order.
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

// Name returns the function's name (methods unqualified).
func (n *Node) Name() string { return n.Func.Name() }

// Graph is the module-wide call graph of one driver run.
type Graph struct {
	fset   *token.FileSet
	order  []*Node // deterministic: package, file, declaration order
	byName map[string]*Node
	byDecl map[*ast.FuncDecl]*Node
	byPkg  map[*types.Package][]*Node
	pkgs   []*analysis.PackageInfo
}

// cacheKey keys the memoized graph in the run-wide analysis.Cache.
const cacheKey = "callgraph"

// Of returns the call graph for pass's run, building it on first use
// and memoizing it in pass.Cache. When the driver published no
// AllPackages (single-package passes), the graph covers just the
// pass's own package — same-package edges still resolve, cross-package
// edges dangle.
func Of(pass *analysis.Pass) *Graph {
	if v, ok := pass.Cache.Get(cacheKey); ok {
		return v.(*Graph)
	}
	pkgs := pass.AllPackages
	if pkgs == nil {
		pkgs = []*analysis.PackageInfo{{
			PkgPath:   pass.Pkg.Path(),
			Files:     pass.Files,
			Pkg:       pass.Pkg,
			TypesInfo: pass.TypesInfo,
		}}
	}
	g := Build(pass.Fset, pkgs)
	pass.Cache.Put(cacheKey, g)
	return g
}

// Build constructs the graph over pkgs, which must share fset.
func Build(fset *token.FileSet, pkgs []*analysis.PackageInfo) *Graph {
	g := &Graph{
		fset:   fset,
		byName: make(map[string]*Node),
		byDecl: make(map[*ast.FuncDecl]*Node),
		byPkg:  make(map[*types.Package][]*Node),
		pkgs:   pkgs,
	}
	// First pass: one node per declared function body, directives
	// attached; keyed by FullName so a *types.Func from an importing
	// package's universe resolves to the home package's node.
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
				n := &Node{
					Func:    obj,
					Decl:    fd,
					Pkg:     p.Pkg,
					Info:    p.TypesInfo,
					PkgPath: p.PkgPath,
				}
				line := fset.Position(fd.Pos()).Line
				for _, l := range []int{line - 1, line} {
					n.Directives = append(n.Directives, directives[l]...)
				}
				g.order = append(g.order, n)
				g.byName[obj.FullName()] = n
				g.byDecl[fd] = n
				g.byPkg[p.Pkg] = append(g.byPkg[p.Pkg], n)
			}
		}
	}
	// Second pass: call sites and edges.
	for _, n := range g.order {
		seen := make(map[*Node]bool)
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			c := Call{Site: call}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				c.Name = fun.Name
				c.Fn, _ = n.Info.Uses[fun].(*types.Func)
			case *ast.SelectorExpr:
				c.Name = fun.Sel.Name
				c.Fn, _ = n.Info.Uses[fun.Sel].(*types.Func)
			}
			if c.Fn != nil {
				c.Callee = g.byName[c.Fn.FullName()]
			}
			n.Calls = append(n.Calls, c)
			if c.Callee != nil && !seen[c.Callee] {
				seen[c.Callee] = true
				n.Callees = append(n.Callees, c.Callee)
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

// DeclNode returns the node for a declaration from one of the run's
// packages, or nil.
func (g *Graph) DeclNode(fd *ast.FuncDecl) *Node { return g.byDecl[fd] }

// NodeOf resolves a function object — from any package universe of
// the run — to its node, or nil when its declaration is not in the
// run's packages.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.byName[fn.FullName()]
}

// Closure walks the static call closure of root depth-first in
// first-call order, calling visit once per reached node (root
// included). Returning false prunes the walk below that node: its
// callees are not entered through it (they may still be reached on
// another path).
func (g *Graph) Closure(root *Node, visit func(*Node) bool) {
	if root == nil {
		return
	}
	visited := make(map[*Node]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if visited[n] {
			return
		}
		visited[n] = true
		if !visit(n) {
			return
		}
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
