// Package analysis is a self-contained, stdlib-only core of the
// golang.org/x/tools/go/analysis API surface that the mclint suite
// needs: an Analyzer runs over one type-checked package (a Pass) and
// reports position-anchored Diagnostics. The build environment for
// this module vendors no third-party code, so the real x/tools module
// is not available; keeping the same shape (Analyzer{Name, Doc, Run},
// Pass.Reportf) means the analyzers port to the upstream API
// mechanically if that ever changes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid
	// Go identifier.
	Name string
	// Doc is the one-paragraph description printed by mclint -help.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// PackageInfo describes one source-loaded package of the current run.
// lint.Run and analysistest.Run publish all of them on every Pass
// (AllPackages) so module-wide analyses — the interprocedural call
// graph, cross-package reachability — can see past the single package
// a Pass presents.
type PackageInfo struct {
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Cache is a run-wide memo shared by every Pass of one driver run.
// Module-wide computations (the callgraph package's graph) key their
// results here so the first analyzer to need them pays for them once.
type Cache struct {
	m map[string]interface{}
}

// NewCache returns an empty run-wide cache.
func NewCache() *Cache { return &Cache{m: make(map[string]interface{})} }

// Get returns the cached value for key.
func (c *Cache) Get(key string) (interface{}, bool) {
	v, ok := c.m[key]
	return v, ok
}

// Put stores v under key.
func (c *Cache) Put(key string, v interface{}) { c.m[key] = v }

// Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// AllPackages lists every source-loaded package of the run,
	// including the one this Pass presents.
	AllPackages []*PackageInfo

	// Cache is the run-wide memo shared across packages and analyzers
	// of one run.
	Cache *Cache

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	directives map[*ast.File]map[int][]string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// EffectivePath returns the package path the scope rules see. Fixture
// packages live under a testdata directory (so the ordinary build
// never touches them) but must exercise scope-restricted analyzers, so
// a path containing "/testdata/" is re-rooted at cloudmc/internal/:
// everything after the last "/src/" names the simulated package
// ("cloudmc/internal/lint/testdata/broken/src/dram" is analyzed as
// "cloudmc/internal/dram").
func (p *Pass) EffectivePath() string {
	return EffectivePath(p.Pkg.Path())
}

// EffectivePath implements the Pass.EffectivePath mapping for a raw
// package path. A testdata package without an src/ segment is
// re-rooted outside cloudmc/internal/ instead, which gives fixtures a
// way to exercise the out-of-scope side of the scope rules.
func EffectivePath(path string) string {
	i := strings.Index(path, "/testdata/")
	if i < 0 {
		return path
	}
	rest := path[i+len("/testdata/"):]
	if strings.HasPrefix(rest, "src/") {
		return "cloudmc/internal/" + rest[len("src/"):]
	}
	if j := strings.LastIndex(rest, "/src/"); j >= 0 {
		return "cloudmc/internal/" + rest[j+len("/src/"):]
	}
	return "cloudmc/testdata/" + rest
}

// DirectiveLines scans one file's comments for mclint directives. The
// returned map is keyed by the line on which the directive comment
// ends, so both same-line trailing comments and a comment on the line
// above a statement (including a declaration's doc comment) attach
// naturally. Trailing justifications ("directive -- reason") are
// stripped.
func DirectiveLines(fset *token.FileSet, f *ast.File) map[int][]string {
	m := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, "mclint:") {
				continue
			}
			d := strings.TrimPrefix(text, "mclint:")
			// Strip a trailing justification: "directive -- reason".
			if k := strings.Index(d, "--"); k >= 0 {
				d = d[:k]
			}
			d = strings.TrimSpace(d)
			line := fset.Position(c.End()).Line
			m[line] = append(m[line], d)
		}
	}
	return m
}

// directivesFor lazily scans a file's comments for mclint directives,
// memoizing per file.
func (p *Pass) directivesFor(f *ast.File) map[int][]string {
	if p.directives == nil {
		p.directives = make(map[*ast.File]map[int][]string)
	}
	if m, ok := p.directives[f]; ok {
		return m
	}
	m := DirectiveLines(p.Fset, f)
	p.directives[f] = m
	return m
}

// fileOf returns the *ast.File containing pos.
func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// Suppressed reports whether node carries directive d: an
// "//mclint:<d>" comment ending on the node's first line or on the
// line immediately above it (which covers doc comments).
func (p *Pass) Suppressed(node ast.Node, d string) bool {
	f := p.fileOf(node.Pos())
	if f == nil {
		return false
	}
	m := p.directivesFor(f)
	line := p.Fset.Position(node.Pos()).Line
	for _, l := range []int{line, line - 1} {
		for _, got := range m[l] {
			if got == d {
				return true
			}
		}
	}
	return false
}
