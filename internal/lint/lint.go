// Package lint assembles the mclint determinism-invariant analyzer
// suite of four analyzers: maprange (no map-iteration order leaks),
// nodeterm (no ambient nondeterminism sources), freelive (no pointer
// to a free-listed object survives its recycle point), hotalloc
// (//mclint:hotpath closures stay allocation-free). freelive and
// hotalloc share one module-wide call graph (internal/lint/callgraph),
// built once per run. cmd/mclint drives the suite over package
// patterns; selfcheck_test.go keeps the module clean from
// `go test ./...`; the testdata/broken fixtures prove each analyzer
// still fires.
package lint

import (
	"fmt"
	"go/token"

	"cloudmc/internal/lint/analysis"
	"cloudmc/internal/lint/freelive"
	"cloudmc/internal/lint/hotalloc"
	"cloudmc/internal/lint/loader"
	"cloudmc/internal/lint/maprange"
	"cloudmc/internal/lint/nodeterm"
)

// Analyzers returns the suite in its fixed reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		maprange.Analyzer,
		nodeterm.Analyzer,
		freelive.Analyzer,
		hotalloc.Analyzer,
	}
}

// Finding is one diagnostic, resolved to a file position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Run loads the packages matched by patterns (relative to dir) and
// applies the whole suite, returning findings in (package, analyzer,
// position) order.
func Run(dir string, patterns ...string) ([]Finding, error) {
	pkgs, err := loader.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	// Publish the whole run on every pass so module-wide analyses
	// (the shared call graph, hotalloc's cross-package reachability)
	// can see past the single package; one cache memoizes the graph
	// across all (package, analyzer) passes.
	all := make([]*analysis.PackageInfo, len(pkgs))
	for i, pkg := range pkgs {
		all[i] = &analysis.PackageInfo{
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
	}
	cache := analysis.NewCache()
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range Analyzers() {
			pass := &analysis.Pass{
				Analyzer:    a,
				Fset:        pkg.Fset,
				Files:       pkg.Files,
				Pkg:         pkg.Types,
				TypesInfo:   pkg.TypesInfo,
				AllPackages: all,
				Cache:       cache,
			}
			pass.Report = func(d analysis.Diagnostic) {
				findings = append(findings, Finding{
					Pos:      pkg.Fset.Position(d.Pos),
					Analyzer: a.Name,
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	return findings, nil
}
