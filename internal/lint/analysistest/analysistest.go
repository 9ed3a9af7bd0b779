// Package analysistest runs one analyzer over a fixture package and
// checks its diagnostics against `// want` comments, mirroring the
// x/tools package of the same name. A fixture file marks an expected
// diagnostic with a trailing comment on the offending line:
//
//	for k := range m { // want `range over map`
//
// The backquoted string is a regexp matched against the diagnostic
// message; several backquoted regexps on one line expect several
// diagnostics. Every reported diagnostic must match an expectation on
// its line and every expectation must be matched exactly once.
//
// Fixtures live under <analyzer>/testdata/src/<name>; the loader
// assigns them their real module path (cloudmc/internal/lint/...),
// which analysis.EffectivePath re-roots at cloudmc/internal/<name> so
// scope-restricted analyzers see the package they expect.
package analysistest

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"cloudmc/internal/lint/analysis"
	"cloudmc/internal/lint/loader"
)

// expectation is one `// want` entry.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// wantRE extracts backquoted regexps from a want comment.
var wantRE = regexp.MustCompile("`([^`]*)`")

// Run loads the fixture package rooted at dir and applies a, failing t
// on any mismatch between diagnostics and want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkgs, err := loader.Load(dir, ".")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	all := make([]*analysis.PackageInfo, len(pkgs))
	for i, pkg := range pkgs {
		all[i] = &analysis.PackageInfo{
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
	}
	cache := analysis.NewCache()
	for _, pkg := range pkgs {
		var wants []*expectation
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					ms := wantRE.FindAllStringSubmatch(text, -1)
					if len(ms) == 0 {
						t.Fatalf("%s: want comment without backquoted regexp", pos)
					}
					for _, m := range ms {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s: bad want regexp: %v", pos, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
					}
				}
			}
		}
		sort.SliceStable(wants, func(i, j int) bool {
			if wants[i].file != wants[j].file {
				return wants[i].file < wants[j].file
			}
			return wants[i].line < wants[j].line
		})

		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:    a,
			Fset:        pkg.Fset,
			Files:       pkg.Files,
			Pkg:         pkg.Types,
			TypesInfo:   pkg.TypesInfo,
			AllPackages: all,
			Cache:       cache,
			Report:      func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkg.PkgPath, err)
		}

		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if !claim(wants, pos.Filename, pos.Line, d.Message) {
				t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			}
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
			}
		}
	}
}

// claim consumes the first unmatched expectation on (file, line) whose
// pattern matches msg.
func claim(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if w.matched || w.file != file || w.line != line {
			continue
		}
		if w.pattern.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// Fixture returns the conventional fixture directory for a test:
// testdata/src/<name> under the analyzer package directory.
func Fixture(name string) string {
	return fmt.Sprintf("testdata/src/%s", name)
}
