// Package nodeterm forbids ambient nondeterminism sources in
// simulation packages: wall-clock reads (time.Now, time.Since), the
// globally seeded math/rand convenience functions (rand.Int, Intn,
// Float64, Shuffle, ...; math/rand/v2 top-level equivalents), and
// environment lookups (os.Getenv, os.LookupEnv, os.Environ). A
// simulation result must be a pure function of its Config and seeds —
// these APIs smuggle host state into the run, which breaks the
// bit-identical equivalence suites and makes checkpoint/resume
// unreplayable.
//
// Explicitly constructed, explicitly seeded generators
// (rand.New(rand.NewSource(seed))) remain legal: the ban covers only
// the package-level functions backed by the shared global source.
// cmd/ binaries are outside the analyzer's scope — wall-clock
// reporting in a CLI is legitimate — as are test files, which are
// never loaded.
package nodeterm

import (
	"go/ast"
	"go/types"
	"strings"

	"cloudmc/internal/lint/analysis"
)

// Analyzer is the nodeterm ambient-nondeterminism check.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterm",
	Doc: "forbids time.Now/time.Since, global math/rand functions, and os environment " +
		"lookups in simulation packages (cloudmc/internal/...)",
	Run: run,
}

// banned maps package path -> banned package-level function names.
// For the math/rand packages the allowed complement is the explicit
// constructors (New, NewSource, NewZipf, NewPCG, NewChaCha8); methods
// on *rand.Rand are always fine and never match a package-level
// object.
var banned = map[string]map[string]bool{
	"time": {"Now": true, "Since": true, "Until": true},
	"os":   {"Getenv": true, "LookupEnv": true, "Environ": true},
	"math/rand": set("Seed", "Int", "Intn", "Int31", "Int31n", "Int63", "Int63n",
		"Uint32", "Uint64", "Float32", "Float64", "ExpFloat64", "NormFloat64",
		"Perm", "Shuffle", "Read"),
	"math/rand/v2": set("Int", "IntN", "Int32", "Int32N", "Int64", "Int64N",
		"Uint", "UintN", "Uint32", "Uint32N", "Uint64", "Uint64N",
		"Float32", "Float64", "ExpFloat64", "NormFloat64", "Perm", "Shuffle", "N"),
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.EffectivePath(), "cloudmc/internal/") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // method, not a package-level function
			}
			names, ok := banned[fn.Pkg().Path()]
			if !ok || !names[fn.Name()] {
				return true
			}
			pass.Reportf(sel.Pos(), "%s.%s injects ambient nondeterminism into a simulation package; "+
				"derive the value from Config, seeds, or the simulated clock", fn.Pkg().Path(), fn.Name())
			return true
		})
	}
	return nil
}
