// Command mclint runs the repository's determinism- and
// lifetime-invariant analyzer suite (internal/lint: maprange,
// nodeterm, freelive, hotalloc) over the named package patterns and
// exits non-zero on any finding. freelive and hotalloc share one
// module-wide call graph (internal/lint/callgraph), built once per
// run.
//
// Usage:
//
//	go run ./cmd/mclint ./...
//	go run ./cmd/mclint ./internal/lint/testdata/broken/src/...
//
// Diagnostics print as file:line:col: message (analyzer). See the
// README section "Determinism lint" for the invariants and the
// justification directives (//mclint:order-insensitive,
// //mclint:owns, //mclint:alloc-ok, ...); every directive must carry
// a `-- <justification>` explaining why the exemption is sound.
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudmc/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mclint [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mclint:", err)
		os.Exit(2)
	}
	findings, err := lint.Run(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mclint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "mclint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
