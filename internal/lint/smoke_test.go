package lint_test

import (
	"strings"
	"testing"

	"cloudmc/internal/lint"
)

// TestBrokenFixtureFiresEveryAnalyzer runs the full suite over the
// deliberately-broken packages under testdata/broken and asserts every
// analyzer reports at least once. This is the same check CI's smoke
// step performs with the cmd/mclint binary; keeping it in go test makes
// a silently-dead analyzer fail locally too.
func TestBrokenFixtureFiresEveryAnalyzer(t *testing.T) {
	findings, err := lint.Run(".", "./testdata/broken/src/...")
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	fired := make(map[string]int)
	for _, f := range findings {
		fired[f.Analyzer]++
	}
	for _, a := range lint.Analyzers() {
		if fired[a.Name] == 0 {
			var got []string
			for _, f := range findings {
				got = append(got, f.String())
			}
			t.Errorf("analyzer %s reported nothing over the broken fixture; findings:\n%s",
				a.Name, strings.Join(got, "\n"))
		}
	}
}
