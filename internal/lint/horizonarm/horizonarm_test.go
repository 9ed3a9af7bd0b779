package horizonarm_test

import (
	"testing"

	"cloudmc/internal/lint/analysistest"
	"cloudmc/internal/lint/horizonarm"
)

func TestMemctrlRules(t *testing.T) {
	analysistest.Run(t, analysistest.Fixture("memctrl"), horizonarm.Analyzer)
}
