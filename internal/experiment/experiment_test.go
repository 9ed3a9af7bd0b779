package experiment

import (
	"strings"
	"testing"

	"cloudmc/internal/core"
	"cloudmc/internal/sched"
	"cloudmc/internal/workload"
)

// tinyConfig runs a two-workload study fast enough for unit tests.
func tinyConfig() Config {
	return Config{
		MeasureCycles: 40_000,
		WarmupCycles:  10_000,
		Seed:          1,
		Workloads: []workload.Profile{
			workload.WebSearch(), // SCOW
			workload.TPCHQ6(),    // DSPW
		},
	}
}

func TestFigure01Structure(t *testing.T) {
	s := NewStudy(tinyConfig())
	tbl := s.Figure01()
	if tbl.ID != "Figure 1" {
		t.Fatalf("ID = %q", tbl.ID)
	}
	if len(tbl.Cols) != 5 {
		t.Fatalf("cols = %v", tbl.Cols)
	}
	if tbl.Cols[0] != "FR-FCFS" {
		t.Fatalf("first column = %q, want FR-FCFS", tbl.Cols[0])
	}
	// Rows: 2 workloads + 3 category averages.
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	// Normalization: the FR-FCFS column must be exactly 1 for
	// workload rows.
	for i := 0; i < 2; i++ {
		if tbl.Values[i][0] != 1 {
			t.Fatalf("row %d FR-FCFS = %f, want 1", i, tbl.Values[i][0])
		}
	}
}

func TestCategoryAveragesUseOnlyOwnWorkloads(t *testing.T) {
	s := NewStudy(tinyConfig())
	tbl := s.Figure02()
	ws, _ := tbl.Cell("WS", "FR-FCFS")
	avgSCO, _ := tbl.Cell("Avg_SCO", "FR-FCFS")
	if ws != avgSCO {
		t.Fatalf("Avg_SCO %f should equal the lone SCOW workload %f", avgSCO, ws)
	}
	q6, _ := tbl.Cell("TPCH-Q6", "FR-FCFS")
	avgDSP, _ := tbl.Cell("Avg_DSP", "FR-FCFS")
	if q6 != avgDSP {
		t.Fatalf("Avg_DSP %f should equal the lone DSPW workload %f", avgDSP, q6)
	}
	// TRS has no workloads in the tiny config: must be NaN (rendered
	// as "-"), not zero.
	avgTRS, ok := tbl.Cell("Avg_TRS", "FR-FCFS")
	if !ok {
		t.Fatal("Avg_TRS row missing")
	}
	if avgTRS == avgTRS { // NaN check
		t.Fatalf("Avg_TRS = %f, want NaN for an empty category", avgTRS)
	}
}

func TestStudyCachesRuns(t *testing.T) {
	s := NewStudy(tinyConfig())
	p := workload.WebSearch()
	a := s.Run(p, baselineKey(p.Acronym))
	b := s.Run(p, baselineKey(p.Acronym))
	if a.Retired != b.Retired || a.RowHits != b.RowHits {
		t.Fatal("cache returned different metrics")
	}
	if len(s.cache) != 1 {
		t.Fatalf("cache size = %d, want 1", len(s.cache))
	}
}

func TestFigure08SingleColumn(t *testing.T) {
	s := NewStudy(tinyConfig())
	tbl := s.Figure08()
	if len(tbl.Cols) != 1 {
		t.Fatalf("cols = %v", tbl.Cols)
	}
	v, ok := tbl.Cell("WS", "1-access %")
	if !ok || v <= 0 || v > 100 {
		t.Fatalf("WS single-access = %f", v)
	}
}

func TestTable4UsesMappingNames(t *testing.T) {
	s := NewStudy(tinyConfig())
	tbl := s.Table4()
	if tbl.Text == nil {
		t.Fatal("Table 4 must be textual")
	}
	for _, row := range tbl.Text {
		for _, cell := range row {
			if !strings.HasPrefix(cell, "Ro") {
				t.Fatalf("cell %q is not a mapping scheme", cell)
			}
		}
	}
}

// TestArtifactsMatchTheirTables builds every artifact on a very short
// study and checks that each list entry's ID is the ID of the table it
// builds, and that Artifact finds a listed ID and rejects an unknown
// one.
func TestArtifactsMatchTheirTables(t *testing.T) {
	cfg := tinyConfig()
	cfg.MeasureCycles, cfg.WarmupCycles = 2_000, 500
	s := NewStudy(cfg)
	all := s.All()
	if len(all) != 15 {
		t.Fatalf("All returned %d artifacts, want 15", len(all))
	}
	for i, tbl := range all {
		if artifacts[i].id != tbl.ID {
			t.Errorf("artifact %d is listed as %q but builds %q", i, artifacts[i].id, tbl.ID)
		}
	}
	if build, err := Artifact("Table 4"); err != nil || build(s).ID != "Table 4" {
		t.Errorf("Artifact(\"Table 4\") did not build Table 4 (err %v)", err)
	}
	if _, err := Artifact("Figure 99"); err == nil || !strings.Contains(err.Error(), "Figure 14") {
		t.Errorf("Artifact(\"Figure 99\") = %v, want an error listing the valid IDs", err)
	}
}

func TestRenderAndCSV(t *testing.T) {
	s := NewStudy(tinyConfig())
	tbl := s.Figure01()
	text := tbl.Render()
	if !strings.Contains(text, "Figure 1") || !strings.Contains(text, "FR-FCFS") {
		t.Fatalf("render missing headers:\n%s", text)
	}
	csv := tbl.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(tbl.Rows) {
		t.Fatalf("csv has %d lines, want %d", len(lines), 1+len(tbl.Rows))
	}
	if !strings.HasPrefix(lines[0], "workload,FR-FCFS") {
		t.Fatalf("csv header = %q", lines[0])
	}
	// NaN cells must render as empty in CSV and "-" in text.
	if !strings.Contains(text, "-") {
		t.Error("NaN cell not rendered as '-'")
	}
}

func TestCellLookup(t *testing.T) {
	tbl := &Table{
		Rows:   []string{"a", "b"},
		Cols:   []string{"x"},
		Values: [][]float64{{1}, {2}},
	}
	if v, ok := tbl.Cell("b", "x"); !ok || v != 2 {
		t.Fatalf("cell = (%f, %v)", v, ok)
	}
	if _, ok := tbl.Cell("c", "x"); ok {
		t.Fatal("missing row reported present")
	}
}

func TestQuickAndStandardConfigs(t *testing.T) {
	q, s := Quick(), Standard()
	if q.MeasureCycles >= s.MeasureCycles {
		t.Fatal("Quick must be smaller than Standard")
	}
	if len(q.workloads()) != 12 {
		t.Fatalf("default workload set = %d, want 12", len(q.workloads()))
	}
}

// TestScaleQuanta pins the study's compressed-quantum rule: ATLAS and
// QoS share a quantum of a tenth of the measured window, at least
// 10,000 cycles, with a starvation cap of an eighth of it; QoS keeps
// its default SLO.
func TestScaleQuanta(t *testing.T) {
	for _, tc := range []struct{ measure, quantum uint64 }{
		{1_000_000, 100_000},
		{400_000, 40_000},
		{50_000, 10_000},
	} {
		cfg := core.DefaultConfig(workload.DataServing())
		cfg.MeasureCycles = tc.measure
		ScaleQuanta(&cfg)
		a, q := cfg.SchedOpts.ATLAS, cfg.SchedOpts.QoS
		if a.QuantumCycles != tc.quantum || a.StarvationThreshold != tc.quantum/8 || a.ScanDepth != 2 || a.Alpha != 0.875 {
			t.Errorf("measure %d: ATLAS %+v, want quantum %d", tc.measure, a, tc.quantum)
		}
		if q.QuantumCycles != tc.quantum || q.StarvationThreshold != tc.quantum/8 || q.MaxSlowdownSLO != sched.DefaultQoSConfig().MaxSlowdownSLO {
			t.Errorf("measure %d: QoS %+v, want quantum %d", tc.measure, q, tc.quantum)
		}
	}
}
