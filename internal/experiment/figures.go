package experiment

import (
	"fmt"
	"math"
	"strings"

	"cloudmc/internal/addrmap"
	"cloudmc/internal/core"
	"cloudmc/internal/sched"
	"cloudmc/internal/workload"
)

// schedColumns orders the scheduler series exactly as the paper's
// figures do.
var schedColumns = []sched.Kind{sched.FRFCFS, sched.FCFSBanks, sched.PARBS, sched.ATLAS, sched.RL}

// schedulerFigure builds one of Figures 1-7: metric extracted per
// (workload, scheduler), optionally normalized to the FR-FCFS value.
func (s *Study) schedulerFigure(id, title, note string, normalize bool, metric func(core.Metrics) float64) *Table {
	s.schedulerGrid()
	wls := s.cfg.workloads()
	vals := make([][]float64, len(wls))
	for i, p := range wls {
		base := metric(s.Run(p, baselineKey(p.Acronym)))
		row := make([]float64, len(schedColumns))
		for j, k := range schedColumns {
			key := baselineKey(p.Acronym)
			key.scheduler = k
			v := metric(s.Run(p, key))
			if normalize {
				if base == 0 {
					v = math.NaN()
				} else {
					v /= base
				}
			}
			row[j] = v
		}
		vals[i] = row
	}
	cols := make([]string, len(schedColumns))
	for j, k := range schedColumns {
		cols[j] = k.String()
	}
	return &Table{
		ID: id, Title: title, Note: note,
		Rows:   s.rowsWithAverages(),
		Cols:   cols,
		Values: s.fillAverages(vals, len(cols)),
	}
}

// Figure01 reproduces Figure 1: user IPC normalized to FR-FCFS.
// Paper: FR-FCFS wins overall; FCFS_Banks within 6%/3%/4% of it for
// SCO/TRS/DSP (within 1% for 5 of 6 SCOW, except Web Frontend -37%);
// ATLAS loses 20%/12%/10%; RL loses most on DSP (-10%).
func (s *Study) Figure01() *Table {
	return s.schedulerFigure("Figure 1", "User IPC by scheduling algorithm",
		"normalized to FR-FCFS; paper: FR-FCFS best, FCFS_Banks close except WF, ATLAS -20% SCO, RL -10% DSP",
		true, func(m core.Metrics) float64 { return m.UserIPC })
}

// Figure02 reproduces Figure 2: absolute row-buffer hit rate (%).
// Paper: ~37/33/27.5% averages under FR-FCFS; FCFS_Banks changes it by
// only -4/+1/-2 points; WF drops 55%->45% under FCFS_Banks.
func (s *Study) Figure02() *Table {
	return s.schedulerFigure("Figure 2", "Row-buffer hit rate (%)",
		"absolute percent; paper: FR-FCFS averages 37/33/27.5 for SCO/TRS/DSP",
		false, func(m core.Metrics) float64 { return 100 * m.RowHitRate })
}

// Figure03 reproduces Figure 3: average memory access latency
// normalized to FR-FCFS. Paper: ATLAS 2.94x average on SCO (7.78x on
// MapReduce); RL +37% on DSP; FCFS_Banks +15% on DSP.
func (s *Study) Figure03() *Table {
	return s.schedulerFigure("Figure 3", "Average memory access latency",
		"normalized to FR-FCFS; paper: ATLAS blows up SCO latency (2.94x avg, 7.78x MR)",
		true, func(m core.Metrics) float64 { return m.AvgReadLatency })
}

// Figure04 reproduces Figure 4: L2 misses per kilo instruction.
// Paper: SCO ~5, TRS ~8, DSP ~18 on average, roughly scheduler-
// independent.
func (s *Study) Figure04() *Table {
	return s.schedulerFigure("Figure 4", "L2 MPKI",
		"absolute; paper: ~5/8/18 for SCO/TRS/DSP, scheduler-insensitive",
		false, func(m core.Metrics) float64 { return m.MPKI })
}

// Figure05 reproduces Figure 5: average read queue length.
// Paper: always under 10 entries; DSP highest; MapReduce under ATLAS
// is the outlier.
func (s *Study) Figure05() *Table {
	return s.schedulerFigure("Figure 5", "Average read queue length",
		"absolute entries; paper: <10 for all workloads and schedulers",
		false, func(m core.Metrics) float64 { return m.AvgReadQ })
}

// Figure06 reproduces Figure 6: average write queue length.
// Paper: under 50 entries everywhere; RL runs the shortest write
// queues because it schedules writes opportunistically.
func (s *Study) Figure06() *Table {
	return s.schedulerFigure("Figure 6", "Average write queue length",
		"absolute entries; paper: <50 everywhere, RL noticeably lowest",
		false, func(m core.Metrics) float64 { return m.AvgWriteQ })
}

// Figure07 reproduces Figure 7: memory bandwidth utilization (%).
// Paper: SCO 14-50% (avg 34%), TRS similar, DSP avg 54%.
func (s *Study) Figure07() *Table {
	return s.schedulerFigure("Figure 7", "Memory bandwidth utilization (%)",
		"absolute percent of peak; paper: SCO avg 34, DSP avg 54",
		false, func(m core.Metrics) float64 { return 100 * m.BandwidthUtil })
}

// Figure08 reproduces Figure 8: the percentage of row activations that
// receive exactly one access before closure, under the baseline
// FR-FCFS + open-adaptive configuration. Paper: 77-90% across all
// workloads (76% for Media Streaming).
func (s *Study) Figure08() *Table {
	wls := s.cfg.workloads()
	var cells []studyCell
	for _, p := range wls {
		cells = append(cells, s.cell(p, baselineKey(p.Acronym)))
	}
	s.runAll(cells)
	vals := make([][]float64, len(wls))
	for i, p := range wls {
		m := s.Run(p, baselineKey(p.Acronym))
		vals[i] = []float64{100 * m.SingleAccessFrac}
	}
	return &Table{
		ID:     "Figure 8",
		Title:  "Single-access row-buffer activations under OAPM (%)",
		Note:   "paper: 77-90% for all workloads",
		Rows:   s.rowsWithAverages(),
		Cols:   []string{"1-access %"},
		Values: s.fillAverages(vals, 1),
	}
}

// pageFigure builds one of Figures 9-11.
func (s *Study) pageFigure(id, title, note string, metric func(core.Metrics) float64) *Table {
	s.pageGrid()
	wls := s.cfg.workloads()
	vals := make([][]float64, len(wls))
	for i, p := range wls {
		base := metric(s.Run(p, baselineKey(p.Acronym)))
		row := make([]float64, len(pagePolicies))
		for j, page := range pagePolicies {
			key := baselineKey(p.Acronym)
			key.page = page
			v := metric(s.Run(p, key))
			if base == 0 {
				row[j] = math.NaN()
			} else {
				row[j] = v / base
			}
		}
		vals[i] = row
	}
	return &Table{
		ID: id, Title: title, Note: note,
		Rows:   s.rowsWithAverages(),
		Cols:   append([]string(nil), pagePolicies...),
		Values: s.fillAverages(vals, len(pagePolicies)),
	}
}

// Figure09 reproduces Figure 9: row-buffer hit rate by page policy,
// normalized to open-adaptive. Paper: close-adaptive collapses hits
// (<6% absolute); RBPP preserves 70/75/86% for SCO/TRS/DSP; ABPP less.
func (s *Study) Figure09() *Table {
	return s.pageFigure("Figure 9", "Row-buffer hit rate by page policy",
		"normalized to OpenAdaptive; paper: CloseAdaptive collapses hits, RBPP preserves 70-86%",
		func(m core.Metrics) float64 { return m.RowHitRate })
}

// Figure10 reproduces Figure 10: average memory access latency by page
// policy, normalized to open-adaptive. Paper: CAPM -0/-4/-13% for
// SCO/TRS/DSP (WF/MS +15%); RBPP -6% on DSP.
func (s *Study) Figure10() *Table {
	return s.pageFigure("Figure 10", "Average memory access latency by page policy",
		"normalized to OpenAdaptive; paper: CloseAdaptive helps DSP (-13%) but hurts WF/MS (+15%)",
		func(m core.Metrics) float64 { return m.AvgReadLatency })
}

// Figure11 reproduces Figure 11: user IPC by page policy, normalized
// to open-adaptive. Paper: CAPM -2.5% SCO, +4% DSP (WF -20%); RBPP
// +3% DSP, -4% SCO.
func (s *Study) Figure11() *Table {
	return s.pageFigure("Figure 11", "User IPC by page policy",
		"normalized to OpenAdaptive; paper: CloseAdaptive +4% DSP but -20% on WF",
		func(m core.Metrics) float64 { return m.UserIPC })
}

// channelColumns labels Figures 12-14.
var channelColumns = []string{"1_channel", "2_channel", "4_channel"}

// bestMapping returns the best-IPC mapping for a workload at a channel
// count (the paper reports the best scheme per workload, Table 4).
func (s *Study) bestMapping(p workload.Profile, channels int) (addrmap.Scheme, core.Metrics) {
	best := addrmap.RoRaBaCoCh
	var bestM core.Metrics
	first := true
	for _, sc := range addrmap.Schemes {
		key := baselineKey(p.Acronym)
		key.channels = channels
		key.mapping = sc
		m := s.Run(p, key)
		if first || m.UserIPC > bestM.UserIPC {
			best, bestM, first = sc, m, false
		}
	}
	return best, bestM
}

// channelFigure builds one of Figures 12-14: the 1-channel baseline
// against the best mapping at 2 and 4 channels, normalized to
// 1-channel.
func (s *Study) channelFigure(id, title, note string, metric func(core.Metrics) float64) *Table {
	s.channelGrid()
	wls := s.cfg.workloads()
	vals := make([][]float64, len(wls))
	for i, p := range wls {
		base := metric(s.Run(p, baselineKey(p.Acronym)))
		row := make([]float64, 3)
		row[0] = 1
		for c, ch := range []int{2, 4} {
			_, m := s.bestMapping(p, ch)
			if base == 0 {
				row[c+1] = math.NaN()
			} else {
				row[c+1] = metric(m) / base
			}
		}
		vals[i] = row
	}
	return &Table{
		ID: id, Title: title, Note: note,
		Rows:   s.rowsWithAverages(),
		Cols:   channelColumns,
		Values: s.fillAverages(vals, len(channelColumns)),
	}
}

// Figure12 reproduces Figure 12: user IPC vs channel count. Paper:
// SCO gains <1%/1.7% (WF loses ~10%), TRS +2.3%/6%, DSP +11.5%/19%.
func (s *Study) Figure12() *Table {
	return s.channelFigure("Figure 12", "User IPC vs memory channels",
		"normalized to 1 channel, best mapping per workload; paper: SCO flat, DSP +19% at 4ch",
		func(m core.Metrics) float64 { return m.UserIPC })
}

// Figure13 reproduces Figure 13: row-buffer hit rate vs channel count.
// Paper: SCO/TRS x1.3/x1.6, DSP x1.7/x2.3.
func (s *Study) Figure13() *Table {
	return s.channelFigure("Figure 13", "Row-buffer hit rate vs memory channels",
		"normalized to 1 channel; paper: DSP hit rate x1.7/x2.3 at 2/4 channels",
		func(m core.Metrics) float64 { return m.RowHitRate })
}

// Figure14 reproduces Figure 14: memory access latency vs channel
// count. Paper: SCO falls to 81%/70% of baseline, DSP to 64%/47%.
func (s *Study) Figure14() *Table {
	return s.channelFigure("Figure 14", "Memory access latency vs memory channels",
		"normalized to 1 channel; paper: DSP latency falls to 64%/47% at 2/4 channels",
		func(m core.Metrics) float64 { return m.AvgReadLatency })
}

// Table4 reproduces Table 4: the best-performing mapping scheme per
// workload at 2 and 4 channels. The paper notes RoRaBaCoCh (the
// baseline) is generally worst; specific winners are near-ties.
func (s *Study) Table4() *Table {
	s.channelGrid()
	wls := s.cfg.workloads()
	rows := make([]string, len(wls))
	text := make([][]string, len(wls))
	for i, p := range wls {
		rows[i] = p.Acronym
		sc2, _ := s.bestMapping(p, 2)
		sc4, _ := s.bestMapping(p, 4)
		text[i] = []string{sc2.String(), sc4.String()}
	}
	return &Table{
		ID:    "Table 4",
		Title: "Best multi-channel mapping scheme per workload",
		Note:  "paper: winners are workload-specific near-ties; block-interleaved RoRaBaCoCh generally worst",
		Rows:  rows,
		Cols:  []string{"2-channel", "4-channel"},
		Text:  text,
	}
}

// artifact is one figure or table of the paper's evaluation: its ID
// and the Study method that builds it.
type artifact struct {
	id    string
	build func(*Study) *Table
}

// artifacts lists every figure and table in paper order.
var artifacts = []artifact{
	{"Figure 1", (*Study).Figure01}, {"Figure 2", (*Study).Figure02},
	{"Figure 3", (*Study).Figure03}, {"Figure 4", (*Study).Figure04},
	{"Figure 5", (*Study).Figure05}, {"Figure 6", (*Study).Figure06},
	{"Figure 7", (*Study).Figure07}, {"Figure 8", (*Study).Figure08},
	{"Figure 9", (*Study).Figure09}, {"Figure 10", (*Study).Figure10},
	{"Figure 11", (*Study).Figure11}, {"Figure 12", (*Study).Figure12},
	{"Figure 13", (*Study).Figure13}, {"Figure 14", (*Study).Figure14},
	{"Table 4", (*Study).Table4},
}

// All renders every figure and table in paper order.
func (s *Study) All() []*Table {
	tables := make([]*Table, len(artifacts))
	for i, a := range artifacts {
		tables[i] = a.build(s)
	}
	return tables
}

// Artifact returns the Study method that builds the figure or table
// with the given ID ("Figure 1", ..., "Table 4"), so a caller can
// reject an unknown ID before simulating anything and then render
// only that artifact.
func Artifact(id string) (func(*Study) *Table, error) {
	valid := make([]string, len(artifacts))
	for i, a := range artifacts {
		if a.id == id {
			return a.build, nil
		}
		valid[i] = a.id
	}
	return nil, fmt.Errorf("experiment: unknown artifact %q (valid: %s)", id, strings.Join(valid, ", "))
}
