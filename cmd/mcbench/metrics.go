package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// metrics; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off, in host time. Each bound is about three times the
// metric's largest spread over ten seeds on the reference host, a
// shared VM whose speed drifts by 10-15% over minutes; setup_s, the
// shortest timing, gets the widest bound, shared with the tail
// percentile.
var endToEnd = []metricDef{
	{"sim_cycles_per_s", "cycles/s", "higher", 0.20},
	{"ns_per_cycle_p50", "ns", "lower", 0.20},
	{"ns_per_cycle_p95", "ns", "lower", 0.25},
	{"cpu_ns_per_cycle", "ns", "lower", 0.20},
	{"wall_s", "s", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.10},
	{"alloc_bytes_per_kcycle", "B", "lower", 0.10},
}

// profileLayers are the buckets the traced pass folds CPU samples into:
// the simulator's packages, the Go runtime split into memory management
// and the rest, and everything else.
var profileLayers = []string{
	"core", "engine", "workload", "cpu", "cache", "addrmap", "dram",
	"memctrl", "sched", "pagepolicy", "stats", "obs",
	"runtime.gc", "runtime.other", "other",
}

// nsLayers are the profile buckets that also report
// self_ns_per_cycle: the ones every workload spends measurable time in.
// addrmap, sched (under FR-FCFS), pagepolicy, obs and other can get no
// sample at all, so they report only a share.
var nsLayers = []string{
	"core", "engine", "workload", "cpu", "cache", "dram",
	"memctrl", "stats", "runtime.gc", "runtime.other",
}

// callMetrics time batches of calls into each layer's exported
// functions, driven by the benchmark itself on the workload's inputs.
var callMetrics = []metricDef{
	{"workload.next_ns", "ns", "lower", 0},
	{"cache.l1_access_ns", "ns", "lower", 0},
	{"cache.l2_access_ns", "ns", "lower", 0},
	{"addrmap.decode_ns", "ns", "lower", 0},
	{"dram.issue_ns", "ns", "lower", 0},
	{"memctrl.tick_ns", "ns", "lower", 0},
	{"memctrl.enqueue_ns", "ns", "lower", 0},
	{"memctrl.replay_rejects", "count", "lower", 0},
	{"engine.ff_speedup", "ratio", "higher", 0},
	{"trace_overhead_frac", "ratio", "lower", 0},
}

// counterMetrics are simulated statistics of the measure window. They
// are exact: a change that only speeds the simulator up leaves every
// one of them unchanged.
var counterMetrics = []metricDef{
	{"cpu.ipc", "instr/cycle", "higher", 0},
	{"cpu.stall_load_frac", "ratio", "lower", 0},
	{"cpu.stall_store_frac", "ratio", "lower", 0},
	{"cache.l2_mpki", "misses/kinstr", "lower", 0},
	{"core.mshr_mean", "entries", "lower", 0},
	{"memctrl.read_latency_mean", "cycles", "lower", 0},
	{"memctrl.read_latency_p99", "cycles", "lower", 0},
	{"memctrl.read_q_mean", "entries", "lower", 0},
	{"memctrl.write_q_mean", "entries", "lower", 0},
	{"memctrl.parks_per_kcycle", "1/kcycle", "lower", 0},
	{"memctrl.wakes_per_kcycle", "1/kcycle", "lower", 0},
	{"memctrl.enqueue_failures_per_kcycle", "1/kcycle", "lower", 0},
	{"memctrl.forwarded_frac", "ratio", "higher", 0},
	{"pagepolicy.policy_close_frac", "ratio", "lower", 0},
	{"dram.row_hit_rate", "ratio", "higher", 0},
	{"dram.single_access_frac", "ratio", "lower", 0},
	{"dram.bw_util", "ratio", "higher", 0},
	{"dram.activates_per_kcycle", "1/kcycle", "lower", 0},
}

// perLayer lists every per-layer metric in report order: the profile
// fold, the per-call probes, then the simulated counters.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range profileLayers {
		out = append(out, metricDef{name: l + ".self_frac", unit: "ratio", better: "lower"})
	}
	for _, l := range nsLayers {
		out = append(out, metricDef{name: l + ".self_ns_per_cycle", unit: "ns", better: "lower"})
	}
	out = append(out, callMetrics...)
	return append(out, counterMetrics...)
}()

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printMetrics writes one "<workload> <metric> <value> <unit>" line per
// defined metric that vals holds, in definition order.
func printMetrics(w io.Writer, workload string, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		if v, ok := vals[d.name]; ok {
			fmt.Fprintf(w, "%s %s %s %s\n", workload, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		}
	}
}

// quantile returns the nearest-rank q-quantile of vs (which it sorts).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	return vs[min(max(i, 0), len(vs)-1)]
}
