// Package obs is the simulator's observability subsystem: an interval
// recorder that turns cumulative controller/core counters into a
// per-interval time series (IPC, windowed read-latency quantiles, row
// hit/miss/conflict, queue depths, MSHR occupancy, park/wake counts,
// bandwidth utilization), with pluggable sinks (JSONL and CSV) and a
// command-level trace writer for the memctrl CommandTrace hook.
//
// Design rules:
//
//   - Zero overhead when off. Nothing in this package is touched
//     unless a Recorder or trace is attached; core.System pays one
//     nil-check per Advance call and memctrl one nil-check per issued
//     command.
//   - Observation never mutates behavior. Snapshots copy counters;
//     samples are pure deltas. A run with obs on is bit-identical (in
//     core.Metrics) to the same run with obs off — enforced by a
//     differential test in internal/core.
//   - Deterministic. No wall clock, no maps iterated in emit paths;
//     everything is keyed to the simulated cycle. Wall-clock concerns
//     (sims/sec, HTTP status) live in cmd/internal/monitor.
//   - Stable output. Interval snapshots are taken between stepped
//     cycles and counters are merged in ascending channel order, and a
//     simulation ticks its controllers one at a time, so Recorder
//     output (JSONL and CSV) and traces are byte-identical from run to
//     run. Concurrency exists only across simulations (parallel study
//     cells), which share sinks and files but never a System.
package obs

import (
	"cloudmc/internal/stats"
)

// Snapshot is a copy of the simulator's cumulative counters at one
// cycle. core.System builds one per interval boundary; the Recorder
// differences consecutive snapshots into Samples.
type Snapshot struct {
	// Cycle is the simulated cycle the snapshot was taken at.
	Cycle uint64
	// Retired is instructions retired summed over all cores.
	Retired uint64
	// DemandMisses counts demand L2 misses (MSHR allocations).
	DemandMisses uint64
	// StallLoad/StallStore are memory-stall cycles summed over cores.
	StallLoad  uint64
	StallStore uint64
	// MSHROccupancy is the instantaneous number of in-flight misses.
	MSHROccupancy int
	// Controllers holds one entry per memory channel.
	Controllers []CtrlCounters
	// Tenants holds one entry per tenant for multi-tenant systems;
	// nil otherwise.
	Tenants []TenantCounters
}

// CtrlCounters is one controller's cumulative counters plus the
// instantaneous queue depths at the snapshot cycle.
type CtrlCounters struct {
	Channel         int
	ReadsServed     uint64
	WritesServed    uint64
	RowHits         uint64
	RowMisses       uint64
	RowConflicts    uint64
	ForwardedReads  uint64
	EnqueueFailures uint64
	Parks           uint64
	Wakes           uint64
	Activates       uint64
	Precharges      uint64
	DataBusBusy     uint64
	ReadQLen        int
	WriteQLen       int
	// ReadLatency is a copy of the controller's cumulative latency
	// histogram; windowed quantiles come from LatencyHist.Sub.
	ReadLatency stats.LatencyHist
}

// TenantCounters is one tenant's cumulative counters.
type TenantCounters struct {
	Name           string
	Cores          int
	Retired        uint64
	DemandMisses   uint64
	ReadsServed    uint64
	WritesServed   uint64
	RowHits        uint64
	RowMisses      uint64
	RowConflicts   uint64
	ReadLatencySum uint64
}

// Sample is one recorded interval: the delta between two snapshots
// plus derived rates. It is the JSONL schema (one object per line)
// that .github/validate_obs.py checks in CI.
type Sample struct {
	// Run labels the simulation this sample belongs to (workload
	// acronym for mcsim, the study-cell key for mcmix).
	Run string `json:"run,omitempty"`
	// Phase is "warmup" or "measure"; the recorder re-anchors at the
	// warmup-boundary stats reset exactly like aggregate Stats.
	Phase string `json:"phase"`
	// Interval is the 0-based interval index within the phase.
	Interval int `json:"interval"`
	// Cycle is the interval's end cycle; Cycles its length (the final
	// interval of a run may be shorter than the configured period).
	Cycle  uint64 `json:"cycle"`
	Cycles uint64 `json:"cycles"`

	Retired      uint64  `json:"retired"`
	IPC          float64 `json:"ipc"`
	DemandMisses uint64  `json:"demand_misses"`
	StallLoad    uint64  `json:"stall_load"`
	StallStore   uint64  `json:"stall_store"`
	MSHR         int     `json:"mshr"`

	Controllers []CtrlSample   `json:"controllers"`
	Tenants     []TenantSample `json:"tenants,omitempty"`
}

// CtrlSample is one controller's interval delta.
type CtrlSample struct {
	Channel         int     `json:"channel"`
	Reads           uint64  `json:"reads"`
	Writes          uint64  `json:"writes"`
	RowHits         uint64  `json:"row_hits"`
	RowMisses       uint64  `json:"row_misses"`
	RowConflicts    uint64  `json:"row_conflicts"`
	RowHitRate      float64 `json:"row_hit_rate"`
	Forwarded       uint64  `json:"forwarded"`
	EnqueueFailures uint64  `json:"enqueue_failures"`
	ReadQLen        int     `json:"read_q"`
	WriteQLen       int     `json:"write_q"`
	LatMean         float64 `json:"lat_mean"`
	LatP50          uint64  `json:"lat_p50"`
	LatP95          uint64  `json:"lat_p95"`
	LatP99          uint64  `json:"lat_p99"`
	Activates       uint64  `json:"activates"`
	Precharges      uint64  `json:"precharges"`
	// BWUtil is data-bus-busy cycles / interval cycles (Figure 7's
	// utilization, time-resolved).
	BWUtil float64 `json:"bw_util"`
	// Parks/Wakes are engine telemetry: they depend on the loop mode
	// (always zero in naive mode) and are excluded from the
	// cross-mode alignment equivalence.
	Parks uint64 `json:"parks"`
	Wakes uint64 `json:"wakes"`
}

// TenantSample is one tenant's interval delta.
type TenantSample struct {
	Tenant       int     `json:"tenant"`
	Name         string  `json:"name"`
	Retired      uint64  `json:"retired"`
	IPC          float64 `json:"ipc"`
	DemandMisses uint64  `json:"demand_misses"`
	Reads        uint64  `json:"reads"`
	Writes       uint64  `json:"writes"`
	RowHitRate   float64 `json:"row_hit_rate"`
	// AvgReadLatency is the mean queue+service latency of the
	// tenant's reads completed in the interval, in cycles.
	AvgReadLatency float64 `json:"avg_read_latency"`
}

// delta differences two snapshots into a Sample. prev must be an
// earlier snapshot of the same system (same controller and tenant
// counts).
func delta(run, phase string, interval int, prev, cur *Snapshot) Sample {
	cycles := cur.Cycle - prev.Cycle
	s := Sample{
		Run:          run,
		Phase:        phase,
		Interval:     interval,
		Cycle:        cur.Cycle,
		Cycles:       cycles,
		Retired:      cur.Retired - prev.Retired,
		DemandMisses: cur.DemandMisses - prev.DemandMisses,
		StallLoad:    cur.StallLoad - prev.StallLoad,
		StallStore:   cur.StallStore - prev.StallStore,
		MSHR:         cur.MSHROccupancy,
	}
	if cycles > 0 {
		s.IPC = float64(s.Retired) / float64(cycles)
	}
	s.Controllers = make([]CtrlSample, len(cur.Controllers))
	for i := range cur.Controllers {
		c, p := &cur.Controllers[i], &prev.Controllers[i]
		lat := c.ReadLatency.Sub(p.ReadLatency)
		cs := CtrlSample{
			Channel:         c.Channel,
			Reads:           c.ReadsServed - p.ReadsServed,
			Writes:          c.WritesServed - p.WritesServed,
			RowHits:         c.RowHits - p.RowHits,
			RowMisses:       c.RowMisses - p.RowMisses,
			RowConflicts:    c.RowConflicts - p.RowConflicts,
			Forwarded:       c.ForwardedReads - p.ForwardedReads,
			EnqueueFailures: c.EnqueueFailures - p.EnqueueFailures,
			ReadQLen:        c.ReadQLen,
			WriteQLen:       c.WriteQLen,
			LatMean:         lat.Mean(),
			LatP50:          lat.Quantile(0.50),
			LatP95:          lat.Quantile(0.95),
			LatP99:          lat.Quantile(0.99),
			Activates:       c.Activates - p.Activates,
			Precharges:      c.Precharges - p.Precharges,
			Parks:           c.Parks - p.Parks,
			Wakes:           c.Wakes - p.Wakes,
		}
		if total := cs.RowHits + cs.RowMisses + cs.RowConflicts; total > 0 {
			cs.RowHitRate = float64(cs.RowHits) / float64(total)
		}
		if cycles > 0 {
			cs.BWUtil = float64(c.DataBusBusy-p.DataBusBusy) / float64(cycles)
		}
		s.Controllers[i] = cs
	}
	if len(cur.Tenants) > 0 {
		s.Tenants = make([]TenantSample, len(cur.Tenants))
		for i := range cur.Tenants {
			c, p := &cur.Tenants[i], &prev.Tenants[i]
			ts := TenantSample{
				Tenant:       i,
				Name:         c.Name,
				Retired:      c.Retired - p.Retired,
				DemandMisses: c.DemandMisses - p.DemandMisses,
				Reads:        c.ReadsServed - p.ReadsServed,
				Writes:       c.WritesServed - p.WritesServed,
			}
			if cycles > 0 && c.Cores > 0 {
				ts.IPC = float64(ts.Retired) / float64(cycles) / float64(c.Cores)
			}
			hits := c.RowHits - p.RowHits
			total := hits + (c.RowMisses - p.RowMisses) + (c.RowConflicts - p.RowConflicts)
			if total > 0 {
				ts.RowHitRate = float64(hits) / float64(total)
			}
			if ts.Reads > 0 {
				ts.AvgReadLatency = float64(c.ReadLatencySum-p.ReadLatencySum) / float64(ts.Reads)
			}
			s.Tenants[i] = ts
		}
	}
	return s
}
