package main

import (
	"math"

	"cloudmc/internal/core"
	"cloudmc/internal/sched"
	"cloudmc/internal/tenant"
	"cloudmc/internal/workload"
)

// chunks is the number of equal Advance chunks the measure window is
// timed in; ns_per_cycle_p50/p95 are percentiles over them.
const chunks = 200

// workloadDef is one simulated system the benchmark times. Each puts
// most host time in a different simulator layer (see README.md), so a
// change to one layer moves one workload and leaves the others alone.
type workloadDef struct {
	name string
	why  string
	// cyclesPerSecond sizes the measure windows: with -seconds S the
	// reps timed jobs together measure cyclesPerSecond*S cycles. The
	// rates are 0.8x the measured speed on the reference host (2-CPU
	// x86-64, Go 1.24), so measuring takes about 0.8*S seconds there and
	// set-up, warmup and checks fit in the rest.
	cyclesPerSecond float64
	// warmupDiv sets the timed warmup to measure/warmupDiv cycles.
	warmupDiv uint64
	// checkWarmup and checkMeasure size the fixed window of the output
	// checks (golden fingerprint, naive-loop cross-check, DRAM replay);
	// they do not scale with -seconds, so the golden file stays valid.
	checkWarmup, checkMeasure uint64
	// build returns the system before the seed and the window are set.
	build func() core.Config
}

// workloads are the benchmark's four traffic regimes, in run order.
var workloads = []workloadDef{
	{
		name:            "ds16-baseline",
		why:             "the paper's Table 2 system on Data Serving; front-end bound (workload, core, cache, cpu), so controller changes should barely move it",
		cyclesPerSecond: 2_400_000,
		warmupDiv:       30,
		checkWarmup:     20_000,
		checkMeasure:    200_000,
		build:           func() core.Config { return core.DefaultConfig(workload.DataServing()) },
	},
	{
		name:            "ds256-8ch-deepq",
		why:             "256 cores on 8 channels with 256-deep queues; controller bound (memctrl option build), allocation heavy, largest set-up",
		cyclesPerSecond: 130_000,
		warmupDiv:       10,
		checkWarmup:     4_000,
		checkMeasure:    40_000,
		build: func() core.Config {
			cfg := core.DefaultConfig(workload.DataServing256())
			cfg.Channels = 8
			cfg.MSHRCap = 1024
			cfg.MC.ReadQueueCap = 256
			cfg.MC.WriteQueueCap = 256
			return cfg
		},
	},
	{
		name:            "mr16-writeheavy",
		why:             "MapReduce with 60% stores; exercises the controller's write drain and park/re-arm path beside the front end",
		cyclesPerSecond: 1_850_000,
		warmupDiv:       25,
		checkWarmup:     20_000,
		checkMeasure:    200_000,
		build: func() core.Config {
			p := workload.MapReduce()
			p.StoreFraction = 0.6
			p.BurstStoreFraction = 0.7
			return core.DefaultConfig(p)
		},
	},
	{
		name:            "mix-ds-hog-atlas",
		why:             "Data Serving colocated with a bank-conflict memory hog under ATLAS on 2 channels; scheduler bound, with tenant accounting",
		cyclesPerSecond: 420_000,
		warmupDiv:       10,
		checkWarmup:     20_000,
		checkMeasure:    200_000,
		build: func() core.Config {
			cfg := core.DefaultMixConfig(tenant.Pair(workload.DataServing(), workload.MemoryHog(), 8))
			cfg.Scheduler = sched.ATLAS
			cfg.Channels = 2
			return cfg
		},
	},
}

// workloadByName returns the named workload.
func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// measureCycles returns one timed job's measure window for a run of the
// given length: a positive whole number of chunks.
func (w workloadDef) measureCycles(seconds float64) uint64 {
	n := math.Round(w.cyclesPerSecond * seconds / reps / chunks)
	if n < 1 {
		n = 1
	}
	return uint64(n) * chunks
}

// config returns the workload's system for a seed and a window. ATLAS
// gets the experiment Study's compressed quantum (a tenth of the
// measure window), so its quanta roll over inside every window.
func (w workloadDef) config(seed, warmup, measure uint64) core.Config {
	cfg := w.build()
	cfg.Seed = seed
	cfg.WarmupCycles = warmup
	cfg.MeasureCycles = measure
	if cfg.Scheduler == sched.ATLAS {
		quantum := max(measure/10, 10_000)
		cfg.SchedOpts.ATLAS = sched.ATLASConfig{
			QuantumCycles:       quantum,
			Alpha:               0.875,
			StarvationThreshold: quantum / 8,
			ScanDepth:           2,
		}
	}
	return cfg
}

// runConfig returns the system of a timed job for a seed and a run
// length.
func (w workloadDef) runConfig(seed uint64, seconds float64) core.Config {
	m := w.measureCycles(seconds)
	return w.config(seed, m/w.warmupDiv, m)
}

// checkConfig returns the fixed-size system the output checks run.
func (w workloadDef) checkConfig(seed uint64) core.Config {
	return w.config(seed, w.checkWarmup, w.checkMeasure)
}
