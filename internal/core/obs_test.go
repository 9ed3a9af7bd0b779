package core

import (
	"io"
	"reflect"
	"testing"

	"cloudmc/internal/dram"
	"cloudmc/internal/obs"
	"cloudmc/internal/sched"
	"cloudmc/internal/tenant"
	"cloudmc/internal/workload"
)

// obsTestConfig compresses run budgets and scales the quantum-based
// schedulers the way the other equivalence suites do.
func obsTestConfig(cfg Config, k sched.Kind) Config {
	cfg.Scheduler = k
	cfg.WarmupCycles = 2_000
	cfg.MeasureCycles = 10_000
	cfg.WarmupInstrPerCore = 2_000
	cfg.SchedOpts.ATLAS = sched.ATLASConfig{
		QuantumCycles: 3_000, Alpha: 0.875,
		StarvationThreshold: 500, ScanDepth: 2,
	}
	cfg.SchedOpts.QoS = sched.QoSConfig{
		MaxSlowdownSLO:      2.0,
		QuantumCycles:       3_000,
		Alpha:               0.875,
		StarvationThreshold: 1_000,
		ScanDepth:           4,
		BaselineLatency:     70,
	}
	return cfg
}

// writeHeavyProfile is the bench suite's park-heavy "WH" profile:
// MapReduce skewed to a 60% store mix with store-dominated bursts.
func writeHeavyProfile() workload.Profile {
	p := workload.MapReduce()
	p.StoreFraction = 0.6
	p.BurstStoreFraction = 0.7
	p.Acronym = "WH"
	return p
}

// obsScenarios is the differential matrix: two solo profiles and a
// four-tenant mix, each crossed with FR-FCFS/ATLAS/QoS.
func obsScenarios() map[string]Config {
	mix := tenant.NewMix("",
		tenant.Spec{Profile: workload.DataServing(), Cores: 4},
		tenant.Spec{Profile: workload.WebSearch(), Cores: 4},
		tenant.Spec{Profile: workload.MapReduce(), Cores: 4},
		tenant.Spec{Profile: workload.MemoryHog(), Cores: 4},
	)
	return map[string]Config{
		"DS":  DefaultConfig(workload.DataServing()),
		"WH":  DefaultConfig(writeHeavyProfile()),
		"mix": DefaultMixConfig(mix),
	}
}

// TestObsDifferential is the tentpole invariant: a run with the full
// observability stack attached (interval recorder with live sinks plus
// command tracing) produces bit-identical Metrics to the same run with
// obs off, across schedulers and workloads.
func TestObsDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulations are slow")
	}
	for name, base := range obsScenarios() {
		for _, k := range []sched.Kind{sched.FRFCFS, sched.ATLAS, sched.QoS} {
			cfg := obsTestConfig(base, k)
			label := name + "/" + k.String()
			t.Run(label, func(t *testing.T) {
				run := func(withObs bool) Metrics {
					sys, err := NewSystem(cfg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if withObs {
						sys.AttachRecorder(obs.NewRecorder(label, 1_000,
							obs.NewJSONLSink(io.Discard), obs.NewCSVSink(io.Discard)))
						sys.AttachTrace(obs.NewTraceWriter(io.Discard, label))
					}
					return sys.Run()
				}
				off := run(false)
				on := run(true)
				if off.Retired == 0 {
					t.Fatalf("%s: degenerate run retired nothing", label)
				}
				if !reflect.DeepEqual(off, on) {
					t.Fatalf("%s: obs-on diverged from obs-off:\noff: %+v\non:  %+v", label, off, on)
				}
			})
		}
	}
}

// runWithRecorder executes cfg in one loop mode with a recorder
// attached and returns the recorded series plus the run Metrics.
func runWithRecorder(t *testing.T, cfg Config, ff bool, interval uint64) ([]obs.Sample, Metrics) {
	t.Helper()
	cfg.FastForward = ff
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder("align", interval)
	sys.AttachRecorder(rec)
	m := sys.Run()
	return rec.Samples(), m
}

// stripEngineTelemetry zeroes the loop-mode-dependent park/wake
// counters; everything else in a sample is architectural and must
// match bit-for-bit across modes.
func stripEngineTelemetry(samples []obs.Sample) []obs.Sample {
	for i := range samples {
		for j := range samples[i].Controllers {
			samples[i].Controllers[j].Parks = 0
			samples[i].Controllers[j].Wakes = 0
		}
	}
	return samples
}

// TestObsIntervalAlignment pins the satellite invariant: interval
// samples land on identical cycles with identical contents in both
// loop modes. The interval (3000) deliberately does not divide
// the measure window, so the final partial interval is exercised too.
func TestObsIntervalAlignment(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulations are slow")
	}
	cfg := obsTestConfig(DefaultConfig(workload.DataServing()), sched.FRFCFS)
	const interval = 3_000
	naive, mNaive := runWithRecorder(t, cfg, false, interval)
	kernel, mKernel := runWithRecorder(t, cfg, true, interval)
	if !reflect.DeepEqual(mNaive, mKernel) {
		t.Fatal("metrics diverged across modes with recorders attached")
	}
	// Measure window is 10_000 cycles from 2_000: boundaries at 5_000,
	// 8_000, 11_000 and a final partial sample at 12_000.
	wantCycles := []uint64{5_000, 8_000, 11_000, 12_000}
	if len(naive) != len(wantCycles) {
		t.Fatalf("naive recorded %d samples, want %d", len(naive), len(wantCycles))
	}
	for i, want := range wantCycles {
		if naive[i].Cycle != want {
			t.Fatalf("sample %d at cycle %d, want %d", i, naive[i].Cycle, want)
		}
		if naive[i].Phase != "measure" {
			t.Fatalf("sample %d phase %q", i, naive[i].Phase)
		}
	}
	if last := naive[len(naive)-1]; last.Cycles != 1_000 {
		t.Fatalf("final partial interval spans %d cycles, want 1000", last.Cycles)
	}
	naive = stripEngineTelemetry(naive)
	kernel = stripEngineTelemetry(kernel)
	if !reflect.DeepEqual(naive, kernel) {
		t.Fatalf("kernel samples diverged from naive:\nnaive: %+v\nkernel: %+v", naive, kernel)
	}
}

// TestObsWarmupResetMatchesAggregate proves the recorder's warmup
// reset zeroes interval state exactly like the aggregate Stats reset:
// the measure-phase interval deltas must sum to the run's Metrics.
func TestObsWarmupResetMatchesAggregate(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations are slow")
	}
	cfg := obsTestConfig(DefaultConfig(workload.DataServing()), sched.FRFCFS)
	samples, m := runWithRecorder(t, cfg, true, 2_500)
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	var retired, misses, reads, writes, hits uint64
	for _, s := range samples {
		if s.Phase != "measure" {
			t.Fatalf("warmup sample survived the reset: %+v", s)
		}
		retired += s.Retired
		misses += s.DemandMisses
		for _, c := range s.Controllers {
			reads += c.Reads
			writes += c.Writes
			hits += c.RowHits
		}
	}
	if retired != m.Retired {
		t.Fatalf("interval retired sum %d != aggregate %d", retired, m.Retired)
	}
	if misses != m.DemandMisses {
		t.Fatalf("interval miss sum %d != aggregate %d", misses, m.DemandMisses)
	}
	if reads != m.ReadsServed || writes != m.WritesServed || hits != m.RowHits {
		t.Fatalf("interval controller sums (r=%d w=%d h=%d) != aggregate (r=%d w=%d h=%d)",
			reads, writes, hits, m.ReadsServed, m.WritesServed, m.RowHits)
	}
}

// countingTrace tallies traced commands by kind.
type countingTrace struct {
	counts map[dram.CommandKind]uint64
}

func (c *countingTrace) Command(_ uint64, cmd dram.Command, _ int) {
	if c.counts == nil {
		c.counts = make(map[dram.CommandKind]uint64)
	}
	c.counts[cmd.Kind]++
}

// TestObsTraceCoversServedRequests sanity-checks the trace stream
// against run metrics: only ACT/PRE/RD/WR appear, and the column
// accesses traced over the whole run cover at least the measure
// window's served, non-forwarded requests.
func TestObsTraceCoversServedRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations are slow")
	}
	cfg := obsTestConfig(DefaultConfig(workload.DataServing()), sched.FRFCFS)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTrace{}
	sys.AttachTrace(tr)
	m := sys.Run()
	for kind := range tr.counts {
		switch kind {
		case dram.CmdActivate, dram.CmdPrecharge, dram.CmdRead, dram.CmdWrite:
		default:
			t.Fatalf("unexpected traced command kind %v", kind)
		}
	}
	cols := tr.counts[dram.CmdRead] + tr.counts[dram.CmdWrite]
	served := m.ReadsServed - m.ForwardedReads + m.WritesServed
	if cols < served {
		t.Fatalf("traced %d column accesses < %d served in the measure window", cols, served)
	}
	if tr.counts[dram.CmdActivate] == 0 {
		t.Fatal("no activates traced")
	}
}
