package core

import (
	"math/rand"
	"os"
	"reflect"
	"testing"

	"cloudmc/internal/sched"
	"cloudmc/internal/tenant"
	"cloudmc/internal/workload"
)

// runModes executes one Config under both execution modes — the naive
// per-cycle loop and the event kernel — and fails unless the Metrics
// and final clock agree bit-for-bit. The naive loop ticks every
// component every cycle, so agreement means the kernel observed
// exactly the same event ordering.
func runModes(t *testing.T, cfg Config, label string) Metrics {
	t.Helper()
	run := func(ff bool) (Metrics, uint64) {
		c := cfg
		c.FastForward = ff
		sys, err := NewSystem(c)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return sys.Run(), sys.cycle
	}
	naive, naiveCycle := run(false)
	kernel, kernelCycle := run(true)
	if naiveCycle != kernelCycle {
		t.Fatalf("%s: final clocks diverged: naive=%d kernel=%d", label, naiveCycle, kernelCycle)
	}
	if !reflect.DeepEqual(naive, kernel) {
		t.Fatalf("%s: event kernel diverged from naive loop:\nnaive: %+v\nkernel: %+v", label, naive, kernel)
	}
	return kernel
}

// randomProfile draws a valid profile from the whole parameter space
// the generator supports: any intensity, store mix, fractional CPI,
// MLP depth, burst shape, per-core imbalance, region sizing, core
// count (beyond the paper's 16) and optional DMA traffic.
func randomProfile(rng *rand.Rand) workload.Profile {
	cores := 2 + rng.Intn(23) // 2..24 — crosses the 16-core baseline
	intensity := []float64{1}
	if rng.Intn(2) == 0 {
		intensity = make([]float64, 1+rng.Intn(4))
		for i := range intensity {
			intensity[i] = 0.3 + 2.2*rng.Float64()
		}
	}
	memRefs := 100 + rng.Float64()*300
	p := workload.Profile{
		Name: "Random", Acronym: "RND", Category: workload.SCOW,
		Cores:               cores,
		MemRefsPerKiloInstr: memRefs,
		StoreFraction:       rng.Float64() * 0.5,
		BaseCPI:             1 + rng.Float64()*3,
		TargetMPKI:          1 + rng.Float64()*29,
		TargetRowHit:        0.05 + rng.Float64()*0.55,
		TargetSingleAccess:  0.6 + rng.Float64()*0.3,
		MLPLimit:            1 + rng.Intn(6),
		BurstGapInstr:       rng.Intn(49),
		BurstStoreFraction:  rng.Float64() * 0.6,
		CoreIntensity:       intensity,
		HotBytesPerCore:     uint64(16+rng.Intn(49)) << 10,
		StreamBytes:         uint64(64+rng.Intn(193)) << 20,
		ColdBytes:           uint64(512+rng.Intn(1537)) << 20,
	}
	if rng.Intn(3) == 0 {
		p.IO = workload.IOProfile{
			Enabled:            true,
			BurstsPerMCycle:    20 + rng.Float64()*80,
			ScalesWithChannels: rng.Intn(2) == 0,
			BurstBlocks:        1 + rng.Intn(32),
			WriteFraction:      rng.Float64(),
		}
	}
	return p
}

// TestKernelDifferential is the differential property test of the
// event kernel: random workloads (random traces by construction — the
// generators are seeded stochastic streams) stepped through the engine
// queue must produce identical event orderings and Metrics to the
// naive per-cycle loop, the ground truth.
func TestKernelDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulations are slow")
	}
	kinds := []sched.Kind{sched.FRFCFS, sched.ATLAS, sched.PARBS, sched.FCFSBanks}
	rng := rand.New(rand.NewSource(20260730))
	for trial := 0; trial < 10; trial++ {
		p := randomProfile(rng)
		cfg := DefaultConfig(p)
		cfg.Scheduler = kinds[rng.Intn(len(kinds))]
		cfg.Channels = 1 << rng.Intn(3)
		cfg.Seed = rng.Uint64() | 1
		cfg.WarmupCycles = 2_000
		cfg.MeasureCycles = 10_000
		cfg.WarmupInstrPerCore = 2_000
		cfg.SchedOpts.ATLAS = sched.ATLASConfig{
			QuantumCycles: 3_000, Alpha: 0.875,
			StarvationThreshold: 500, ScanDepth: 2,
		}
		label := p.Acronym + "/" + cfg.Scheduler.String()
		t.Run(label, func(t *testing.T) {
			m := runModes(t, cfg, label)
			if m.Retired == 0 {
				t.Fatalf("%s: degenerate trial retired nothing", label)
			}
		})
	}
}

// TestKernel64CoreEquivalence pins the regime the kernel was built
// for: a 64-core machine must still be bit-identical to the naive
// per-cycle loop.
func TestKernel64CoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulations are slow")
	}
	p := workload.DataServing()
	p.Cores = 64
	cfg := DefaultConfig(p)
	cfg.WarmupCycles = 2_000
	cfg.MeasureCycles = 15_000
	cfg.WarmupInstrPerCore = 2_000
	m := runModes(t, cfg, "DS-64c")
	if m.Retired == 0 {
		t.Fatal("64-core run retired nothing")
	}
}

// TestKernelMixEquivalence covers the colocation stack on the kernel:
// a four-tenant 32-core mix under the QoS scheduler with bank and way
// partitioning enabled, including per-tenant metrics.
func TestKernelMixEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulations are slow")
	}
	mix := tenant.NewMix("",
		tenant.Spec{Profile: workload.DataServing(), Cores: 8},
		tenant.Spec{Profile: workload.WebFrontend(), Cores: 8},
		tenant.Spec{Profile: workload.TPCHQ6(), Cores: 8},
		tenant.Spec{Profile: workload.MemoryHog(), Cores: 8},
	)
	cfg := DefaultMixConfig(mix)
	cfg.Scheduler = sched.QoS
	cfg.Isolation = Isolation{BankPartition: true, WayPartition: true}
	cfg.WarmupCycles = 2_000
	cfg.MeasureCycles = 15_000
	cfg.WarmupInstrPerCore = 2_000
	m := runModes(t, cfg, "mix-32c")
	if len(m.Tenants) != 4 {
		t.Fatalf("expected 4 tenant breakdowns, got %d", len(m.Tenants))
	}
}

// TestKernelChunkedAdvance checks that kernel-mode Advance composes:
// uneven chunk boundaries (which force settles and jump truncation)
// land on the same state as one call.
func TestKernelChunkedAdvance(t *testing.T) {
	cfg := DefaultConfig(workload.WebSearch())
	cfg.WarmupInstrPerCore = 1_000
	build := func() *System {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.FunctionalWarmup(1_000)
		return sys
	}
	a, b := build(), build()
	a.Advance(9_000)
	for _, n := range []uint64{1, 7, 2_492, 3_000, 3_500} {
		b.Advance(n)
	}
	am, bm := a.collect(9_000), b.collect(9_000)
	if !reflect.DeepEqual(am, bm) {
		t.Fatalf("chunked kernel Advance diverged:\none-shot: %+v\nchunked:  %+v", am, bm)
	}
}

// stepAndAudit single-steps a kernel-mode system and, every time a
// controller's park horizon moves (a park, a re-park, or a
// bank-granular re-arm from an enqueue), replays the parked window
// cycle by cycle against the raw DRAM legality rules: horizons must
// be exact — never late (a legal command inside the window would
// desynchronize the engines) and never early (a spurious wake would
// mask lateness bugs by brute force).
func stepAndAudit(t *testing.T, cfg Config, cycles uint64, label string) {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !sys.kernelOn() {
		t.Fatalf("%s: expected kernel mode", label)
	}
	sys.FunctionalWarmup(2_000)
	last := make([]uint64, len(sys.ctrls))
	audits := 0
	for i := uint64(0); i < cycles; i++ {
		sys.Step()
		now := sys.cycle - 1
		for ci, ctl := range sys.ctrls {
			w := ctl.ParkHorizon()
			if w == last[ci] {
				continue
			}
			last[ci] = w
			if err := ctl.VerifyParkHorizon(now, 4_096); err != nil {
				t.Fatalf("%s: mc%d at cycle %d: %v", label, ci, now, err)
			}
			audits++
		}
	}
	if audits == 0 {
		t.Fatalf("%s: no park horizons were ever established — audit exercised nothing", label)
	}
}

// TestParkHorizonExactness is the system-level property test of the
// per-bank wake-up horizons: randomized profiles (including >16-core
// configs and DMA agents) under FR-FCFS, ATLAS, PAR-BS and QoS, plus
// an isolated multi-tenant mix, all audited park by park.
func TestParkHorizonExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-stepped audits are slow")
	}
	kinds := []sched.Kind{sched.FRFCFS, sched.ATLAS, sched.PARBS, sched.QoS}
	rng := rand.New(rand.NewSource(20260731))
	for trial := 0; trial < 6; trial++ {
		p := randomProfile(rng)
		cfg := DefaultConfig(p)
		cfg.Scheduler = kinds[trial%len(kinds)]
		cfg.Channels = 1 << rng.Intn(2)
		cfg.Seed = rng.Uint64() | 1
		cfg.SchedOpts.ATLAS = sched.ATLASConfig{
			QuantumCycles: 3_000, Alpha: 0.875,
			StarvationThreshold: 500, ScanDepth: 2,
		}
		cfg.SchedOpts.QoS = sched.QoSConfig{
			MaxSlowdownSLO: 1.5, QuantumCycles: 5_000, Alpha: 0.875,
			StarvationThreshold: 1_000, ScanDepth: 4, BaselineLatency: 70,
		}
		label := p.Acronym + "/" + cfg.Scheduler.String()
		t.Run(label, func(t *testing.T) {
			stepAndAudit(t, cfg, 12_000, label)
		})
	}

	t.Run("isolated-mix-32c", func(t *testing.T) {
		mix := tenant.NewMix("",
			tenant.Spec{Profile: workload.DataServing(), Cores: 8},
			tenant.Spec{Profile: workload.TPCHQ6(), Cores: 8},
			tenant.Spec{Profile: workload.MemoryHog(), Cores: 16},
		)
		cfg := DefaultMixConfig(mix)
		cfg.Scheduler = sched.QoS
		cfg.Isolation = Isolation{BankPartition: true, WayPartition: true}
		cfg.SchedOpts.QoS = sched.QoSConfig{
			MaxSlowdownSLO: 1.5, QuantumCycles: 5_000, Alpha: 0.875,
			StarvationThreshold: 1_000, ScanDepth: 4, BaselineLatency: 70,
		}
		stepAndAudit(t, cfg, 12_000, "isolated-mix-32c")
	})
}

// TestKernelWriteHeavyEquivalence pins the park-heavy regime the
// per-bank horizons optimize: a write-dominated profile spends most
// of its time in drain shadows, where enqueues into parked
// controllers take the O(1) re-arm path. Both loop modes must stay
// bit-identical through it.
func TestKernelWriteHeavyEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulations are slow")
	}
	p := workload.MapReduce()
	p.StoreFraction = 0.6
	p.BurstStoreFraction = 0.7
	p.Acronym = "WH"
	cfg := DefaultConfig(p)
	cfg.WarmupCycles = 2_000
	cfg.MeasureCycles = 15_000
	cfg.WarmupInstrPerCore = 2_000
	m := runModes(t, cfg, "WH")
	if m.WritesServed == 0 {
		t.Fatal("write-heavy run served no writes")
	}
}

// nightly reports whether the long-form nightly suite is requested
// (the scheduled workflow sets MCSIM_NIGHTLY=1; too slow for per-PR
// CI).
func nightly() bool { return os.Getenv("MCSIM_NIGHTLY") != "" }

// TestNightlyKernelDifferential is the long-form differential suite:
// many randomized naive-vs-kernel trials at 4x the per-PR cycle
// counts, plus the 256-core, 8-channel machine.
func TestNightlyKernelDifferential(t *testing.T) {
	if !nightly() {
		t.Skip("set MCSIM_NIGHTLY=1 to run the long-form differential suite")
	}
	kinds := []sched.Kind{sched.FRFCFS, sched.ATLAS, sched.PARBS, sched.FCFSBanks, sched.RL}
	rng := rand.New(rand.NewSource(20260809))
	trials := 30
	if testing.Short() {
		// The nightly race soak reruns this suite under -race -short;
		// the detector is ~10x slower, so trade volume for coverage.
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		p := randomProfile(rng)
		cfg := DefaultConfig(p)
		cfg.Scheduler = kinds[rng.Intn(len(kinds))]
		cfg.Channels = 1 << rng.Intn(4) // up to 8 channels
		cfg.Seed = rng.Uint64() | 1
		cfg.WarmupCycles = 8_000
		cfg.MeasureCycles = 40_000
		cfg.WarmupInstrPerCore = 4_000
		cfg.SchedOpts.ATLAS = sched.ATLASConfig{
			QuantumCycles: 6_000, Alpha: 0.875,
			StarvationThreshold: 1_000, ScanDepth: 2,
		}
		label := p.Acronym + "/" + cfg.Scheduler.String()
		t.Run(label, func(t *testing.T) {
			if m := runModes(t, cfg, label); m.Retired == 0 {
				t.Fatalf("%s: degenerate trial retired nothing", label)
			}
		})
	}

	t.Run("DS-256c/ch8", func(t *testing.T) {
		cfg := DefaultConfig(workload.DataServing256())
		cfg.Channels = 8
		cfg.MSHRCap = 256
		cfg.WarmupCycles = 1_000
		cfg.MeasureCycles = 6_000
		cfg.WarmupInstrPerCore = 1_000
		if m := runModes(t, cfg, "DS-256c/ch8"); m.Retired == 0 {
			t.Fatal("256-core run retired nothing")
		}
	})
}

// TestNightlyParkHorizonAudit is the long-form VerifyParkHorizon
// audit: the same brute-force park-by-park replay as
// TestParkHorizonExactness, over more trials and 4x the audited
// window.
func TestNightlyParkHorizonAudit(t *testing.T) {
	if !nightly() {
		t.Skip("set MCSIM_NIGHTLY=1 to run the long-form park-horizon audits")
	}
	kinds := []sched.Kind{sched.FRFCFS, sched.ATLAS, sched.PARBS, sched.QoS, sched.FCFSBanks, sched.RL}
	rng := rand.New(rand.NewSource(20260810))
	for trial := 0; trial < 12; trial++ {
		p := randomProfile(rng)
		cfg := DefaultConfig(p)
		cfg.Scheduler = kinds[trial%len(kinds)]
		cfg.Channels = 1 << rng.Intn(3)
		cfg.Seed = rng.Uint64() | 1
		cfg.SchedOpts.ATLAS = sched.ATLASConfig{
			QuantumCycles: 3_000, Alpha: 0.875,
			StarvationThreshold: 500, ScanDepth: 2,
		}
		cfg.SchedOpts.QoS = sched.QoSConfig{
			MaxSlowdownSLO: 1.5, QuantumCycles: 5_000, Alpha: 0.875,
			StarvationThreshold: 1_000, ScanDepth: 4, BaselineLatency: 70,
		}
		label := p.Acronym + "/" + cfg.Scheduler.String()
		t.Run(label, func(t *testing.T) {
			stepAndAudit(t, cfg, 48_000, label)
		})
	}
}
