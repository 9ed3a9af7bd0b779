package core

import (
	"reflect"
	"testing"

	"cloudmc/internal/sched"
	"cloudmc/internal/tenant"
	"cloudmc/internal/workload"
)

// mixConfig builds a small colocation run; the scale mirrors
// equivalenceConfig so paired ff on/off runs stay fast.
func mixConfig(m tenant.Mix, k sched.Kind, ff bool) Config {
	cfg := DefaultMixConfig(m)
	cfg.Scheduler = k
	cfg.WarmupCycles = 10_000
	cfg.MeasureCycles = 50_000
	cfg.WarmupInstrPerCore = 5_000
	cfg.FastForward = ff
	cfg.SchedOpts.ATLAS = sched.ATLASConfig{
		QuantumCycles:       7_000,
		Alpha:               0.875,
		StarvationThreshold: 1_000,
		ScanDepth:           2,
	}
	return cfg
}

func runMix(t *testing.T, m tenant.Mix, k sched.Kind, ff bool) Metrics {
	t.Helper()
	sys, err := NewSystem(mixConfig(m, k, ff))
	if err != nil {
		t.Fatal(err)
	}
	return sys.Run()
}

// TestMixedTenantFastForwardEquivalence extends the equivalence suite
// to colocation runs: the event-horizon engine must stay bit-identical
// to the naive loop when several tenants — including two independent
// DMA agents whose idle windows interleave — share the machine.
func TestMixedTenantFastForwardEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulations are slow")
	}
	mixes := []tenant.Mix{
		tenant.Pair(workload.DataServing(), workload.MemoryHog(), 8),
		// Two IO-carrying tenants: each agent's planned block is its
		// own wake-up, so one agent's burst cuts a jump the other
		// agent's gap would allow.
		tenant.Pair(workload.WebFrontend(), workload.MediaStreaming(), 8),
		tenant.NewMix("",
			tenant.Spec{Profile: workload.WebSearch(), Cores: 4},
			tenant.Spec{Profile: workload.TPCHQ6(), Cores: 4},
			tenant.Spec{Profile: workload.MediaStreaming(), Cores: 8},
		),
	}
	kinds := []sched.Kind{sched.FRFCFS, sched.ATLAS}
	for _, m := range mixes {
		for _, k := range kinds {
			m, k := m, k
			t.Run(m.Name+"/"+k.String(), func(t *testing.T) {
				t.Parallel()
				naive := runMix(t, m, k, false)
				fast := runMix(t, m, k, true)
				if !reflect.DeepEqual(naive, fast) {
					t.Fatalf("mixed-tenant fast-forward diverged:\nnaive: %+v\nfast:  %+v", naive, fast)
				}
			})
		}
	}
}

// TestSoloMetricsHaveNoTenantBreakdown pins the compatibility
// contract: single-tenant runs produce exactly the metrics the
// pre-colocation simulator did, with no Tenants section.
func TestSoloMetricsHaveNoTenantBreakdown(t *testing.T) {
	cfg := equivalenceConfig(workload.WebSearch(), sched.FRFCFS, true)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m := sys.Run(); m.Tenants != nil {
		t.Fatalf("solo run grew a tenant breakdown: %+v", m.Tenants)
	}
}

// TestTenantMetricsAggregation is the golden test for the per-tenant
// accounting: every aggregate counter must be the exact sum of the
// per-tenant ones (no request lost, none double-counted), core counts
// and labels must follow the mix, and IPC/MPKI must be consistent with
// their own numerators.
func TestTenantMetricsAggregation(t *testing.T) {
	m := tenant.Pair(workload.DataServing(), workload.MemoryHog(), 8)
	met := runMix(t, m, sched.FRFCFS, true)
	if len(met.Tenants) != 2 {
		t.Fatalf("tenant count = %d, want 2", len(met.Tenants))
	}
	if met.Tenants[0].Name != "DS" || met.Tenants[1].Name != "HOG" {
		t.Fatalf("tenant labels = %s, %s", met.Tenants[0].Name, met.Tenants[1].Name)
	}
	var retired, misses, hits, rowMiss, conf, reads, writes uint64
	for _, tm := range met.Tenants {
		if tm.Cores != 8 {
			t.Fatalf("tenant %s cores = %d, want 8", tm.Name, tm.Cores)
		}
		if tm.Retired == 0 || tm.ReadsServed == 0 {
			t.Fatalf("tenant %s made no progress: %+v", tm.Name, tm)
		}
		if got := float64(tm.Retired) / float64(met.Cycles); got != tm.IPC {
			t.Fatalf("tenant %s IPC %v inconsistent with retired %d", tm.Name, tm.IPC, tm.Retired)
		}
		retired += tm.Retired
		misses += tm.DemandMisses
		hits += tm.RowHits
		rowMiss += tm.RowMisses
		conf += tm.RowConflicts
		reads += tm.ReadsServed
		writes += tm.WritesServed
	}
	if retired != met.Retired {
		t.Fatalf("per-tenant retired %d != aggregate %d", retired, met.Retired)
	}
	if misses != met.DemandMisses {
		t.Fatalf("per-tenant misses %d != aggregate %d", misses, met.DemandMisses)
	}
	if hits != met.RowHits || rowMiss != met.RowMisses || conf != met.RowConflicts {
		t.Fatalf("row classification: tenants (%d,%d,%d) != aggregate (%d,%d,%d)",
			hits, rowMiss, conf, met.RowHits, met.RowMisses, met.RowConflicts)
	}
	if reads != met.ReadsServed || writes != met.WritesServed {
		t.Fatalf("served: tenants (%d,%d) != aggregate (%d,%d)",
			reads, writes, met.ReadsServed, met.WritesServed)
	}
	// The adversary must look like one: far lower row locality than
	// the victim and an order of magnitude more misses per
	// instruction.
	ds, hog := met.Tenants[0], met.Tenants[1]
	if hog.RowHitRate >= ds.RowHitRate {
		t.Fatalf("hog row-hit %.3f >= victim %.3f", hog.RowHitRate, ds.RowHitRate)
	}
	if hog.MPKI < 5*ds.MPKI {
		t.Fatalf("hog MPKI %.1f not dominating victim %.1f", hog.MPKI, ds.MPKI)
	}
}

// TestMixDeterminism: identical mixed configs give identical Metrics.
func TestMixDeterminism(t *testing.T) {
	m := tenant.Pair(workload.WebFrontend(), workload.TPCHQ6(), 8)
	a := runMix(t, m, sched.ATLAS, true)
	b := runMix(t, m, sched.ATLAS, true)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("mixed run not deterministic:\na: %+v\nb: %+v", a, b)
	}
}

// TestMixInterferenceExists: colocation must actually hurt — each
// tenant's shared-run latency should exceed what it sees alone
// (sanity that the tenants really share the controllers rather than
// being simulated side by side).
func TestMixInterferenceExists(t *testing.T) {
	m := tenant.Pair(workload.DataServing(), workload.MemoryHog(), 8)
	shared := runMix(t, m, sched.FRFCFS, true)
	soloCfg := equivalenceConfig(tenant.Spec{Profile: workload.DataServing(), Cores: 8}.Adjusted(), sched.FRFCFS, true)
	sys, err := NewSystem(soloCfg)
	if err != nil {
		t.Fatal(err)
	}
	solo := sys.Run()
	if shared.Tenants[0].AvgReadLatency <= solo.AvgReadLatency {
		t.Fatalf("victim latency %.1f under a hog <= solo %.1f; no interference modeled",
			shared.Tenants[0].AvgReadLatency, solo.AvgReadLatency)
	}
	if shared.Tenants[0].IPC >= solo.UserIPC {
		t.Fatalf("victim IPC %.3f under a hog >= solo %.3f", shared.Tenants[0].IPC, solo.UserIPC)
	}
}

// TestMixFootprintMustFit: a mix whose combined footprint exceeds the
// memory system is rejected at construction.
func TestMixFootprintMustFit(t *testing.T) {
	big := workload.TPCHQ17()
	big.ColdBytes = 30 << 30
	m := tenant.Pair(big, big, 8)
	_, err := NewSystem(mixConfig(m, sched.FRFCFS, true))
	if err == nil {
		t.Fatal("oversized mix accepted")
	}
}
