package core

import (
	"runtime"
	"testing"

	"cloudmc/internal/sched"
	"cloudmc/internal/workload"
)

// shortConfig shrinks the run for fast tests.
func shortConfig(p workload.Profile) Config {
	cfg := DefaultConfig(p)
	cfg.WarmupCycles = 50_000
	cfg.MeasureCycles = 150_000
	return cfg
}

func TestSystemSmoke(t *testing.T) {
	sys, err := NewSystem(shortConfig(workload.DataServing()))
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Run()
	t.Logf("DS: %v", m)
	if m.Retired == 0 {
		t.Fatal("no instructions retired")
	}
	if m.UserIPC <= 0 || m.UserIPC > float64(len(m.PerCoreIPC)) {
		t.Fatalf("implausible user IPC %f", m.UserIPC)
	}
	if m.ReadsServed == 0 {
		t.Fatal("no DRAM reads served")
	}
	if m.WritesServed == 0 {
		t.Fatal("no DRAM writes served")
	}
	if m.RowHitRate < 0 || m.RowHitRate > 1 {
		t.Fatalf("row hit rate out of range: %f", m.RowHitRate)
	}
	if m.AvgReadLatency <= 0 {
		t.Fatalf("non-positive read latency %f", m.AvgReadLatency)
	}
	if m.SingleAccessFrac <= 0 || m.SingleAccessFrac >= 1 {
		t.Fatalf("single-access fraction out of range: %f", m.SingleAccessFrac)
	}
}

func TestSystemDeterminism(t *testing.T) {
	run := func() Metrics {
		sys, err := NewSystem(shortConfig(workload.WebSearch()))
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run()
	}
	a, b := run(), run()
	if a.Retired != b.Retired || a.ReadsServed != b.ReadsServed || a.RowHits != b.RowHits {
		t.Fatalf("runs diverged: %+v vs %+v", a, b)
	}
}

func TestAllWorkloadsAllSchedulers(t *testing.T) {
	if testing.Short() {
		t.Skip("grid too slow for -short")
	}
	for _, p := range workload.All() {
		for _, k := range sched.Kinds {
			cfg := shortConfig(p)
			cfg.WarmupCycles = 20_000
			cfg.MeasureCycles = 60_000
			cfg.Scheduler = k
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Acronym, k, err)
			}
			m := sys.Run()
			if m.Retired == 0 || m.ReadsServed == 0 {
				t.Fatalf("%s/%s: dead system: %v", p.Acronym, k, m)
			}
		}
	}
}

// TestSteadyStateAllocs guards the whole-system steady state: once the
// MSHR free list, the controllers' request pools and the fill and
// retry queues have grown to their working sets, further simulated
// cycles must allocate almost nothing. The 0 allocs/op benchmark gate
// covers only the controller hot paths; this covers the System loop
// around them.
func TestSteadyStateAllocs(t *testing.T) {
	for _, p := range []workload.Profile{workload.DataServing(), workload.MapReduce()} {
		t.Run(p.Acronym, func(t *testing.T) {
			sys, err := NewSystem(DefaultConfig(p))
			if err != nil {
				t.Fatal(err)
			}
			sys.FunctionalWarmup(0)
			sys.Advance(100_000)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sys.Advance(100_000)
			runtime.ReadMemStats(&after)
			n := after.Mallocs - before.Mallocs
			t.Logf("%s: %d mallocs over 100k steady-state cycles", p.Acronym, n)
			if n >= 300 {
				t.Fatalf("%s: %d mallocs over 100k steady-state cycles, want < 300", p.Acronym, n)
			}
		})
	}
}
