package memctrl_test

import (
	"math/rand"
	"os"
	"testing"

	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
	"cloudmc/internal/pagepolicy"
	"cloudmc/internal/sched"
)

// This file is the correctness suite of the incremental candidate-
// group index: a randomized request stream drives one controller
// through enqueues, serves, write-mode flips, and page-policy row
// transitions, and VerifyCandidateGroups re-derives the full index
// from scratch between ticks — structural invariants first, then the
// incremental buildOptions output (options, order, PendingRowHits)
// compared bit for bit against buildOptionsRef, the preserved
// straight-port rebuild. It lives in the external test package so it
// can sweep the real schedulers (sched imports memctrl).

// groupsHarness replays one randomized stream and verifies the group
// index every checkEvery cycles. The stream mirrors the horizon
// harness: bursty arrivals, few rows (hits and conflicts), and a
// write fraction high enough to flip drain mode back and forth.
func groupsHarness(t *testing.T, seed int64, cycles uint64, checkEvery uint64,
	mkPolicy func() memctrl.Policy, mkPage func() pagepolicy.Policy) {
	t.Helper()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	geo := dram.Geometry{
		Channels: 1,
		Ranks:    1 + rng.Intn(2),
		Banks:    2 << rng.Intn(3), // 2, 4 or 8
		Rows:     1 << 10, Columns: 32, BlockBytes: 64,
	}
	cfg := memctrl.DefaultConfig()
	cfg.ReadQueueCap = 8 + rng.Intn(57)
	cfg.WriteQueueCap = 8 + rng.Intn(57)
	cfg.WriteHi = 1 + rng.Intn(cfg.WriteQueueCap)
	cfg.WriteLo = rng.Intn(cfg.WriteHi)

	ctl, err := memctrl.New(cfg, dram.NewChannel(0, geo, dram.DDR3_1600()), mkPolicy(), mkPage())
	if err != nil {
		t.Fatal(err)
	}
	ctl.SetFastForward(true)

	enqProb := 0.05 + rng.Float64()*0.3
	writeFrac := rng.Float64() * 0.8
	for now := uint64(0); now < cycles; now++ {
		if rng.Float64() < enqProb {
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				loc := dram.Location{
					Channel: 0,
					Rank:    rng.Intn(geo.Ranks),
					Bank:    rng.Intn(geo.Banks),
					Row:     rng.Intn(4), // few rows: conflicts and hits
					Column:  rng.Intn(geo.Columns),
				}
				addr := uint64(now)<<32 | uint64(rng.Intn(1<<16))<<6
				src := memctrl.Source{Core: rng.Intn(4), Tenant: -1}
				if rng.Float64() < writeFrac {
					ctl.EnqueueWrite(now, src, addr, loc, nil)
				} else {
					ctl.EnqueueRead(now, src, addr, loc, memctrl.ReadDemand, nil)
				}
			}
		}
		// Between ticks — before any command has been issued at cycle
		// now — the index must reproduce the reference rebuild exactly.
		if now%checkEvery == 0 {
			if err := ctl.VerifyCandidateGroups(now); err != nil {
				t.Fatalf("cycle %d: %v", now, err)
			}
		}
		ctl.Tick(now)
	}
	if err := ctl.VerifyCandidateGroups(cycles); err != nil {
		t.Fatalf("final (cycle %d): %v", cycles, err)
	}
}

// groupsMatrix is the scheduler × page-policy sweep shared by the PR
// suite and the nightly soak: every studied scheduler (the QoS
// partitioner is exercised through its own suite) against every page
// policy, including the stateful predictive ones whose row
// transitions the index must track.
func groupsMatrix(t *testing.T, cycles, checkEvery uint64) {
	// A declared-order slice, not a map: each subtest name must draw
	// the same seed on every run so a failure can be rerun by name.
	pages := []struct {
		name string
		mk   func() pagepolicy.Policy
	}{
		{"open", func() pagepolicy.Policy { return pagepolicy.NewOpen() }},
		{"close", func() pagepolicy.Policy { return pagepolicy.NewClose() }},
		{"openadaptive", func() pagepolicy.Policy { return pagepolicy.NewOpenAdaptive() }},
		{"closeadaptive", func() pagepolicy.Policy { return pagepolicy.NewCloseAdaptive() }},
		{"rbpp", func() pagepolicy.Policy { return pagepolicy.NewRBPP(4) }},
		{"abpp", func() pagepolicy.Policy { return pagepolicy.NewABPP(4) }},
	}
	seed := int64(137)
	for _, kind := range sched.Kinds {
		factory := sched.NewFactoryOpts(kind, sched.Opts{Cores: 4, Seed: 99})
		for _, pg := range pages {
			seed++
			s := seed
			t.Run(kind.String()+"/"+pg.name, func(t *testing.T) {
				groupsHarness(t, s, cycles, checkEvery,
					func() memctrl.Policy { return factory(0) }, pg.mk)
			})
		}
	}
}

// TestCandidateGroupsDifferential pins the incremental option builder
// to the straight-port reference across the full scheduler × page-
// policy matrix on a randomized stream.
func TestCandidateGroupsDifferential(t *testing.T) {
	cycles := uint64(6_000)
	if testing.Short() {
		cycles = 1_500
	}
	groupsMatrix(t, cycles, 1)
}

// TestNightlyCandidateGroupsSoak is the extended soak: much longer
// streams with sparser verification (the structural pass is O(queue)
// per call), unlocked by MCSIM_NIGHTLY=1 like the core nightly suite.
func TestNightlyCandidateGroupsSoak(t *testing.T) {
	if os.Getenv("MCSIM_NIGHTLY") == "" {
		t.Skip("nightly soak; set MCSIM_NIGHTLY=1 to run")
	}
	cycles := uint64(400_000)
	if testing.Short() {
		cycles = 100_000
	}
	groupsMatrix(t, cycles, 7)
}
