package memctrl

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cloudmc/internal/dram"
	"cloudmc/internal/pagepolicy"
	"cloudmc/internal/stats"
)

// This file is the correctness suite of the park horizon, a fold over
// the candidate groups' earliest-issue memos:
//
//   - refIdleHorizon is a straight port of the uncached idleHorizon
//     (one EarliestIssue per queued request plus a full bank scan for
//     pending closes); the harness asserts the memoized fold computes
//     the identical horizon at every park, so folding one cycle per
//     group provably changed nothing.
//   - VerifyParkHorizon brute-forces every parked window cycle by
//     cycle against CanIssue, proving horizons exact: never late,
//     never early.
//   - A fast-forward controller and a naive per-cycle twin replay the
//     same randomized request stream; their statistics and device
//     state must match bit for bit.

// refIdleHorizon re-derives the idle horizon the way the pre-cache
// implementation did: one earliestFor per request the parked mode
// considers, a full rank×bank scan for surviving pending closes, the
// policy event, and the now+1 clamp. The queues are parkMode's, not the
// current drain flag's: an enqueue may leave the controller parked in
// the mode its next tick will use (noteEnqueue keeps parkMode equal to
// projectedMode) while the flag itself still names the other one.
func refIdleHorizon(c *Controller, now uint64) uint64 {
	h := dram.Never
	fold := func(q []*Request) {
		for _, r := range q {
			if at := c.earliestFor(r); at < h {
				h = at
			}
		}
	}
	if c.parkMode != modeWrites {
		fold(c.readQ)
	}
	if c.parkMode != modeReads {
		fold(c.writeQ)
	}
	for rank := 0; rank < c.ch.Geo.Ranks; rank++ {
		for bank := 0; bank < c.ch.Geo.Banks; bank++ {
			if !c.pendingClose[rank*c.ch.Geo.Banks+bank] {
				continue
			}
			b := c.ch.Bank(rank, bank)
			if b.State != dram.BankActive {
				continue
			}
			cmd := dram.Command{Kind: dram.CmdPrecharge, Loc: dram.Location{
				Channel: c.ch.ID, Rank: rank, Bank: bank, Row: b.OpenRow,
			}}
			if at := c.ch.EarliestIssue(cmd); at < h {
				h = at
			}
		}
	}
	if eh, ok := c.policy.(EventHorizon); ok {
		if at := eh.NextPolicyEvent(now); at < h {
			h = at
		}
	}
	if h <= now {
		h = now + 1
	}
	return h
}

// timedPolicy is frPolicy plus a self-re-arming quantum, so the
// harness exercises the EventHorizon fold and wake-ups that come from
// the policy rather than from DRAM timing.
type timedPolicy struct {
	frPolicy
	quantum uint64
	next    uint64
}

func (p *timedPolicy) Tick(now uint64) {
	if now >= p.next {
		p.next = now + p.quantum
	}
}

func (p *timedPolicy) NextPolicyEvent(uint64) uint64 { return p.next }

// mixedPolicy is frPolicy opted into mixed read/write views (the RL
// scheduler's mode), so the harness parks in modeBoth, where a group
// holding reads and writes to the open row offers one column command
// but the horizon must wake for both.
type mixedPolicy struct{ frPolicy }

func (mixedPolicy) ConsidersWrites() bool { return true }

// declinePolicy issues only every fourth pick, leaving declined
// options on the table — the controller must stay hot for those.
type declinePolicy struct {
	frPolicy
	n int
}

func (p *declinePolicy) Pick(v *View) int {
	p.n++
	if p.n%4 != 0 {
		return -1
	}
	return p.frPolicy.Pick(v)
}

// horizonHarness replays one randomized request stream over rows rows
// per bank through a fast-forward controller and a naive per-cycle
// twin, checking at every cycle that the fast-forward horizon is exact
// and identical to the reference computation, and at the end that both
// controllers observed bit-identical statistics and device state.
func horizonHarness(t *testing.T, seed int64, cycles uint64, rows int,
	mkPolicy func() Policy, mkPage func() pagepolicy.Policy) {
	t.Helper()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	geo := dram.Geometry{
		Channels: 1,
		Ranks:    1 + rng.Intn(2),
		Banks:    2 << rng.Intn(3), // 2, 4 or 8
		Rows:     1 << 10, Columns: 32, BlockBytes: 64,
	}
	cfg := DefaultConfig()
	cfg.ReadQueueCap = 8 + rng.Intn(57)
	cfg.WriteQueueCap = 8 + rng.Intn(57)
	cfg.WriteHi = 1 + rng.Intn(cfg.WriteQueueCap)
	cfg.WriteLo = rng.Intn(cfg.WriteHi)

	build := func(ff bool) *Controller {
		ctl, err := New(cfg, dram.NewChannel(0, geo, dram.DDR3_1600()), mkPolicy(), mkPage())
		if err != nil {
			t.Fatal(err)
		}
		ctl.SetFastForward(ff)
		return ctl
	}
	fast, naive := build(true), build(false)

	// A bursty stream with hot rows (hits), row conflicts, and write
	// phases, so parks happen in every regime: empty queues, drain
	// shadows, tFAW stalls, pending closes.
	var fastDone, naiveDone int
	enqProb := 0.02 + rng.Float64()*0.2
	writeFrac := rng.Float64() * 0.8
	for now := uint64(0); now < cycles; now++ {
		if rng.Float64() < enqProb {
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				loc := dram.Location{
					Channel: 0,
					Rank:    rng.Intn(geo.Ranks),
					Bank:    rng.Intn(geo.Banks),
					Row:     rng.Intn(rows),
					Column:  rng.Intn(geo.Columns),
				}
				addr := uint64(now)<<32 | uint64(rng.Intn(1<<16))<<6
				src := Source{Core: rng.Intn(4), Tenant: -1}
				if rng.Float64() < writeFrac {
					a := fast.EnqueueWrite(now, src, addr, loc, func(uint64) { fastDone++ })
					b := naive.EnqueueWrite(now, src, addr, loc, func(uint64) { naiveDone++ })
					if a != b {
						t.Fatalf("cycle %d: write accept diverged (fast %v, naive %v)", now, a, b)
					}
				} else {
					a := fast.EnqueueRead(now, src, addr, loc, ReadDemand, func(uint64) { fastDone++ })
					b := naive.EnqueueRead(now, src, addr, loc, ReadDemand, func(uint64) { naiveDone++ })
					if a != b {
						t.Fatalf("cycle %d: read accept diverged (fast %v, naive %v)", now, a, b)
					}
				}
			}
			// An enqueue into a parked controller must leave the
			// re-armed horizon exact without a full tick.
			if err := fast.VerifyParkHorizon(now, 2000); err != nil {
				t.Fatalf("cycle %d (post-enqueue): %v", now, err)
			}
		}
		fast.Tick(now)
		naive.Tick(now)
		if err := fast.VerifyParkHorizon(now, 2000); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
		if w := fast.ParkHorizon(); w > now+1 {
			if ref := refIdleHorizon(fast, now); ref != w {
				t.Fatalf("cycle %d: cached horizon %d != per-request reference %d", now, w, ref)
			}
		}
	}

	if fastDone != naiveDone {
		t.Fatalf("completions diverged: fast %d, naive %d", fastDone, naiveDone)
	}
	// The time-weighted trackers sample at different cycles (the naive
	// twin samples every cycle, the fast-forward controller only at
	// ticks and enqueues) but must integrate to the same area.
	fs, ns := fast.Stats, naive.Stats
	if fq, nq := fs.ReadQ.Average(cycles), ns.ReadQ.Average(cycles); fq != nq {
		t.Fatalf("read-queue occupancy diverged: fast %v, naive %v", fq, nq)
	}
	if fq, nq := fs.WriteQ.Average(cycles), ns.WriteQ.Average(cycles); fq != nq {
		t.Fatalf("write-queue occupancy diverged: fast %v, naive %v", fq, nq)
	}
	fs.ReadQ, fs.WriteQ = stats.TimeWeighted{}, stats.TimeWeighted{}
	ns.ReadQ, ns.WriteQ = stats.TimeWeighted{}, stats.TimeWeighted{}
	// Parks/Wakes are engine telemetry, definitionally zero in the
	// naive loop; everything architectural must still match exactly.
	fs.Parks, fs.Wakes = 0, 0
	ns.Parks, ns.Wakes = 0, 0
	if !reflect.DeepEqual(fs, ns) {
		t.Fatalf("controller stats diverged:\nfast:  %+v\nnaive: %+v", fs, ns)
	}
	if !reflect.DeepEqual(fast.Channel().Stats, naive.Channel().Stats) {
		t.Fatalf("device stats diverged:\nfast:  %+v\nnaive: %+v", fast.Channel().Stats, naive.Channel().Stats)
	}
	for rank := 0; rank < geo.Ranks; rank++ {
		for bank := 0; bank < geo.Banks; bank++ {
			fr, fo := fast.Channel().OpenRow(rank, bank)
			nr, no := naive.Channel().OpenRow(rank, bank)
			if fr != nr || fo != no {
				t.Fatalf("bank (%d,%d) state diverged: fast (%d,%v) naive (%d,%v)", rank, bank, fr, fo, nr, no)
			}
		}
	}
}

// TestHorizonExactnessRandomized sweeps the harness across policies
// (plain FR-FCFS, a timed EventHorizon policy, an option-declining
// policy, a write-aware mixed-mode policy) and every page policy over
// 4 rows per bank (conflicts and hits). The stateful predictive
// policies, whose ShouldClose calls the enqueue fast path skips, run
// again with 1–3 registers over 6–32 rows, so registers evict and
// re-earn while closes are pending.
func TestHorizonExactnessRandomized(t *testing.T) {
	// Declared-order slices, not maps: each subtest name must draw the
	// same seed on every run so a failure can be rerun by name.
	policies := []struct {
		name string
		mk   func() Policy
	}{
		{"frfcfs", func() Policy { return frPolicy{} }},
		{"timed", func() Policy { return &timedPolicy{quantum: 700} }},
		{"decline", func() Policy { return &declinePolicy{} }},
		{"mixed", func() Policy { return mixedPolicy{} }},
	}
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
	cycles := uint64(12_000)
	if testing.Short() {
		cycles = 3_000
	}
	seed := int64(42)
	for _, pol := range policies {
		for _, pg := range pages {
			seed++
			s := seed
			t.Run(pol.name+"/"+pg.name, func(t *testing.T) {
				horizonHarness(t, s, cycles, 4, pol.mk, pg.mk)
			})
		}
	}
	for _, pol := range policies {
		for _, gname := range []string{"rbpp", "abpp"} {
			seed++
			rng := rand.New(rand.NewSource(seed))
			regs, rows := 1+rng.Intn(3), 6+rng.Intn(27)
			mkPage := func() pagepolicy.Policy { return pagepolicy.NewRBPP(regs) }
			if gname == "abpp" {
				mkPage = func() pagepolicy.Policy { return pagepolicy.NewABPP(regs) }
			}
			s := seed
			t.Run(fmt.Sprintf("%s/%s-%dregs-%drows", pol.name, gname, regs, rows), func(t *testing.T) {
				horizonHarness(t, s, cycles, rows, pol.mk, mkPage)
			})
		}
	}
	// At cycle 19340 this stream leaves the controller parked in
	// modeWrites with its drain flag still off and a read just enqueued:
	// the reference must fold the parked mode's queues, not the flag's.
	t.Run("frfcfs/abpp-3regs-6rows-drain", func(t *testing.T) {
		horizonHarness(t, 2034, 20_000, 6, policies[0].mk, func() pagepolicy.Policy { return pagepolicy.NewABPP(3) })
	})
}

// TestEnqueueReArmsParkWithoutFullScan pins the tentpole behavior: a
// request that cannot issue for a while (a precharge in the tWR
// shadow of a just-drained write) lands in a parked controller and
// re-arms the horizon to exactly the cycle its command becomes legal
// — without resetting the horizon to "unknown".
func TestEnqueueReArmsParkWithoutFullScan(t *testing.T) {
	ctl := testController(t, frPolicy{}, pagepolicy.NewOpen())
	ctl.SetFastForward(true)
	// W1 opens row 3; W2 needs row 9 in the same bank, so after W1's
	// column access the controller parks in write mode waiting for the
	// precharge to clear the tWR shadow.
	l1 := rloc(0, 0, 3, 1)
	l2 := rloc(0, 0, 9, 0)
	ctl.EnqueueWrite(0, Source{Core: 1}, addrFor(l1), l1, nil)
	ctl.EnqueueWrite(0, Source{Core: 1}, addrFor(l2), l2, nil)

	var now uint64
	for now = 0; now < 200; now++ {
		ctl.Tick(now)
		if ctl.Stats.WritesServed == 1 && ctl.ParkHorizon() > now+1 {
			break
		}
	}
	if ctl.Stats.WritesServed != 1 {
		t.Fatal("first write never drained")
	}
	now++

	// Another row-9 write lands in the parked controller: same command
	// class, so the established horizon must survive untouched — an
	// O(1) re-arm, not a reset to "unknown".
	l3 := rloc(0, 0, 9, 1)
	if !ctl.EnqueueWrite(now, Source{Core: 1}, addrFor(l3), l3, nil) {
		t.Fatal("enqueue failed")
	}
	want := ctl.Channel().EarliestIssue(dram.Command{Kind: dram.CmdPrecharge, Loc: l2})
	if w := ctl.ParkHorizon(); w != want {
		t.Fatalf("park horizon after enqueue = %d, want EarliestIssue(PRE) = %d", w, want)
	}
	if w := ctl.ParkHorizon(); w <= now {
		t.Fatalf("controller woke immediately (horizon %d <= now %d); expected a parked re-arm", w, now)
	}
	if err := ctl.VerifyParkHorizon(now, 2000); err != nil {
		t.Fatal(err)
	}
	for ; now < ctl.ParkHorizon(); now++ {
		ctl.Tick(now) // provable no-ops until the horizon
	}
	for end := now + 600; now < end && ctl.Stats.WritesServed < 3; now++ {
		ctl.Tick(now)
	}
	if ctl.Stats.WritesServed != 3 {
		t.Fatalf("re-armed writes never served (served %d)", ctl.Stats.WritesServed)
	}
}
