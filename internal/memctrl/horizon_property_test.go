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
// implementation did: one EarliestIssue per request the queue mode
// considers, a full rank×bank scan for surviving pending closes, the
// policy event, and the now+1 clamp. It is called right after the
// parking tick, so queueMode is the mode that tick's fold used.
func refIdleHorizon(c *Controller, now uint64) uint64 {
	h := dram.Never
	fold := func(q []*Request) {
		for _, r := range q {
			if at := c.ch.EarliestIssue(c.commandFor(r)); at < h {
				h = at
			}
		}
	}
	mode := c.queueMode(considersWrites(c.policy))
	if mode != modeWrites {
		fold(c.readQ)
	}
	if mode != modeReads {
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
			// A queued request resets the horizon, but a forwarded read
			// or a coalesced write leaves the park in place, and the
			// park must still be exact.
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
	// twin samples every cycle, the fast-forward controller only at its
	// full ticks) but must integrate to the same area.
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
// policies, whose ShouldClose calls a parked controller skips, run
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
	// At cycle 19337 this stream parks the controller on opportunistic
	// writes; at 19340 two writes reach WriteHi and a read arrives. The
	// enqueues end the park, so that cycle's full tick sets the drain
	// flag before the controller parks again in modeWrites. The stream
	// stays as a drain-crossing regression case.
	t.Run("frfcfs/abpp-3regs-6rows-drain", func(t *testing.T) {
		horizonHarness(t, 2034, 20_000, 6, policies[0].mk, func() pagepolicy.Policy { return pagepolicy.NewABPP(3) })
	})
}

// TestEnqueueWakesParkedController pins the enqueue contract: a queued
// request ends a park, and a forwarded read does not. The park is a
// drain shadow: the write to row 3 has been served, and the write to
// row 9 waits for its precharge past tWR.
func TestEnqueueWakesParkedController(t *testing.T) {
	ctl := testController(t, frPolicy{}, pagepolicy.NewOpen())
	ctl.SetFastForward(true)
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
	pre := ctl.Channel().EarliestIssue(dram.Command{Kind: dram.CmdPrecharge, Loc: l2})

	// A third row-9 write ends the park: the horizon is unknown and the
	// controller is due this cycle.
	l3 := rloc(0, 0, 9, 1)
	if !ctl.EnqueueWrite(now, Source{Core: 1}, addrFor(l3), l3, nil) {
		t.Fatal("enqueue failed")
	}
	if w := ctl.ParkHorizon(); w != 0 {
		t.Fatalf("park horizon after enqueue = %d, want 0 (unknown)", w)
	}
	if w := ctl.NextEvent(now); w != now {
		t.Fatalf("NextEvent(%d) after enqueue = %d, want %d", now, w, now)
	}

	// The wake tick runs in full and re-parks at the precharge.
	wakes := ctl.Stats.Wakes
	ctl.Tick(now)
	if got := ctl.Stats.Wakes - wakes; got != 1 {
		t.Fatalf("wake tick counted %d wakes, want 1", got)
	}
	if w := ctl.ParkHorizon(); w != pre {
		t.Fatalf("park horizon after wake tick = %d, want EarliestIssue(PRE) = %d", w, pre)
	}
	if err := ctl.VerifyParkHorizon(now, 2000); err != nil {
		t.Fatal(err)
	}

	// A read of a queued write's block is forwarded: it keeps the park,
	// and NextEvent reports the forward's completion.
	now++
	if !ctl.EnqueueRead(now, Source{Core: 1}, addrFor(l3), l3, ReadDemand, nil) {
		t.Fatal("forwarded read rejected")
	}
	if w := ctl.ParkHorizon(); w != pre {
		t.Fatalf("park horizon after forwarded read = %d, want %d", w, pre)
	}
	done := now + uint64(DefaultConfig().ForwardLatency)
	if done >= pre {
		t.Fatalf("forward completes at %d, not inside the park ending at %d", done, pre)
	}
	if w := ctl.NextEvent(now); w != done {
		t.Fatalf("NextEvent(%d) after forwarded read = %d, want its completion %d", now, w, done)
	}
	if err := ctl.VerifyParkHorizon(now, 2000); err != nil {
		t.Fatal(err)
	}

	for end := now + 600; now < end && ctl.Stats.WritesServed < 3; now++ {
		ctl.Tick(now)
	}
	if ctl.Stats.WritesServed != 3 || ctl.Stats.ForwardedReads != 1 {
		t.Fatalf("served %d writes and forwarded %d reads, want 3 and 1", ctl.Stats.WritesServed, ctl.Stats.ForwardedReads)
	}
}
