package memctrl

import (
	"testing"
	"unsafe"

	"cloudmc/internal/dram"
	"cloudmc/internal/pagepolicy"
)

// frPolicy is a minimal FR-FCFS used to drive the controller in tests
// without importing package sched (which would be an import cycle in
// spirit: sched already imports memctrl).
type frPolicy struct{}

func (frPolicy) Name() string { return "test-frfcfs" }
func (frPolicy) Pick(v *View) int {
	best := -1
	bestHit := false
	for i := range v.Options {
		o := &v.Options[i]
		switch {
		case best == -1, o.RowHit && !bestHit,
			o.RowHit == bestHit && o.Req.ID < v.Options[best].Req.ID:
			best = i
			bestHit = o.RowHit
		}
	}
	return best
}
func (frPolicy) OnComplete(*Request, uint64)              {}
func (frPolicy) OnIssue(*View, int, dram.Command, uint64) {}
func (frPolicy) Tick(uint64)                              {}

// idlePolicy never issues anything; used to observe queue state.
type idlePolicy struct{ frPolicy }

func (idlePolicy) Pick(*View) int { return -1 }

func testController(t *testing.T, policy Policy, page pagepolicy.Policy) *Controller {
	t.Helper()
	geo := dram.Geometry{Channels: 1, Ranks: 2, Banks: 4, Rows: 1 << 10, Columns: 32, BlockBytes: 64}
	ch := dram.NewChannel(0, geo, dram.DDR3_1600())
	ctl, err := New(DefaultConfig(), ch, policy, page)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

func rloc(rank, bank, row, col int) dram.Location {
	return dram.Location{Channel: 0, Rank: rank, Bank: bank, Row: row, Column: col}
}

// addrFor synthesizes a unique address per location for queue lookups.
func addrFor(l dram.Location) uint64 {
	return uint64(l.Rank)<<40 | uint64(l.Bank)<<32 | uint64(l.Row)<<16 | uint64(l.Column)<<6
}

func runCycles(ctl *Controller, from, to uint64) uint64 {
	for now := from; now < to; now++ {
		ctl.Tick(now)
	}
	return to
}

func TestReadCompletesWithCallback(t *testing.T) {
	ctl := testController(t, frPolicy{}, pagepolicy.NewOpenAdaptive())
	var doneAt uint64
	l := rloc(0, 0, 3, 1)
	if !ctl.EnqueueRead(0, Source{Core: 1}, addrFor(l), l, ReadDemand, func(at uint64) { doneAt = at }) {
		t.Fatal("enqueue failed")
	}
	runCycles(ctl, 0, 300)
	if doneAt == 0 {
		t.Fatal("read never completed")
	}
	if ctl.Stats.ReadsServed != 1 {
		t.Fatalf("reads served = %d", ctl.Stats.ReadsServed)
	}
	if ctl.Stats.RowMisses != 1 || ctl.Stats.RowHits != 0 {
		t.Fatalf("classification: hits=%d misses=%d conflicts=%d",
			ctl.Stats.RowHits, ctl.Stats.RowMisses, ctl.Stats.RowConflicts)
	}
	// Latency must cover activate + CAS + burst at minimum.
	tim := ctl.Channel().Tim
	min := uint64(tim.RCD + tim.CAS + tim.Burst)
	if got := uint64(ctl.Stats.ReadLatency.Mean()); got < min {
		t.Fatalf("latency %d below device minimum %d", got, min)
	}
}

func TestRowHitClassification(t *testing.T) {
	ctl := testController(t, frPolicy{}, pagepolicy.NewOpen())
	l1 := rloc(0, 0, 3, 1)
	l2 := rloc(0, 0, 3, 2) // same row: should hit
	ctl.EnqueueRead(0, Source{Core: 1}, addrFor(l1), l1, ReadDemand, nil)
	ctl.EnqueueRead(0, Source{Core: 2}, addrFor(l2), l2, ReadDemand, nil)
	runCycles(ctl, 0, 400)
	if ctl.Stats.RowHits != 1 || ctl.Stats.RowMisses != 1 {
		t.Fatalf("hits=%d misses=%d", ctl.Stats.RowHits, ctl.Stats.RowMisses)
	}
}

func TestRowConflictClassification(t *testing.T) {
	ctl := testController(t, frPolicy{}, pagepolicy.NewOpen())
	l1 := rloc(0, 0, 3, 1)
	l2 := rloc(0, 0, 9, 2) // same bank, different row: conflict
	ctl.EnqueueRead(0, Source{Core: 1}, addrFor(l1), l1, ReadDemand, nil)
	runCycles(ctl, 0, 100)
	ctl.EnqueueRead(100, Source{Core: 2}, addrFor(l2), l2, ReadDemand, nil)
	runCycles(ctl, 100, 500)
	if ctl.Stats.RowConflicts != 1 {
		t.Fatalf("conflicts=%d (hits=%d misses=%d)",
			ctl.Stats.RowConflicts, ctl.Stats.RowHits, ctl.Stats.RowMisses)
	}
}

func TestWriteForwardingServesReadFromWriteQueue(t *testing.T) {
	ctl := testController(t, idlePolicy{}, pagepolicy.NewOpenAdaptive())
	l := rloc(0, 1, 5, 0)
	addr := addrFor(l)
	ctl.EnqueueWrite(0, Source{Core: 1}, addr, l, nil)
	var done bool
	ctl.EnqueueRead(1, Source{Core: 2}, addr, l, ReadDemand, func(uint64) { done = true })
	runCycles(ctl, 0, 20)
	if !done {
		t.Fatal("forwarded read not completed")
	}
	if ctl.Stats.ForwardedReads != 1 {
		t.Fatalf("forwarded = %d", ctl.Stats.ForwardedReads)
	}
	if r, _ := ctl.QueueLens(); r != 0 {
		t.Fatal("forwarded read should not occupy the read queue")
	}
}

func TestWriteCoalescing(t *testing.T) {
	ctl := testController(t, idlePolicy{}, pagepolicy.NewOpenAdaptive())
	l := rloc(0, 1, 5, 0)
	ctl.EnqueueWrite(0, Source{Core: 1}, addrFor(l), l, nil)
	ctl.EnqueueWrite(1, Source{Core: 1}, addrFor(l), l, nil)
	if _, w := ctl.QueueLens(); w != 1 {
		t.Fatalf("write queue = %d, want 1 (coalesced)", w)
	}
}

func TestBackpressureWhenReadQueueFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReadQueueCap = 4
	geo := dram.Geometry{Channels: 1, Ranks: 2, Banks: 4, Rows: 1 << 10, Columns: 32, BlockBytes: 64}
	ch := dram.NewChannel(0, geo, dram.DDR3_1600())
	ctl, err := New(cfg, ch, idlePolicy{}, pagepolicy.NewOpenAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		l := rloc(0, 0, i+1, 0)
		if !ctl.EnqueueRead(0, Source{Core: 1}, addrFor(l), l, ReadDemand, nil) {
			t.Fatalf("enqueue %d rejected early", i)
		}
	}
	l := rloc(0, 0, 9, 0)
	if ctl.EnqueueRead(0, Source{Core: 1}, addrFor(l), l, ReadDemand, nil) {
		t.Fatal("enqueue accepted beyond capacity")
	}
	if ctl.Stats.EnqueueFailures != 1 {
		t.Fatalf("failures = %d", ctl.Stats.EnqueueFailures)
	}
}

func TestWriteDrainHysteresis(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteHi = 8
	cfg.WriteLo = 2
	geo := dram.Geometry{Channels: 1, Ranks: 2, Banks: 4, Rows: 1 << 10, Columns: 32, BlockBytes: 64}
	ch := dram.NewChannel(0, geo, dram.DDR3_1600())
	ctl, err := New(cfg, ch, frPolicy{}, pagepolicy.NewCloseAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	// Keep a steady read supply and push writes past the watermark.
	for i := 0; i < 8; i++ {
		l := rloc(0, i%4, 100+i, 0)
		ctl.EnqueueWrite(0, Source{Core: 1}, addrFor(l), l, nil)
	}
	runCycles(ctl, 0, 2000)
	if ctl.Stats.WritesServed < 6 {
		t.Fatalf("writes served = %d, drain did not engage", ctl.Stats.WritesServed)
	}
	if _, w := ctl.QueueLens(); w > cfg.WriteLo {
		t.Fatalf("write queue %d above low watermark after drain", w)
	}
}

func TestOpportunisticWriteDrainWhenIdle(t *testing.T) {
	ctl := testController(t, frPolicy{}, pagepolicy.NewOpenAdaptive())
	l := rloc(1, 2, 7, 0)
	ctl.EnqueueWrite(0, Source{Core: 1}, addrFor(l), l, nil)
	runCycles(ctl, 0, 400)
	if ctl.Stats.WritesServed != 1 {
		t.Fatal("idle controller did not drain the lone write")
	}
}

func TestPagePolicyCloseIsCounted(t *testing.T) {
	ctl := testController(t, frPolicy{}, pagepolicy.NewClose())
	l := rloc(0, 0, 3, 1)
	ctl.EnqueueRead(0, Source{Core: 1}, addrFor(l), l, ReadDemand, nil)
	runCycles(ctl, 0, 500)
	if ctl.Stats.PolicyCloses != 1 {
		t.Fatalf("policy closes = %d, want 1", ctl.Stats.PolicyCloses)
	}
	// The bank must be idle again.
	if _, open := ctl.Channel().OpenRow(0, 0); open {
		t.Fatal("row left open under close-page policy")
	}
}

func TestOpenPolicyLeavesRowOpen(t *testing.T) {
	ctl := testController(t, frPolicy{}, pagepolicy.NewOpen())
	l := rloc(0, 0, 3, 1)
	ctl.EnqueueRead(0, Source{Core: 1}, addrFor(l), l, ReadDemand, nil)
	runCycles(ctl, 0, 500)
	row, open := ctl.Channel().OpenRow(0, 0)
	if !open || row != 3 {
		t.Fatalf("row state = (%d, %v), want (3, true)", row, open)
	}
	if ctl.Stats.PolicyCloses != 0 {
		t.Fatal("open policy precharged proactively")
	}
}

func TestPendingCloseCancelledBySameRowArrival(t *testing.T) {
	// Under close-adaptive, a same-row request arriving before the
	// precharge becomes legal must cancel the close and be served as a
	// row hit.
	ctl := testController(t, frPolicy{}, pagepolicy.NewCloseAdaptive())
	l1 := rloc(0, 0, 3, 1)
	ctl.EnqueueRead(0, Source{Core: 1}, addrFor(l1), l1, ReadDemand, nil)
	// Run just past the column access; tRTP has not elapsed.
	tim := ctl.Channel().Tim
	colAt := uint64(tim.RCD) + 2
	runCycles(ctl, 0, colAt+1)
	l2 := rloc(0, 0, 3, 2)
	ctl.EnqueueRead(colAt+1, Source{Core: 2}, addrFor(l2), l2, ReadDemand, nil)
	runCycles(ctl, colAt+1, 600)
	if ctl.Stats.RowHits != 1 {
		t.Fatalf("hits = %d; pending close was not cancelled", ctl.Stats.RowHits)
	}
}

func TestQueueLengthStats(t *testing.T) {
	ctl := testController(t, idlePolicy{}, pagepolicy.NewOpenAdaptive())
	for i := 0; i < 4; i++ {
		l := rloc(0, 0, i+1, 0)
		ctl.EnqueueRead(0, Source{Core: 1}, addrFor(l), l, ReadDemand, nil)
	}
	runCycles(ctl, 0, 100)
	if got := ctl.Stats.ReadQ.Average(100); got < 3.9 {
		t.Fatalf("read queue average = %f, want ~4", got)
	}
}

func TestResetStatsPreservesQueueState(t *testing.T) {
	ctl := testController(t, idlePolicy{}, pagepolicy.NewOpenAdaptive())
	l := rloc(0, 0, 1, 0)
	ctl.EnqueueRead(0, Source{Core: 1}, addrFor(l), l, ReadDemand, nil)
	runCycles(ctl, 0, 50)
	ctl.ResetStats(50)
	if r, _ := ctl.QueueLens(); r != 1 {
		t.Fatal("reset dropped queued request")
	}
	if ctl.Stats.ReadsServed != 0 {
		t.Fatal("reset kept counters")
	}
}

func TestRequestAge(t *testing.T) {
	r := Request{Arrival: 100}
	if r.Age(150) != 50 || r.Age(50) != 0 {
		t.Fatal("age arithmetic wrong")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.WriteLo = bad.WriteHi
	if err := bad.Validate(); err == nil {
		t.Fatal("WriteLo >= WriteHi accepted")
	}
	bad = good
	bad.ReadQueueCap = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero read queue accepted")
	}
	bad = good
	bad.WriteHi = bad.WriteQueueCap + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("WriteHi above capacity accepted")
	}
}

func TestViewOldestOption(t *testing.T) {
	v := &View{Options: []Option{
		{Req: &Request{ID: 5}},
		{Req: &Request{ID: 2}},
		{Req: &Request{ID: 9}},
	}}
	if got := v.OldestOption(); got != 1 {
		t.Fatalf("oldest = %d, want 1", got)
	}
	empty := &View{}
	if empty.OldestOption() != -1 {
		t.Fatal("empty view should return -1")
	}
}

// TestEarliestIssueBound pins the candidate groups' earliest-issue memo
// on one group waiting out its tRCD shadow: the build stores the exact
// cycle, kind and family stamp; VerifyCandidateGroups reports a bound
// past EarliestIssue, a wrong row-hit flag or kind, and a fresh memo
// with a wrong cycle; a loose bound whose family count has moved is
// valid, and the build skips the group on it without touching it; and
// once now reaches that bound, the moved count makes the build ask dram
// again instead of trusting the loose cycle.
func TestEarliestIssueBound(t *testing.T) {
	ctl := testController(t, frPolicy{}, pagepolicy.NewOpen())
	l := rloc(0, 0, 3, 0)
	ctl.EnqueueRead(0, Source{Core: 1}, addrFor(l), l, ReadDemand, nil)
	ctl.Tick(0) // ACT
	ctl.Tick(1) // the READ waits for tRCD
	h := ctl.readOrder[0]
	g, rb := &ctl.grp[h], ctl.grpBound[0]
	rd := ctl.ch.EarliestIssue(dram.Command{Kind: dram.CmdRead, Loc: l})
	if rd <= 3 {
		t.Fatalf("READ legal at %d; the test needs a tRCD shadow", rd)
	}
	exact := rd<<1 | 1
	if rb[h] != exact || g.optKind[0] != dram.CmdRead || g.stamp[0] != ctl.colCmds {
		t.Fatalf("memo %#x %v stamp %d after the build, want %#x (READ at %d, row hit) stamp %d",
			rb[h], g.optKind[0], g.stamp[0], exact, rd, ctl.colCmds)
	}

	// A fresh memo is trusted, so each of these must be reported: a
	// bound past the READ, a wrong flag, a cycle before the READ but
	// past now, a cycle at or before now, and a wrong kind.
	for _, bad := range []uint64{(rd+1)<<1 | 1, rd << 1, (rd-1)<<1 | 1, 1<<1 | 1} {
		rb[h] = bad
		if err := ctl.VerifyCandidateGroups(2); err == nil {
			t.Fatalf("bound %#x (READ at %d) not reported", bad, rd)
		}
	}
	rb[h] = exact
	g.optKind[0] = dram.CmdWrite
	if err := ctl.VerifyCandidateGroups(2); err == nil {
		t.Fatal("memo naming a WRITE for a READ not reported")
	}
	g.optKind[0] = dram.CmdRead
	if err := ctl.VerifyCandidateGroups(2); err != nil {
		t.Fatalf("exact memo reported: %v", err)
	}

	// A column command to another bank could have raised the READ's
	// cycle; bumping colCmds by hand stands for one. The memo is then a
	// lower bound only, so a loose bound is valid, and the build skips
	// the group on it, leaves it untouched and still counts its row hit.
	ctl.colCmds++
	loose := (rd-1)<<1 | 1
	rb[h] = loose
	ctl.buildOptions(2, false)
	if rb[h] != loose {
		t.Fatalf("the build rewrote bound %#x to %#x; it lies past now", loose, rb[h])
	}
	if len(ctl.view.Options) != 0 || ctl.view.PendingRowHits != 1 {
		t.Fatalf("build at 2: %d options, %d pending row hits; want 0 and 1", len(ctl.view.Options), ctl.view.PendingRowHits)
	}
	if err := ctl.VerifyCandidateGroups(2); err != nil {
		t.Fatalf("loose bound with a moved family reported: %v", err)
	}

	// At the loose cycle the moved count forces a recompute: no option
	// yet, and the exact memo is back under the new count.
	ctl.buildOptions(rd-1, false)
	if len(ctl.view.Options) != 0 {
		t.Fatalf("build at %d trusted a stale memo: %+v", rd-1, ctl.view.Options)
	}
	if rb[h] != exact || g.stamp[0] != ctl.colCmds {
		t.Fatalf("recompute stored %#x stamp %d, want %#x stamp %d", rb[h], g.stamp[0], exact, ctl.colCmds)
	}
}

// TestMemoSurvivesModeChange pins the per-kind memo rule: only a
// command to a group's bank or a new group zeroes its memos, so a
// read's memo survives a write drain that touches only another bank.
// The read's READ waits out tRCD when the drain starts; through every
// drain tick its read-kind bound word and stamp stay as they were, and
// VerifyCandidateGroups still accepts them (the column commands of the
// drain leave the word a lower bound).
func TestMemoSurvivesModeChange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteHi, cfg.WriteLo = 4, 1
	geo := dram.Geometry{Channels: 1, Ranks: 2, Banks: 4, Rows: 1 << 10, Columns: 32, BlockBytes: 64}
	ctl, err := New(cfg, dram.NewChannel(0, geo, dram.DDR3_1600()), frPolicy{}, pagepolicy.NewOpen())
	if err != nil {
		t.Fatal(err)
	}
	l := rloc(0, 0, 3, 0)
	ctl.EnqueueRead(0, Source{Core: 1}, addrFor(l), l, ReadDemand, nil)
	ctl.Tick(0) // ACT
	ctl.Tick(1) // the READ waits for tRCD
	h := ctl.readOrder[0]
	g := &ctl.grp[h]
	word, stamp := ctl.grpBound[0][h], g.stamp[0]
	if word>>1 <= 2 || g.optKind[0] != dram.CmdRead {
		t.Fatalf("read memo %#x %v after the build; want a READ past cycle 2", word, g.optKind[0])
	}
	for i := 0; i < cfg.WriteHi; i++ {
		w := rloc(1, 2, 5, i)
		ctl.EnqueueWrite(2, Source{Core: 1}, addrFor(w), w, nil)
	}
	drained := 0
	for now := uint64(2); ; now++ {
		if _, wq := ctl.QueueLens(); wq <= cfg.WriteLo {
			break
		}
		if now > 500 {
			t.Fatal("drain did not finish")
		}
		ctl.Tick(now)
		if !ctl.writeMode {
			t.Fatalf("cycle %d: not draining", now)
		}
		drained++
		if ctl.grpBound[0][h] != word || g.stamp[0] != stamp || g.optKind[0] != dram.CmdRead {
			t.Fatalf("cycle %d: read memo %#x %v stamp %d after a drain tick, want %#x READ stamp %d",
				now, ctl.grpBound[0][h], g.optKind[0], g.stamp[0], word, stamp)
		}
		if err := ctl.VerifyCandidateGroups(now + 1); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
	if ctl.colCmds == stamp || ctl.Stats.ReadsServed != 0 {
		t.Fatalf("drain of %d ticks sent no column command or served the read (colCmds %d, reads %d)",
			drained, ctl.colCmds, ctl.Stats.ReadsServed)
	}
}

// TestGroupSize pins the candidate group at 88 bytes, where the
// per-kind memo kinds fit in padding: every build loads groups from
// the arena, so a larger group costs cache lines on every tick of a
// deep-queue controller.
func TestGroupSize(t *testing.T) {
	if n := unsafe.Sizeof(group{}); n != 88 {
		t.Fatalf("unsafe.Sizeof(group{}) = %d, want 88", n)
	}
}
