package sched

import (
	"testing"

	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
)

func opt(id uint64, core int, hit bool, kind dram.CommandKind) memctrl.Option {
	return memctrl.Option{
		Cmd:    dram.Command{Kind: kind},
		Req:    &memctrl.Request{ID: id, Core: core},
		RowHit: hit,
	}
}

// bankReq is a queued read to (rank, bank).
func bankReq(id uint64, rank, bank int) *memctrl.Request {
	return &memctrl.Request{ID: id, Loc: dram.Location{Rank: rank, Bank: bank}}
}

// reqOpt offers a command of the given kind advancing the queued r.
func reqOpt(r *memctrl.Request, kind dram.CommandKind) memctrl.Option {
	return memctrl.Option{Cmd: dram.Command{Kind: kind, Loc: r.Loc}, Req: r, RowHit: kind >= dram.CmdRead}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range Kinds {
		parsed, err := ParseKind(k.String())
		if err != nil || parsed != k {
			t.Fatalf("round trip %v: %v %v", k, parsed, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	p := NewFRFCFS()
	v := &memctrl.View{Options: []memctrl.Option{
		opt(1, 0, false, dram.CmdActivate),
		opt(5, 1, true, dram.CmdRead), // younger but a row hit
	}}
	if got := p.Pick(v); got != 1 {
		t.Fatalf("pick = %d, want the row hit", got)
	}
}

func TestFRFCFSBreaksTiesByAge(t *testing.T) {
	p := NewFRFCFS()
	v := &memctrl.View{Options: []memctrl.Option{
		opt(7, 0, true, dram.CmdRead),
		opt(3, 1, true, dram.CmdRead),
	}}
	if got := p.Pick(v); got != 1 {
		t.Fatalf("pick = %d, want the older hit", got)
	}
	v = &memctrl.View{Options: []memctrl.Option{
		opt(7, 0, false, dram.CmdActivate),
		opt(3, 1, false, dram.CmdActivate),
	}}
	if got := p.Pick(v); got != 1 {
		t.Fatalf("pick = %d, want the older miss", got)
	}
}

func TestFCFSBanksServesOnlyBankHeads(t *testing.T) {
	p := NewFCFSBanks()
	// Option 0 is a row hit but NOT its bank's oldest request (2 is);
	// option 1 is its bank's head. FCFS_Banks must refuse the
	// reordering.
	q := []*memctrl.Request{bankReq(2, 0, 0), bankReq(4, 0, 1), bankReq(9, 0, 0)}
	v := &memctrl.View{ReadQueue: q, Options: []memctrl.Option{
		reqOpt(q[2], dram.CmdRead),
		reqOpt(q[1], dram.CmdActivate),
	}}
	if got := p.Pick(v); got != 1 {
		t.Fatalf("pick = %d, want the bank head", got)
	}
}

func TestFCFSBanksPicksOldestHeadAcrossBanks(t *testing.T) {
	p := NewFCFSBanks()
	q := []*memctrl.Request{bankReq(3, 0, 1), bankReq(8, 0, 0)}
	v := &memctrl.View{ReadQueue: q, Options: []memctrl.Option{
		reqOpt(q[1], dram.CmdActivate),
		reqOpt(q[0], dram.CmdActivate),
	}}
	if got := p.Pick(v); got != 1 {
		t.Fatalf("pick = %d, want oldest head", got)
	}
}

func TestFCFSBanksReturnsMinusOneWhenNoHeads(t *testing.T) {
	p := NewFCFSBanks()
	q := []*memctrl.Request{bankReq(2, 0, 0), bankReq(9, 0, 0)}
	v := &memctrl.View{ReadQueue: q, Options: []memctrl.Option{
		reqOpt(q[1], dram.CmdRead), // head (ID 2) has no option
	}}
	if got := p.Pick(v); got != -1 {
		t.Fatalf("pick = %d, want -1 (head not issuable)", got)
	}
}

func TestPARBSBatchPriority(t *testing.T) {
	p := NewPARBS(DefaultPARBSConfig(), 4)
	batched := opt(9, 0, false, dram.CmdActivate)
	batched.Req.Batched = true
	unbatchedHit := opt(2, 1, true, dram.CmdRead)
	v := &memctrl.View{
		Options:   []memctrl.Option{unbatchedHit, batched},
		ReadQueue: []*memctrl.Request{unbatchedHit.Req, batched.Req},
	}
	// Prevent new batch formation from re-marking everything: the
	// current batch still has an outstanding request.
	p.remaining = 1
	if got := p.Pick(v); got != 1 {
		t.Fatalf("pick = %d, want batched request", got)
	}
}

func TestPARBSBatchCapRespected(t *testing.T) {
	cap := 5
	p := NewPARBS(PARBSConfig{BatchingCap: cap}, 2)
	var queue []*memctrl.Request
	for i := 0; i < 8; i++ {
		queue = append(queue, &memctrl.Request{
			ID: uint64(i), Core: 0,
			Loc: dram.Location{Rank: 0, Bank: 0},
		})
	}
	v := &memctrl.View{ReadQueue: queue, Options: []memctrl.Option{
		{Cmd: dram.Command{Kind: dram.CmdActivate}, Req: queue[0]},
	}}
	p.Pick(v) // triggers batch formation
	marked := 0
	for _, r := range queue {
		if r.Batched {
			marked++
		}
	}
	if marked != cap {
		t.Fatalf("marked = %d, want batching cap %d", marked, cap)
	}
	// The oldest requests must be the marked ones.
	for i := 0; i < cap; i++ {
		if !queue[i].Batched {
			t.Fatalf("request %d (old) not marked", i)
		}
	}
}

func TestPARBSShortestJobFirstRanking(t *testing.T) {
	p := NewPARBS(DefaultPARBSConfig(), 2)
	// Core 0: 3 requests to one bank (long job). Core 1: 1 request
	// (short job). After batch formation core 1 must outrank core 0.
	var queue []*memctrl.Request
	for i := 0; i < 3; i++ {
		queue = append(queue, &memctrl.Request{ID: uint64(i), Core: 0,
			Loc: dram.Location{Rank: 0, Bank: 0, Row: i}})
	}
	queue = append(queue, &memctrl.Request{ID: 3, Core: 1,
		Loc: dram.Location{Rank: 0, Bank: 1, Row: 7}})
	v := &memctrl.View{ReadQueue: queue, Options: []memctrl.Option{
		{Cmd: dram.Command{Kind: dram.CmdActivate}, Req: queue[0]},
		{Cmd: dram.Command{Kind: dram.CmdActivate}, Req: queue[3]},
	}}
	if got := p.Pick(v); got != 1 {
		t.Fatalf("pick = %d, want the short-job core's request", got)
	}
}

func TestATLASRanksLeastServiceFirst(t *testing.T) {
	cfg := ATLASConfig{QuantumCycles: 100, Alpha: 0.875, StarvationThreshold: 1 << 40, ScanDepth: 1}
	tr := NewServiceTracker(2, cfg)
	p := NewATLAS(cfg, tr)
	// Core 0 has attained lots of service, core 1 little.
	tr.AddService(0, 100)
	tr.AddService(1, 5)
	tr.Tick(100) // quantum boundary: rank core1 above core0
	r0 := &memctrl.Request{ID: 1, Core: 0}
	r1 := &memctrl.Request{ID: 2, Core: 1}
	v := &memctrl.View{
		Now:       150,
		ReadQueue: []*memctrl.Request{r0, r1},
		Options: []memctrl.Option{
			{Cmd: dram.Command{Kind: dram.CmdActivate}, Req: r0},
			{Cmd: dram.Command{Kind: dram.CmdActivate}, Req: r1},
		},
	}
	if got := p.Pick(v); got != 1 {
		t.Fatalf("pick = %d, want the least-attained-service core", got)
	}
}

func TestATLASScanDepthBlocksLowRank(t *testing.T) {
	cfg := ATLASConfig{QuantumCycles: 100, Alpha: 0.875, StarvationThreshold: 1 << 40, ScanDepth: 1}
	tr := NewServiceTracker(2, cfg)
	p := NewATLAS(cfg, tr)
	tr.AddService(0, 100)
	tr.Tick(100)
	r0 := &memctrl.Request{ID: 1, Core: 0} // low priority
	r1 := &memctrl.Request{ID: 2, Core: 1} // high priority, not issuable
	v := &memctrl.View{
		Now:       150,
		ReadQueue: []*memctrl.Request{r0, r1},
		Options: []memctrl.Option{
			{Cmd: dram.Command{Kind: dram.CmdActivate}, Req: r0},
		},
	}
	if got := p.Pick(v); got != -1 {
		t.Fatalf("pick = %d, want -1: scan window holds a non-issuable higher-rank request", got)
	}
}

func TestATLASStarvationOverride(t *testing.T) {
	cfg := ATLASConfig{QuantumCycles: 100, Alpha: 0.875, StarvationThreshold: 50, ScanDepth: 1}
	tr := NewServiceTracker(2, cfg)
	p := NewATLAS(cfg, tr)
	tr.AddService(0, 100)
	tr.Tick(100)
	starving := &memctrl.Request{ID: 1, Core: 0, Arrival: 0}
	fresh := &memctrl.Request{ID: 2, Core: 1, Arrival: 149}
	v := &memctrl.View{
		Now:       150, // starving request is 150 cycles old > 50
		ReadQueue: []*memctrl.Request{starving, fresh},
		Options: []memctrl.Option{
			{Cmd: dram.Command{Kind: dram.CmdActivate}, Req: fresh},
			{Cmd: dram.Command{Kind: dram.CmdActivate}, Req: starving},
		},
	}
	if got := p.Pick(v); got != 1 {
		t.Fatalf("pick = %d, want the starving request", got)
	}
}

func TestATLASQuantumSmoothing(t *testing.T) {
	cfg := DefaultATLASConfig()
	cfg.QuantumCycles = 100
	tr := NewServiceTracker(1, cfg)
	tr.AddService(0, 80)
	tr.Tick(100)
	// total = 0.875*80 = 70
	if got := tr.total[0]; got != 70 {
		t.Fatalf("smoothed total = %f, want 70", got)
	}
	tr.AddService(0, 0)
	tr.Tick(200)
	// total = 0.875*0 + 0.125*70 = 8.75
	if got := tr.total[0]; got != 8.75 {
		t.Fatalf("smoothed total = %f, want 8.75", got)
	}
}

func TestRLPicksLegalIndicesOnly(t *testing.T) {
	p := NewRL(DefaultRLConfig(), 42)
	for now := uint64(0); now < 3000; now++ {
		opts := []memctrl.Option{
			opt(now, 0, now%2 == 0, dram.CmdRead),
			opt(now+1, 1, false, dram.CmdActivate),
		}
		v := &memctrl.View{Now: now, Options: opts, ReadQLen: 2}
		got := p.Pick(v)
		if got < -1 || got >= len(opts) {
			t.Fatalf("pick out of range: %d", got)
		}
		p.OnIssue(v, got, dram.Command{Kind: dram.CmdRead}, now)
	}
}

func TestRLStarvationOverride(t *testing.T) {
	cfg := DefaultRLConfig()
	cfg.StarvationThreshold = 100
	p := NewRL(cfg, 7)
	old := &memctrl.Request{ID: 1, Core: 0, Arrival: 0}
	young := &memctrl.Request{ID: 2, Core: 1, Arrival: 190}
	v := &memctrl.View{
		Now: 200,
		Options: []memctrl.Option{
			{Cmd: dram.Command{Kind: dram.CmdActivate}, Req: young},
			{Cmd: dram.Command{Kind: dram.CmdActivate}, Req: old},
		},
	}
	if got := p.Pick(v); got != 1 {
		t.Fatalf("pick = %d, want starving request", got)
	}
}

func TestRLLearnsRewardSignal(t *testing.T) {
	// Reward column accesses repeatedly; the Q-value of the rewarded
	// action must rise above the initial zero.
	cfg := DefaultRLConfig()
	p := NewRL(cfg, 9) // train with the default exploration rate
	req := &memctrl.Request{ID: 1, Core: 0, Arrival: 0}
	for now := uint64(1); now < 5000; now++ {
		v := &memctrl.View{Now: now, Options: []memctrl.Option{
			{Cmd: dram.Command{Kind: dram.CmdRead}, Req: req, RowHit: true},
		}, ReadQLen: 1, PendingRowHits: 1}
		got := p.Pick(v)
		issued := dram.Command{Kind: dram.CmdNop}
		if got == 0 {
			issued = dram.Command{Kind: dram.CmdRead}
		}
		p.OnIssue(v, got, issued, now)
	}
	// After training, evaluate greedily: the read action must be
	// preferred over no-op.
	p.cfg.Epsilon = 0
	v := &memctrl.View{Now: 5000, Options: []memctrl.Option{
		{Cmd: dram.Command{Kind: dram.CmdRead}, Req: req, RowHit: true},
	}, ReadQLen: 1, PendingRowHits: 1}
	if got := p.Pick(v); got != 0 {
		t.Fatalf("trained RL still picks %d, want the rewarded read", got)
	}
}

func TestRLConsidersWrites(t *testing.T) {
	var p memctrl.Policy = NewRL(DefaultRLConfig(), 1)
	wa, ok := p.(memctrl.WriteAware)
	if !ok || !wa.ConsidersWrites() {
		t.Fatal("RL must be write-aware")
	}
	for _, k := range []Kind{FRFCFS, FCFSBanks, PARBS, ATLAS} {
		pol := NewFactory(k, 4, 1)(0)
		if _, ok := pol.(memctrl.WriteAware); ok {
			t.Fatalf("%v unexpectedly write-aware", k)
		}
	}
}

func TestFactoryNamesMatchKinds(t *testing.T) {
	for _, k := range Kinds {
		p := NewFactory(k, 8, 3)(0)
		if p.Name() != k.String() {
			t.Fatalf("factory for %v built %q", k, p.Name())
		}
	}
}

func TestATLASSharedTrackerAcrossChannels(t *testing.T) {
	f := NewFactory(ATLAS, 4, 1)
	p0 := f(0).(*ATLASPolicy)
	p1 := f(1).(*ATLASPolicy)
	if p0.tracker != p1.tracker {
		t.Fatal("ATLAS channels must share one service tracker")
	}
}

func TestCoreSlotFoldsDMA(t *testing.T) {
	if coreSlot(-1, 16) != 16 || coreSlot(3, 16) != 3 || coreSlot(99, 16) != 16 {
		t.Fatal("core slot mapping wrong")
	}
}
