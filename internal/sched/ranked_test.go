package sched

import (
	"math/rand"
	"testing"

	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
)

// refNthByRank is the brute-force selection the one-pass pickRanked
// replaced: the n-th queued read under (rank, ID) order, found by
// restarting a selection scan from the best for every step, or nil
// when fewer than n+1 reads are queued.
func refNthByRank(q []*memctrl.Request, rankOf func(*memctrl.Request) int, n int) *memctrl.Request {
	before := func(a, b *memctrl.Request) bool {
		ra, rb := rankOf(a), rankOf(b)
		if ra != rb {
			return ra < rb
		}
		return a.ID < b.ID
	}
	var prev *memctrl.Request
	for k := 0; k <= n; k++ {
		var best *memctrl.Request
		for _, r := range q {
			if prev != nil && !before(prev, r) {
				continue
			}
			if best == nil || before(r, best) {
				best = r
			}
		}
		if best == nil {
			return nil
		}
		prev = best
	}
	return prev
}

// refPick is the ATLAS/QoS Pick as written before the shared helper:
// write drains under FR-FCFS, the starvation override, then depth
// selection scans, each matched against the options in order.
func refPick(v *memctrl.View, threshold uint64, depth int, rankOf func(*memctrl.Request) int) int {
	if v.WriteMode {
		return pickFRFCFS(v)
	}
	best := -1
	for i := range v.Options {
		opt := &v.Options[i]
		if opt.Req.Age(v.Now) < threshold {
			continue
		}
		if best == -1 || opt.Req.ID < v.Options[best].Req.ID {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	for n := 0; n < depth; n++ {
		req := refNthByRank(v.ReadQueue, rankOf, n)
		if req == nil {
			return -1
		}
		for i := range v.Options {
			if v.Options[i].Req == req {
				return i
			}
		}
	}
	return -1
}

// randomRankedView builds an ID-ascending read queue over slots
// tracker slots (plus Core/Tenant values -1 and past the range, which
// fold into the extra slot) and offers options for a random subset of
// it, shuffled, with the occasional duplicate option, foreign request
// and write drain.
func randomRankedView(rng *rand.Rand, slots int) *memctrl.View {
	v := &memctrl.View{Now: 10_000 + uint64(rng.Intn(1_000))}
	qlen := rng.Intn(24)
	if rng.Intn(8) == 0 {
		qlen = 0
	}
	id := uint64(rng.Intn(100))
	pickSrc := func() int { return rng.Intn(slots+3) - 1 }
	for i := 0; i < qlen; i++ {
		id += 1 + uint64(rng.Intn(3))
		r := &memctrl.Request{
			ID: id, Core: pickSrc(), Tenant: pickSrc(),
			Arrival: v.Now - uint64(rng.Intn(1_000)),
		}
		v.ReadQueue = append(v.ReadQueue, r)
		if rng.Intn(3) == 0 {
			continue // queued but no legal command this cycle
		}
		v.Options = append(v.Options, memctrl.Option{Cmd: dram.Command{Kind: dram.CmdActivate}, Req: r})
		if rng.Intn(6) == 0 {
			v.Options = append(v.Options, memctrl.Option{Cmd: dram.Command{Kind: dram.CmdPrecharge}, Req: r})
		}
	}
	if rng.Intn(5) == 0 {
		foreign := &memctrl.Request{ID: id + 1, Kind: memctrl.WriteBack, Arrival: v.Now}
		v.Options = append(v.Options, memctrl.Option{Cmd: dram.Command{Kind: dram.CmdWrite}, Req: foreign, RowHit: true})
	}
	rng.Shuffle(len(v.Options), func(i, j int) { v.Options[i], v.Options[j] = v.Options[j], v.Options[i] })
	v.WriteMode = rng.Intn(10) == 0
	v.ReadQLen = len(v.ReadQueue)
	return v
}

// randomRanks fills a tracker rank table: a permutation (the trackers'
// real output), all-equal ranks, or arbitrary values with ties.
func randomRanks(rng *rand.Rand, rank []int) {
	switch rng.Intn(4) {
	case 0:
		for i, r := range rng.Perm(len(rank)) {
			rank[i] = r
		}
	case 1:
		for i := range rank {
			rank[i] = 0
		}
	default:
		for i := range rank {
			rank[i] = rng.Intn(3)
		}
	}
}

// TestPickRankedMatchesSelectionScan drives ATLAS and QoS through
// seeded random views, per core and per tenant, at scan depths 0-8,
// and requires the one-pass Pick to choose exactly the option the
// repeated selection scans chose. All-zero rank tables drive the scan's
// early exit on a full window of rank-0 requests.
func TestPickRankedMatchesSelectionScan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 4_000; trial++ {
		slots := 1 + rng.Intn(6)
		depth := rng.Intn(9)
		byTenant := rng.Intn(2) == 0
		threshold := uint64(1 << 40)
		if rng.Intn(4) == 0 {
			threshold = 900
		}
		v := randomRankedView(rng, slots)

		var (
			pol    memctrl.Policy
			rankOf func(*memctrl.Request) int
			ref    int
		)
		if trial%2 == 0 {
			cfg := ATLASConfig{QuantumCycles: 1_000, Alpha: 0.875, StarvationThreshold: threshold, ScanDepth: depth}
			tr := NewServiceTracker(slots, cfg)
			randomRanks(rng, tr.rank)
			p := NewATLAS(cfg, tr)
			if byTenant {
				p = NewATLASTenants(cfg, tr)
			}
			pol, rankOf, ref = p, func(r *memctrl.Request) int { return tr.Rank(p.slot(r)) }, scanDepth(depth, 2)
		} else {
			cfg := testQoSConfig()
			cfg.StarvationThreshold, cfg.ScanDepth = threshold, depth
			tr := NewQoSTracker(slots, cfg)
			randomRanks(rng, tr.rank)
			p := NewQoS(cfg, tr, byTenant)
			pol, rankOf, ref = p, func(r *memctrl.Request) int { return tr.Rank(p.slot(r)) }, scanDepth(depth, 4)
		}
		want := refPick(v, threshold, ref, rankOf)
		if got := pol.Pick(v); got != want {
			t.Fatalf("trial %d: %s depth %d byTenant %v queue %d options %d: pick %d, selection scan %d",
				trial, pol.Name(), depth, byTenant, len(v.ReadQueue), len(v.Options), got, want)
		}
	}
}

// TestRankedPickAllocFree: a warmed ATLAS or QoS Pick allocates
// nothing; the scan window is the policy's own scratch.
func TestRankedPickAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := randomRankedView(rng, 4)
	for len(v.ReadQueue) < 8 || v.WriteMode {
		v = randomRankedView(rng, 4)
	}
	atlasTr := NewServiceTracker(4, DefaultATLASConfig())
	qosTr := NewQoSTracker(4, DefaultQoSConfig())
	randomRanks(rng, atlasTr.rank)
	randomRanks(rng, qosTr.rank)
	for _, p := range []memctrl.Policy{
		NewATLAS(DefaultATLASConfig(), atlasTr),
		NewATLASTenants(DefaultATLASConfig(), atlasTr),
		NewQoS(DefaultQoSConfig(), qosTr, true),
		NewQoS(DefaultQoSConfig(), qosTr, false),
	} {
		p.Pick(v)
		if n := testing.AllocsPerRun(100, func() { p.Pick(v) }); n != 0 {
			t.Fatalf("%s Pick allocates %.1f times per call", p.Name(), n)
		}
	}
}

// TestQuantumRolloverAllocFree: re-ranking at a quantum boundary
// reuses the trackers' sort scratch.
func TestQuantumRolloverAllocFree(t *testing.T) {
	acfg := DefaultATLASConfig()
	acfg.QuantumCycles = 100
	atlasTr := NewServiceTracker(16, acfg)
	qosTr := NewQoSTracker(16, testQoSConfig())
	now := uint64(0)
	n := testing.AllocsPerRun(50, func() {
		now += 1_000 // past both quanta: every call re-ranks
		for s := 0; s < 17; s++ {
			atlasTr.AddService(s, float64((s*7+int(now))%13))
			qosTr.AddService(s, float64((s*5+int(now))%11))
			qosTr.ObserveRead(s, uint64(50+(s*31+int(now))%400))
		}
		atlasTr.Tick(now)
		qosTr.Tick(now)
	})
	if n != 0 {
		t.Fatalf("quantum rollover allocates %.1f times", n)
	}
	if atlasTr.NextBoundary() != now+acfg.QuantumCycles || qosTr.NextBoundary() != now+testQoSConfig().QuantumCycles {
		t.Fatal("a Tick past the boundary did not roll the quantum")
	}
}

// TestPARBSBatchFormationAllocFree: forming a batch reuses the
// per-slot load maps and the job list.
func TestPARBSBatchFormationAllocFree(t *testing.T) {
	p := NewPARBS(DefaultPARBSConfig(), 4)
	var q []*memctrl.Request
	for i := 0; i < 32; i++ {
		q = append(q, &memctrl.Request{ID: uint64(i), Core: i%6 - 1,
			Loc: dram.Location{Rank: i % 2, Bank: i % 8, Row: i}})
	}
	v := &memctrl.View{ReadQueue: q, Options: []memctrl.Option{
		{Cmd: dram.Command{Kind: dram.CmdActivate}, Req: q[0]},
	}}
	form := func() {
		p.remaining = 0
		for _, r := range q {
			r.Batched = false
		}
		p.Pick(v)
	}
	form()
	if n := testing.AllocsPerRun(50, form); n != 0 {
		t.Fatalf("PAR-BS batch formation allocates %.1f times", n)
	}
}
