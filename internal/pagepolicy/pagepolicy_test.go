package pagepolicy

import (
	"math/rand"
	"testing"

	"cloudmc/internal/dram"
)

func ctx(pendingSame, pendingOther, accesses int) CloseContext {
	return CloseContext{
		Loc:             dram.Location{Rank: 0, Bank: 0, Row: 7},
		Accesses:        accesses,
		PendingSameRow:  pendingSame,
		PendingOtherRow: pendingOther,
	}
}

func TestOpenNeverCloses(t *testing.T) {
	p := NewOpen()
	if p.ShouldClose(ctx(0, 5, 1)) || p.ShouldClose(ctx(0, 0, 10)) {
		t.Fatal("open policy closed a row")
	}
}

func TestCloseAlwaysCloses(t *testing.T) {
	p := NewClose()
	if !p.ShouldClose(ctx(3, 0, 1)) {
		t.Fatal("close policy kept a row open under pending hits")
	}
}

func TestOpenAdaptiveRules(t *testing.T) {
	p := NewOpenAdaptive()
	if p.ShouldClose(ctx(1, 3, 1)) {
		t.Fatal("OAPM closed with pending same-row work")
	}
	if p.ShouldClose(ctx(0, 0, 1)) {
		t.Fatal("OAPM closed with no pending other-row work")
	}
	if !p.ShouldClose(ctx(0, 2, 1)) {
		t.Fatal("OAPM kept row open against pending other-row work")
	}
}

func TestCloseAdaptiveRules(t *testing.T) {
	p := NewCloseAdaptive()
	if p.ShouldClose(ctx(1, 0, 1)) {
		t.Fatal("CAPM closed with pending same-row work")
	}
	if !p.ShouldClose(ctx(0, 0, 1)) {
		t.Fatal("CAPM kept an idle row open")
	}
}

func TestRBPPClosesUntrackedRowsImmediately(t *testing.T) {
	p := NewRBPP(4)
	if !p.ShouldClose(ctx(0, 0, 1)) {
		t.Fatal("RBPP kept an untracked row open")
	}
	if p.ShouldClose(ctx(2, 0, 1)) {
		t.Fatal("RBPP closed under pending same-row work")
	}
}

func TestRBPPTracksRowsWithHits(t *testing.T) {
	p := NewRBPP(4)
	loc := dram.Location{Rank: 0, Bank: 0, Row: 7}
	// The row closes having served 4 accesses (3 hits): it earns a
	// register predicting 3 hits.
	p.OnRowClosed(loc, 4, false)
	// Next activation: with only 2 accesses so far, keep open.
	if p.ShouldClose(CloseContext{Loc: loc, Accesses: 2}) {
		t.Fatal("RBPP closed before predicted hits were served")
	}
	// At 4 accesses the prediction is met: close.
	if !p.ShouldClose(CloseContext{Loc: loc, Accesses: 4}) {
		t.Fatal("RBPP kept row open past its prediction")
	}
}

func TestRBPPDropsRowsThatStopHitting(t *testing.T) {
	p := NewRBPP(4)
	loc := dram.Location{Rank: 0, Bank: 0, Row: 7}
	p.OnRowClosed(loc, 4, false) // tracked
	p.OnRowClosed(loc, 1, true)  // single access: register revoked
	if !p.ShouldClose(CloseContext{Loc: loc, Accesses: 1}) {
		t.Fatal("revoked row still treated as tracked")
	}
}

func TestRBPPEvictsLRURegister(t *testing.T) {
	p := NewRBPP(2)
	mk := func(row int) dram.Location { return dram.Location{Rank: 0, Bank: 0, Row: row} }
	p.OnRowClosed(mk(1), 3, false)
	p.OnRowClosed(mk(2), 3, false)
	// Touch row 1 so row 2 is LRU, then insert row 3.
	p.lookup(mk(1))
	p.OnRowClosed(mk(3), 5, false)
	if _, tracked := p.lookup(mk(2)); tracked {
		t.Fatal("LRU register not evicted")
	}
	if _, tracked := p.lookup(mk(1)); !tracked {
		t.Fatal("recently used register evicted")
	}
	if hits, tracked := p.lookup(mk(3)); !tracked || hits != 4 {
		t.Fatalf("new register = (%d, %v), want (4, true)", hits, tracked)
	}
}

func TestABPPStaysOpenWithoutHistory(t *testing.T) {
	p := NewABPP(4)
	if p.ShouldClose(ctx(0, 5, 1)) {
		t.Fatal("ABPP closed a row with no table entry")
	}
}

func TestABPPFollowsLastActivationHits(t *testing.T) {
	p := NewABPP(4)
	loc := dram.Location{Rank: 0, Bank: 0, Row: 9}
	p.OnRowClosed(loc, 3, false) // 2 hits last time
	if p.ShouldClose(CloseContext{Loc: loc, Accesses: 2}) {
		t.Fatal("ABPP closed before predicted hits")
	}
	if !p.ShouldClose(CloseContext{Loc: loc, Accesses: 3}) {
		t.Fatal("ABPP kept row open past prediction")
	}
}

func TestABPPRecordsZeroHitActivations(t *testing.T) {
	p := NewABPP(4)
	loc := dram.Location{Rank: 0, Bank: 0, Row: 9}
	p.OnRowClosed(loc, 1, true) // single access, conflict close
	// Prediction is now zero hits: close right after the first access.
	if !p.ShouldClose(CloseContext{Loc: loc, Accesses: 1}) {
		t.Fatal("ABPP ignored its zero-hit history")
	}
}

func TestABPPNeverClosesUnderPendingHits(t *testing.T) {
	p := NewABPP(4)
	loc := dram.Location{Rank: 0, Bank: 0, Row: 9}
	p.OnRowClosed(loc, 1, true)
	if p.ShouldClose(CloseContext{Loc: loc, Accesses: 1, PendingSameRow: 1}) {
		t.Fatal("ABPP closed under a pending row hit")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Open", "Close", "OpenAdaptive", "CloseAdaptive", "RBPP", "ABPP"} {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) failed", name)
		}
		if p.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, ok := ByName("Bogus"); ok {
		t.Fatal("bogus policy name accepted")
	}
}

func TestPoliciesAreIndependentPerBank(t *testing.T) {
	p := NewRBPP(2)
	a := dram.Location{Rank: 0, Bank: 0, Row: 5}
	b := dram.Location{Rank: 0, Bank: 1, Row: 5} // same row id, other bank
	p.OnRowClosed(a, 4, false)
	if _, tracked := p.lookup(b); tracked {
		t.Fatal("register leaked across banks")
	}
}

// TestShouldCloseRepeatContract checks the Policy.ShouldClose contract
// on all six policies. Twin instances replay one random, legal per-bank
// stream of OnActivate, ShouldClose and OnRowClosed calls; the second
// twin adds 0–3 repeats after each ShouldClose, each one either of that
// call or of the last call of another open bank. Every original call
// must return the same answer on both twins, and every repeat the
// answer of the call it repeats. One to three registers per bank over
// up to a dozen rows make the predictive policies evict, so a repeat
// that moved a register's LRU rank would change a later answer.
func TestShouldCloseRepeatContract(t *testing.T) {
	policies := []struct {
		name string
		mk   func(regs int) Policy
	}{
		{"Open", func(int) Policy { return NewOpen() }},
		{"Close", func(int) Policy { return NewClose() }},
		{"OpenAdaptive", func(int) Policy { return NewOpenAdaptive() }},
		{"CloseAdaptive", func(int) Policy { return NewCloseAdaptive() }},
		{"RBPP", func(regs int) Policy { return NewRBPP(regs) }},
		{"ABPP", func(regs int) Policy { return NewABPP(regs) }},
	}
	banks := []dram.Location{
		{Channel: 0, Rank: 0, Bank: 0}, {Channel: 0, Rank: 0, Bank: 1},
		{Channel: 0, Rank: 1, Bank: 0}, {Channel: 1, Rank: 0, Bank: 0},
	}
	type bankState struct {
		open     bool
		loc      dram.Location // Row is the open row
		accesses int
		asked    bool         // ShouldClose was called this activation
		last     CloseContext // the last call's context
		answer   bool         // and its answer
	}
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				regs, rows := 1+rng.Intn(3), 2+rng.Intn(11)
				orig, twin := pol.mk(regs), pol.mk(regs)
				var st [4]bankState
				for step := 0; step < 1500; step++ {
					bi := rng.Intn(len(banks))
					s := &st[bi]
					switch {
					case !s.open:
						s.loc = banks[bi]
						s.loc.Row = rng.Intn(rows)
						s.open, s.accesses, s.asked = true, 0, false
						orig.OnActivate(s.loc)
						twin.OnActivate(s.loc)
						continue
					case rng.Intn(5) == 0:
						conflict := rng.Intn(2) == 0
						orig.OnRowClosed(s.loc, s.accesses, conflict)
						twin.OnRowClosed(s.loc, s.accesses, conflict)
						s.open = false
						continue
					}
					// A column access, or a re-validation under new
					// queue contents.
					if s.accesses == 0 || rng.Intn(2) == 0 {
						s.accesses++
					}
					ctx := CloseContext{Loc: s.loc, Accesses: s.accesses, PendingOtherRow: rng.Intn(3)}
					if rng.Intn(3) == 0 {
						ctx.PendingSameRow = 1 + rng.Intn(2)
					}
					want := orig.ShouldClose(ctx)
					if got := twin.ShouldClose(ctx); got != want {
						t.Fatalf("seed %d step %d: ShouldClose(%+v) = %v after repeats, %v without", seed, step, ctx, got, want)
					}
					s.asked, s.last, s.answer = true, ctx, want
					for n := rng.Intn(4); n > 0; n-- {
						r := &st[rng.Intn(len(st))]
						if !r.open || !r.asked {
							r = s
						}
						if got := twin.ShouldClose(r.last); got != r.answer {
							t.Fatalf("seed %d step %d: repeated ShouldClose(%+v) = %v, first call %v", seed, step, r.last, got, r.answer)
						}
					}
				}
			}
		})
	}
}
