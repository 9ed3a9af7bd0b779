package dram

import (
	"testing"
	"testing/quick"
)

// TestEarliestIssueExact verifies the event-horizon contract on which
// the fast-forward engine rests: for any reachable channel state and
// any candidate command, EarliestIssue returns exactly the first cycle
// CanIssue holds — never later (a skipped legal cycle would change
// scheduling) and never earlier (a late wake-up would too).
func TestEarliestIssueExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int((rng >> 33) % int64(n))
			if v < 0 {
				v = -v
			}
			return v
		}
		c := testChannel()
		check := func(now uint64, cmd Command) bool {
			at := c.EarliestIssue(cmd)
			if at == Never {
				// Must not be legal for a long while without a state
				// change (sample a window).
				for tt := now; tt < now+400; tt += 7 {
					if c.CanIssue(tt, cmd) {
						return false
					}
				}
				return true
			}
			probe := at
			if probe < now {
				probe = now
			}
			if !c.CanIssue(probe, cmd) {
				return false
			}
			if probe > now && probe > 0 && c.CanIssue(probe-1, cmd) {
				return false
			}
			return true
		}
		for now := uint64(0); now < 2000; now++ {
			// Probe a few random candidates against the current state.
			for i := 0; i < 3; i++ {
				kind := CommandKind(1 + next(4))
				l := loc(next(2), next(4), next(16), next(32))
				if (kind == CmdRead || kind == CmdWrite) && next(2) == 0 {
					if row, open := c.OpenRow(l.Rank, l.Bank); open {
						l.Row = row
					}
				}
				if !check(now, Command{Kind: kind, Loc: l}) {
					return false
				}
			}
			// Advance the state with a random legal command.
			kind := CommandKind(1 + next(4))
			l := loc(next(2), next(4), next(16), next(32))
			if kind == CmdRead || kind == CmdWrite {
				if row, open := c.OpenRow(l.Rank, l.Bank); open {
					l.Row = row
				}
			}
			cmd := Command{Kind: kind, Loc: l}
			if c.CanIssue(now, cmd) {
				c.Issue(now, cmd)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestBankNextEventAccessors pins the per-bank horizon methods to the
// legality predicates they mirror.
func TestBankNextEventAccessors(t *testing.T) {
	c := testChannel()
	l := loc(0, 0, 7, 0)
	b := c.Bank(0, 0)

	if got := b.NextActivateAt(); got != 0 {
		t.Fatalf("idle bank NextActivateAt = %d, want 0", got)
	}
	if got := b.NextColumnAt(7); got != Never {
		t.Fatalf("idle bank NextColumnAt = %d, want Never", got)
	}
	if got := b.NextPrechargeAt(); got != Never {
		t.Fatalf("idle bank NextPrechargeAt = %d, want Never", got)
	}

	c.Issue(0, Command{Kind: CmdActivate, Loc: l})
	if got, want := b.NextColumnAt(7), uint64(c.Tim.RCD); got != want {
		t.Fatalf("NextColumnAt after ACT = %d, want tRCD=%d", got, want)
	}
	if got := b.NextColumnAt(8); got != Never {
		t.Fatalf("NextColumnAt other row = %d, want Never", got)
	}
	if got, want := b.NextPrechargeAt(), uint64(c.Tim.RAS); got != want {
		t.Fatalf("NextPrechargeAt after ACT = %d, want tRAS=%d", got, want)
	}
	if got := b.NextActivateAt(); got != Never {
		t.Fatalf("active bank NextActivateAt = %d, want Never", got)
	}
}

// TestRankNextActivateAt pins the rank-level tRRD/tFAW horizon.
func TestRankNextActivateAt(t *testing.T) {
	c := testChannel()
	r := &c.Ranks[0]
	if got := r.NextActivateAt(&c.Tim); got != 0 {
		t.Fatalf("fresh rank NextActivateAt = %d, want 0", got)
	}
	now := uint64(0)
	for bank := 0; bank < 4; bank++ {
		cmd := Command{Kind: CmdActivate, Loc: loc(0, bank, 1, 0)}
		at := c.EarliestIssue(cmd)
		if at < now {
			at = now
		}
		c.Issue(at, cmd)
		now = at + 1
	}
	// Four activates issued: the window constraint must now bind.
	got := r.NextActivateAt(&c.Tim)
	if want := r.actTimes[0] + uint64(c.Tim.FAW); got != want {
		t.Fatalf("NextActivateAt after 4 ACTs = %d, want tFAW bound %d", got, want)
	}
}

// TestCrossBankFamilies pins the cross-bank property the controller's
// earliest-issue memos rest on. Over random legal command streams, for
// every probe command to a bank other than the one just issued to:
//
//   - never lower: the issued command never lowers the probe's
//     EarliestIssue;
//   - moves only through its family: the probe's EarliestIssue changes
//     only when the issued command and the probe are both ACTIVATEs to
//     one rank (tRRD/tFAW), or both column commands (the data bus,
//     tWTR, the read-to-write turnaround).
//
// Both sides are clamped to the issue cycle + 1, which takes the
// command bus out: it moves every probe alike. Ranks have 8 banks and
// the stream issues bursts of ACTIVATEs to one rank, so tFAW binds.
//
// The test catches a command that frees a threshold, or moves one
// outside its family. It does not catch an ACTIVATE that forgets its
// tFAW window: that bug raises a threshold by less than it should, and
// only a check written from the timing table itself (the DDR3
// protocol checker on ROADMAP) can see it.
func TestCrossBankFamilies(t *testing.T) {
	geo := Geometry{Channels: 1, Ranks: 2, Banks: 8, Rows: 1 << 10, Columns: 32, BlockBytes: 64}
	kinds := [...]CommandKind{CmdActivate, CmdPrecharge, CmdRead, CmdWrite}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % uint64(n))
		}
		c := NewChannel(0, geo, DDR3_1600())
		// command builds a command of the given kind; a column command
		// targets the open row, so that it can become legal.
		command := func(kind CommandKind, rank, bank, row int) Command {
			l := loc(rank, bank, row, 0)
			if open, ok := c.OpenRow(rank, bank); ok && kind.IsColumn() {
				l.Row = open
			}
			return Command{Kind: kind, Loc: l}
		}
		var probes []Command
		var before []uint64
		now, burst, burstRank := uint64(0), 0, 0
		for step := 0; step < 2000; step++ {
			// A burst issues ACTIVATEs to idle banks of one rank as early
			// as the rank allows. Otherwise the stream issues the
			// earliest of a few random commands, so the bus, bank and
			// window thresholds stay close to now.
			cmd, at := Command{}, uint64(Never)
			if burst == 0 && next(6) == 0 {
				burst, burstRank = 5+next(4), next(geo.Ranks)
			}
			if burst > 0 {
				burst--
				first := next(geo.Banks)
				for i := 0; i < geo.Banks; i++ {
					if b := (first + i) % geo.Banks; c.Bank(burstRank, b).State == BankIdle {
						cmd = command(CmdActivate, burstRank, b, next(16))
						at = c.EarliestIssue(cmd)
						break
					}
				}
			}
			for i := 0; i < 4 && at == Never; i++ {
				for j := 0; j < 4; j++ {
					cand := command(kinds[next(len(kinds))], next(geo.Ranks), next(geo.Banks), next(16))
					if a := c.EarliestIssue(cand); a < at {
						cmd, at = cand, a
					}
				}
			}
			if at == Never {
				continue
			}
			now = max(now, at)

			probes, before = probes[:0], before[:0]
			for rank := 0; rank < geo.Ranks; rank++ {
				for bank := 0; bank < geo.Banks; bank++ {
					if rank == cmd.Loc.Rank && bank == cmd.Loc.Bank {
						continue
					}
					for _, k := range kinds {
						p := command(k, rank, bank, 1)
						probes = append(probes, p)
						before = append(before, c.EarliestIssue(p))
					}
				}
			}
			c.Issue(now, cmd)
			for i, p := range probes {
				was, is := max(before[i], now+1), max(c.EarliestIssue(p), now+1)
				if is < was {
					t.Fatalf("seed %d: %v at %d lowered %v's earliest issue from %d to %d", seed, cmd, now, p, was, is)
				}
				family := (cmd.Kind == CmdActivate && p.Kind == CmdActivate && cmd.Loc.Rank == p.Loc.Rank) ||
					(cmd.Kind.IsColumn() && p.Kind.IsColumn())
				if is != was && !family {
					t.Fatalf("seed %d: %v at %d moved %v's earliest issue from %d to %d outside its family", seed, cmd, now, p, was, is)
				}
			}
		}
	}
}
