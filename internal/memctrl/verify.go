package memctrl

import (
	"fmt"

	"cloudmc/internal/dram"
)

// This file is diagnostic/test support for the event-horizon machinery:
// a brute-force, cycle-by-cycle re-derivation of "when could this
// parked controller act" from the raw legality rules, independent of
// the candidate groups' earliest-issue memos and of
// dram.Channel.EarliestIssue. The exactness property suites (memctrl
// horizon tests and the core kernel differential tests) call it
// whenever a controller parks; production code never does.

// ParkHorizon returns the controller's established event horizon: the
// earliest future cycle at which its state can change, or 0 when the
// horizon is unknown and the next tick runs in full. In-flight
// completions are not part of it (NextEvent folds those in).
func (c *Controller) ParkHorizon() uint64 { return c.wakeAt }

// VerifyParkHorizon checks that the event horizon established at
// cycle now is exact, by replaying the parked window cycle by cycle
// against dram.Channel.CanIssue:
//
//   - never late: no queued request's next command, no surviving
//     pending close and no policy event becomes actionable strictly
//     before wakeAt;
//   - never early: at wakeAt itself something is actionable (unless
//     the horizon is Never or was clamped to now+1, where there is no
//     skipped window to verify).
//
// The scan is capped at maxScan cycles past now; a horizon further
// out than the cap is only checked for lateness within the cap. The
// check is pure — no controller, policy or device state is mutated —
// so tests can call it at every park without perturbing the replay.
func (c *Controller) VerifyParkHorizon(now uint64, maxScan uint64) error {
	if !c.fastPath || c.wakeAt == 0 || c.wakeAt <= now+1 {
		return nil // hot or unknown: no skipped window
	}

	// actionable reports whether any option (or surviving pending
	// close) would be legal at cycle t, from the same queue selection
	// the parking fold used and the same per-request commands
	// buildOptions would generate. Bank and queue state are frozen
	// while parked, so evaluating the predicate at future t against
	// current state is exactly what the per-cycle loop would see. So is
	// the queue mode: only a full tick moves the drain flag, and a
	// queued request ends the park.
	mode := c.queueMode(considersWrites(c.policy))
	actionable := func(t uint64) bool {
		check := func(q []*Request) bool {
			for _, r := range q {
				if c.ch.CanIssue(t, c.commandFor(r)) {
					return true
				}
			}
			return false
		}
		if mode != modeWrites && check(c.readQ) {
			return true
		}
		if mode != modeReads && check(c.writeQ) {
			return true
		}
		for b, pending := range c.pendingClose {
			if !pending {
				continue
			}
			rank := b / c.ch.Geo.Banks
			bankNo := b % c.ch.Geo.Banks
			bank := c.ch.Bank(rank, bankNo)
			if bank.State != dram.BankActive {
				continue
			}
			cmd := dram.Command{Kind: dram.CmdPrecharge, Loc: dram.Location{
				Channel: c.ch.ID, Rank: rank, Bank: bankNo, Row: bank.OpenRow,
			}}
			if c.ch.CanIssue(t, cmd) {
				return true
			}
		}
		return false
	}

	policyEvent := uint64(dram.Never)
	if eh, ok := c.policy.(EventHorizon); ok {
		policyEvent = eh.NextPolicyEvent(now)
	}

	limit := c.wakeAt
	capped := false
	if maxScan > 0 && limit-now > maxScan {
		limit = now + maxScan
		capped = true
	}
	for t := now + 1; t < limit; t++ {
		if actionable(t) {
			return fmt.Errorf("memctrl: late horizon: actionable at cycle %d but parked until %d (established at %d)", t, c.wakeAt, now)
		}
		if policyEvent <= t {
			return fmt.Errorf("memctrl: late horizon: policy event at %d but parked until %d (established at %d)", policyEvent, c.wakeAt, now)
		}
	}
	if capped || c.wakeAt == dram.Never {
		return nil
	}
	if !actionable(c.wakeAt) && policyEvent != c.wakeAt {
		return fmt.Errorf("memctrl: early horizon: nothing actionable at wake cycle %d (established at %d)", c.wakeAt, now)
	}
	return nil
}

// VerifyCandidateGroups checks the incremental candidate-group index
// (groups.go) against first principles: the structural invariants the
// maintenance paths promise, the earliest-issue memos against
// dram.Channel.EarliestIssue, then a behavioral comparison of
// buildOptions against buildOptionsRef, the preserved straight-port
// rebuild. It is the group-index twin of VerifyParkHorizon; the
// property suites call it between ticks, production code never does.
//
// Precondition: call at a cycle boundary, before any command has been
// issued at cycle now. The memo argument (see memo) relies on the
// command bus being untouched this cycle; calling mid-tick after an
// issue can report false mismatches. The check rebuilds c.view —
// state the next tick would recompute anyway — but issues nothing and
// consults no policy. The memos (bounds, kinds and stamps) are
// restored on return, so a verified run carries the same memos from
// tick to tick as an unverified one.
func (c *Controller) VerifyCandidateGroups(now uint64) error {
	// Structural pass. Live handles are the ones reachable from the
	// per-bank group lists; together with the free list they must
	// partition the arena.
	live := make(map[int32]int32, len(c.grp)) // handle -> bankIdx
	rows := make(map[int64]bool)              // bankIdx<<32|row dedup
	for bk, handles := range c.bankGroups {
		for _, h := range handles {
			if h < 0 || int(h) >= len(c.grp) {
				return fmt.Errorf("memctrl: groups: bank %d lists out-of-range handle %d", bk, h)
			}
			if _, ok := live[h]; ok {
				return fmt.Errorf("memctrl: groups: handle %d listed by two banks", h)
			}
			live[h] = int32(bk)
			g := &c.grp[h]
			if g.bank != int32(bk) {
				return fmt.Errorf("memctrl: groups: handle %d in bank %d claims bank %d", h, bk, g.bank)
			}
			if int(g.rankNo)*c.ch.Geo.Banks+int(g.bankNo) != bk {
				return fmt.Errorf("memctrl: groups: handle %d rank/bank %d/%d disagrees with bank index %d", h, g.rankNo, g.bankNo, bk)
			}
			if g.bankRef != c.ch.Bank(int(g.rankNo), int(g.bankNo)) {
				return fmt.Errorf("memctrl: groups: handle %d has a stale bank pointer", h)
			}
			if len(g.reads) == 0 && len(g.writes) == 0 {
				return fmt.Errorf("memctrl: groups: handle %d is live but empty", h)
			}
			key := int64(g.bank)<<32 | int64(int32(g.row))
			if rows[key] {
				return fmt.Errorf("memctrl: groups: bank %d row %d has two groups", bk, g.row)
			}
			rows[key] = true
			for _, lst := range [][]*Request{g.reads, g.writes} {
				for i, r := range lst {
					if r.Loc.Row != g.row || r.Loc.Rank != int(g.rankNo) || r.Loc.Bank != int(g.bankNo) {
						return fmt.Errorf("memctrl: groups: request %d filed in wrong group (bank %d row %d)", r.ID, bk, g.row)
					}
					if i > 0 && lst[i-1].ID >= r.ID {
						return fmt.Errorf("memctrl: groups: handle %d list not ID-ascending at request %d", h, r.ID)
					}
				}
			}
		}
	}
	for _, h := range c.grpFree {
		if h < 0 || int(h) >= len(c.grp) {
			return fmt.Errorf("memctrl: groups: free list holds out-of-range handle %d", h)
		}
		if _, ok := live[h]; ok {
			return fmt.Errorf("memctrl: groups: handle %d is both live and free", h)
		}
	}
	if len(live)+len(c.grpFree) != len(c.grp) {
		return fmt.Errorf("memctrl: groups: arena of %d entries splits into %d live + %d free", len(c.grp), len(live), len(c.grpFree))
	}

	// Every queued request must be filed in its group's kind list, and
	// the totals must match (so no group holds a stale extra).
	nFiled := 0
	for h := range live { //mclint:order-insensitive -- summing sizes
		nFiled += len(c.grp[h].reads) + len(c.grp[h].writes)
	}
	if nFiled != len(c.readQ)+len(c.writeQ) {
		return fmt.Errorf("memctrl: groups: %d requests filed, %d queued", nFiled, len(c.readQ)+len(c.writeQ))
	}
	find := func(r *Request) error {
		bk := int32(r.Loc.Rank*c.ch.Geo.Banks + r.Loc.Bank)
		for _, h := range c.bankGroups[bk] {
			g := &c.grp[h]
			if g.row != r.Loc.Row {
				continue
			}
			lst := g.reads
			if r.Kind.IsWrite() {
				lst = g.writes
			}
			for _, x := range lst {
				if x == r {
					return nil
				}
			}
		}
		return fmt.Errorf("memctrl: groups: queued request %d not filed in any group", r.ID)
	}
	for _, r := range c.readQ {
		if err := find(r); err != nil {
			return err
		}
	}
	for _, r := range c.writeQ {
		if err := find(r); err != nil {
			return err
		}
	}

	// Order arrays: exactly the groups holding that kind, ascending by
	// oldest-member ID.
	checkOrder := func(name string, order []int32, writes bool) error {
		seen := make(map[int32]bool, len(order))
		prev := uint64(0)
		for i, h := range order {
			if _, ok := live[h]; !ok {
				return fmt.Errorf("memctrl: groups: %s holds dead handle %d", name, h)
			}
			if seen[h] {
				return fmt.Errorf("memctrl: groups: %s holds handle %d twice", name, h)
			}
			seen[h] = true
			key := c.orderKey(h, writes)
			if i > 0 && key <= prev {
				return fmt.Errorf("memctrl: groups: %s not key-ascending at handle %d", name, h)
			}
			prev = key
		}
		want := 0
		for h := range live { //mclint:order-insensitive -- membership count; order picks at most which error reports first
			n := len(c.grp[h].reads)
			if writes {
				n = len(c.grp[h].writes)
			}
			if n > 0 {
				want++
				if !seen[h] {
					return fmt.Errorf("memctrl: groups: handle %d missing from %s", h, name)
				}
			}
		}
		if want != len(order) {
			return fmt.Errorf("memctrl: groups: %s lists %d groups, want %d", name, len(order), want)
		}
		return nil
	}
	if err := checkOrder("readOrder", c.readOrder, false); err != nil {
		return err
	}
	if err := checkOrder("writeOrder", c.writeOrder, true); err != nil {
		return err
	}

	// Earliest-issue memos of both kinds, checked before the builds
	// below recompute them: each group's read memo over readOrder, its
	// write memo over writeOrder, whatever the mode. No bound may exceed
	// the cycle its request's next command becomes legal, and a set
	// bound's row-hit flag and kind must name that command. A set bound
	// whose family count is unchanged is a memo the next build trusts
	// (see memo): a cycle past now must be exact, and one at or before
	// now must still be legal now. A reset missed after a bank command
	// or a group's reuse, or a family count missed by issueCmd, shows
	// here before it changes an option list or a park horizon.
	for w, order := range [2][]int32{c.readOrder, c.writeOrder} {
		if len(c.grpBound[w]) != len(c.grp) {
			return fmt.Errorf("memctrl: groups: %d earliest-issue bounds of kind %d for an arena of %d", len(c.grpBound[w]), w, len(c.grp))
		}
		for _, h := range order {
			g := &c.grp[h]
			cmd := c.commandFor(g.rep(w))
			b, at := c.grpBound[w][h], c.ch.EarliestIssue(cmd)
			if b>>1 > at {
				return fmt.Errorf("memctrl: groups: handle %d (bank %d row %d) has earliest-issue bound %d past its %v's earliest issue %d",
					h, g.bank, g.row, b>>1, cmd.Kind, at)
			}
			if b == 0 {
				continue
			}
			if (b&1 == 1) != (cmd.Kind >= dram.CmdRead) || g.optKind[w] != cmd.Kind {
				return fmt.Errorf("memctrl: groups: handle %d (bank %d row %d) has memo %v with row-hit flag %d but its next command is %v",
					h, g.bank, g.row, g.optKind[w], b&1, cmd.Kind)
			}
			if g.stamp[w] != c.familyCount(g.optKind[w], g.rankNo) {
				continue // its family moved: a lower bound only
			}
			if m := b >> 1; (m > now && m != at) || (m <= now && at > now) {
				return fmt.Errorf("memctrl: groups: handle %d (bank %d row %d) memoizes its %v at %d, but its earliest issue is %d at cycle %d",
					h, g.bank, g.row, cmd.Kind, m, at, now)
			}
		}
	}
	savedBound := [2][]uint64{append([]uint64(nil), c.grpBound[0]...), append([]uint64(nil), c.grpBound[1]...)}
	savedGrp := append([]group(nil), c.grp...)
	defer func() {
		copy(c.grpBound[0], savedBound[0])
		copy(c.grpBound[1], savedBound[1])
		for h := range savedGrp {
			c.grp[h].optKind, c.grp[h].stamp = savedGrp[h].optKind, savedGrp[h].stamp
		}
	}()

	// Behavioral pass: the incremental build must reproduce the
	// reference rebuild bit for bit, in every queue-selection mode the
	// current state can express.
	for _, mixed := range []bool{false, true} {
		ref, refHits := c.buildOptionsRef(now, mixed)
		c.buildOptions(now, mixed)
		got, gotHits := c.view.Options, c.view.PendingRowHits
		if len(got) != len(ref) {
			return fmt.Errorf("memctrl: groups: mixed=%v: %d options, reference built %d", mixed, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				return fmt.Errorf("memctrl: groups: mixed=%v: option %d = %+v, reference built %+v", mixed, i, got[i], ref[i])
			}
		}
		if gotHits != refHits {
			return fmt.Errorf("memctrl: groups: mixed=%v: PendingRowHits %d, reference counted %d", mixed, gotHits, refHits)
		}
	}
	return nil
}
