package memctrl

import "cloudmc/internal/dram"

// This file maintains the candidate-group index: one live entry per
// (bankIdx, row) holding the queued requests of that group, kept
// incrementally by the enqueue and remove paths (EnqueueRead and
// EnqueueWrite file a request as they queue it, removeRequest takes it
// out) so the busy-path option builder is O(live groups) with cached
// legality instead of O(queued requests) with a full per-tick rebuild.
// The index is the authoritative input of buildOptions and serves only
// the controller; buildOptionsRef (the straight-port per-tick rebuild
// it replaced) survives as the reference twin that
// VerifyCandidateGroups and the property suites compare against.
//
// Ordering invariant. The option list must reproduce the reference
// rebuild bit for bit, and the reference emits groups in first-
// appearance order scanning the primary queue then the secondary one.
// Queues hold requests in ascending ID order (IDs are assigned at
// enqueue and removal preserves order), so first appearance in a
// queue is ascending min-ID-in-that-queue. The index therefore keeps
// two order arrays: readOrder (every group with >= 1 queued read,
// ascending by the ID of its oldest read) and writeOrder (likewise
// for writes). modeReads iterates readOrder, modeWrites writeOrder,
// and modeBoth iterates readOrder then the read-free suffix of
// writeOrder — exactly the reference's read-queue-then-write-queue
// first-appearance order.
//
// Maintenance is cheap because IDs are monotone: a request entering a
// group is always its newest member, so a group entering an order
// array goes to the tail (its min ID exceeds every older group's) and
// an enqueue never reorders anything. Removal pops some request —
// when it was the group's oldest of its kind the group's sort key
// grows, so it is deleted at its old key and re-inserted at the new
// one (two binary searches plus memmoves over int32 handles).
//
// Arena. A live group holds at least one queued request, so no more
// than ReadQueueCap + WriteQueueCap groups are ever live. New sizes the
// arena, its bound arrays and the free list for that many once, with
// every handle free; allocGroup only pops the free list.
//
// Earliest-issue memos. A group keeps one memo per request kind: the
// next command of its oldest read, and that of its oldest write. A
// memo's cycle is the group's word in grpBound[w] (w = 0 for reads, 1
// for writes): the cycle that command becomes legal, shifted left one
// bit, with a row-hit flag (the command is a column access) in the low
// bit, or 0 when unknown. Beside it the group keeps the command's kind
// and a stamp of that kind's cross-bank family (see memo). A kind's
// memo depends on the group's bank, its row and the kind alone, so it
// does not depend on the queue mode: modeReads reads the read memos,
// modeWrites the write memos, and modeBoth each group's
// representative's. Every build skips a group whose bound lies past now
// without calling dram, and counts its flag toward PendingRowHits;
// every other group asks memo, which stores what it recomputes.
//
// A bound is exact when stored and stays a lower bound. A command to
// another bank can only raise thresholds of its own family, and a
// group's command kind depends only on its own bank's state. So only
// two events can make a group's next command earlier, and each zeroes
// its bounds of both kinds:
//   - a command to the group's bank: issueCmd, the controller's one
//     path to dram.Channel.Issue, zeroes the bank's groups before the
//     issue can free any of them;
//   - a new group: allocGroup zeroes the handle it pops.
//
// The park fold (idleHorizon) skips on the same bounds and asks memo
// for every group it does consider, over the order array of each kind
// the parking tick's mode considers.

// group is one live candidate group: the queued requests targeting a
// single (bankIdx, row), split by kind and held oldest-first, plus the
// kinds and stamps of its two earliest-issue memos (see memo). The
// memos' cycles live outside the struct, in the dense
// Controller.grpBound, so the skip test touches one word.
type group struct {
	row    int
	bank   int32 // bankIdx = rank*banks + bank
	rankNo int32 // bank's rank — stored so the hot path never divides
	bankNo int32 // bank number within the rank
	// optKind[w] is the command behind a non-zero bound of kind w, and
	// stamp[w] the count of that command's family when it was
	// computed. optKind fills the padding after bankNo, so the struct
	// stays at 88 bytes (TestGroupSize).
	optKind [2]dram.CommandKind

	// bankRef points at the group's dram bank. dram.Channel never
	// reallocates its Ranks or Banks slices after construction, so the
	// pointer is stable and saves the memo a double slice index.
	bankRef *dram.Bank

	// reads and writes hold the group's queued requests in ascending
	// ID order; index 0 is the group's oldest of that kind.
	//mclint:owns -- groupRemove pops the request from its group at issue/forward time, before its recycle; popGroupReq nils the vacated slot
	reads []*Request
	//mclint:owns -- groupRemove pops the request from its group at issue/coalesce time, before its recycle; popGroupReq nils the vacated slot
	writes []*Request

	stamp [2]uint32
}

// allocGroup pops a group entry from the free list and initializes it
// for r's (row, bank), with both earliest-issue bounds unknown. The
// list cannot run dry: the arena has a handle for every request the
// queues can hold (see New). It is a stack, so a controller reuses the
// handles it freed last, and their request slices keep their capacity
// across recycling: a steady-state controller allocates nothing.
func (c *Controller) allocGroup(r *Request, bank int32) int32 {
	n := len(c.grpFree)
	h := c.grpFree[n-1]
	c.grpFree = c.grpFree[:n-1]
	c.grpBound[0][h], c.grpBound[1][h] = 0, 0
	g := &c.grp[h]
	g.row, g.bank = r.Loc.Row, bank
	g.rankNo, g.bankNo = int32(r.Loc.Rank), int32(r.Loc.Bank)
	g.bankRef = c.ch.Bank(r.Loc.Rank, r.Loc.Bank)
	g.reads = g.reads[:0]
	g.writes = g.writes[:0]
	return h
}

// groupEnqueue files a freshly queued r into its (bankIdx, row) group,
// creating the group if needed. O(groups in r's bank) for the row
// lookup — a handful — and O(1) for the order arrays: r is the newest
// request in the index, so a group it creates (or gives its first
// request of r's kind) has the largest min-ID key and belongs at the
// tail. The enqueue paths call it for every request they queue, in ID
// order.
func (c *Controller) groupEnqueue(r *Request) {
	bk := int32(r.Loc.Rank*c.ch.Geo.Banks + r.Loc.Bank)
	h := int32(-1)
	for _, gh := range c.bankGroups[bk] {
		if c.grp[gh].row == r.Loc.Row {
			h = gh
			break
		}
	}
	if h < 0 {
		h = c.allocGroup(r, bk)
		c.bankGroups[bk] = append(c.bankGroups[bk], h)
	}
	g := &c.grp[h]
	if r.Kind.IsWrite() {
		if len(g.writes) == 0 {
			c.writeOrder = append(c.writeOrder, h)
		}
		g.writes = append(g.writes, r)
	} else {
		if len(g.reads) == 0 {
			c.readOrder = append(c.readOrder, h)
		}
		g.reads = append(g.reads, r)
	}
	// The memos need no invalidation. A kind's memo depends on the
	// group's bank, its row and the kind, not on which request
	// represents it.
}

// groupRemove deletes r from its group, repairing the order arrays,
// and frees the group when it empties. The served request is normally
// its group's oldest of its kind (options carry the min-ID
// representative), making this a head pop; any position is handled
// for robustness.
func (c *Controller) groupRemove(r *Request) {
	bk := int32(r.Loc.Rank*c.ch.Geo.Banks + r.Loc.Bank)
	bg := c.bankGroups[bk]
	h, gi := int32(-1), -1
	for i, gh := range bg {
		if c.grp[gh].row == r.Loc.Row {
			h, gi = gh, i
			break
		}
	}
	if h < 0 {
		panic("memctrl: removing request with no candidate group")
	}
	g := &c.grp[h]
	if r.Kind.IsWrite() {
		oldKey := g.writes[0].ID
		popGroupReq(&g.writes, r)
		if len(g.writes) == 0 {
			c.orderDelete(&c.writeOrder, h, oldKey, true)
		} else if g.writes[0].ID != oldKey {
			c.orderDelete(&c.writeOrder, h, oldKey, true)
			c.orderInsert(&c.writeOrder, h, g.writes[0].ID, true)
		}
	} else {
		oldKey := g.reads[0].ID
		popGroupReq(&g.reads, r)
		if len(g.reads) == 0 {
			c.orderDelete(&c.readOrder, h, oldKey, false)
		} else if g.reads[0].ID != oldKey {
			c.orderDelete(&c.readOrder, h, oldKey, false)
			c.orderInsert(&c.readOrder, h, g.reads[0].ID, false)
		}
	}
	if len(g.reads) == 0 && len(g.writes) == 0 {
		last := len(bg) - 1
		bg[gi] = bg[last]
		c.bankGroups[bk] = bg[:last]
		c.grpFree = append(c.grpFree, h)
	}
}

// popGroupReq removes r from a group's kind list, preserving ID order
// and clearing the vacated tail slot so recycled requests are not
// pinned by stale capacity.
func popGroupReq(s *[]*Request, r *Request) {
	q := *s
	for i, x := range q {
		if x == r {
			n := len(q)
			copy(q[i:], q[i+1:])
			q[n-1] = nil
			*s = q[:n-1]
			return
		}
	}
	panic("memctrl: request missing from its candidate group")
}

// orderKey returns a group's current sort key in the given order
// array: the ID of its oldest request of that kind.
func (c *Controller) orderKey(h int32, writes bool) uint64 {
	g := &c.grp[h]
	if writes {
		return g.writes[0].ID
	}
	return g.reads[0].ID
}

// orderDelete removes handle h from an order array. oldKey is h's
// sort key at insertion time (its group may already hold a different
// head); every other entry's key is current, so a binary search
// against oldKey lands on h directly. Keys are request IDs and
// therefore unique.
func (c *Controller) orderDelete(order *[]int32, h int32, oldKey uint64, writes bool) {
	s := *order
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		k := oldKey
		if s[mid] != h {
			k = c.orderKey(s[mid], writes)
		}
		if k < oldKey {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(s) || s[lo] != h {
		panic("memctrl: candidate group missing from its order array")
	}
	copy(s[lo:], s[lo+1:])
	*order = s[:len(s)-1]
}

// orderInsert places handle h into an order array at its key's sorted
// position.
func (c *Controller) orderInsert(order *[]int32, h int32, key uint64, writes bool) {
	s := *order
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.orderKey(s[mid], writes) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s = append(s, 0)
	copy(s[lo+1:], s[lo:])
	s[lo] = h
	*order = s
}

// rep returns g's oldest request of memo kind w: its oldest read for
// w = 0, its oldest write for w = 1.
func (g *group) rep(w int) *Request {
	if w == 1 {
		return g.writes[0]
	}
	return g.reads[0]
}

// memo returns the next command kind and earliest-issue cycle of group
// h's oldest request of kind w. A non-zero bound word, g.optKind[w] and
// g.stamp[w] describe one computation, whose cycle was exact then.
//
// It is still exact while the command's family count is unchanged.
// Since the word was stored, no command went to g's bank, or it would
// be 0. A command to another bank moves no threshold of g's command
// outside its family (dram.Channel): an ACTIVATE moves its rank's
// tRRD/tFAW window, a READ or WRITE the data bus, tWTR and the
// read-to-write turnaround. issueCmd counts both families (rankActs,
// colCmds). A PRECHARGE depends on its bank alone, so it has no family.
// The command bus needs no count: a memo is read only before the
// controller issues in a cycle, when the bus term (the last command's
// cycle + 1) never exceeds now. It can neither make a command legal now
// nor move a cycle past now, so a memo's cycle past now is exact, and
// one at or before now means legal now.
//
// Otherwise memo asks dram, restamps and stores the new word.
func (c *Controller) memo(h int32, w int) (dram.CommandKind, uint64) {
	g := &c.grp[h]
	if b := c.grpBound[w][h]; b != 0 && g.stamp[w] == c.familyCount(g.optKind[w], g.rankNo) {
		return g.optKind[w], b >> 1
	}
	rep := g.rep(w)
	kind := nextKind(g.bankRef, rep)
	at := c.ch.EarliestIssue(dram.Command{Kind: kind, Loc: rep.Loc})
	g.optKind[w], g.stamp[w] = kind, c.familyCount(kind, g.rankNo)
	c.grpBound[w][h] = boundWord(kind, at)
	return kind, at
}

// familyCount is the count of the cross-bank family of a command of
// the given kind to the given rank (see memo).
func (c *Controller) familyCount(kind dram.CommandKind, rank int32) uint32 {
	switch kind {
	case dram.CmdActivate:
		return c.rankActs[rank]
	case dram.CmdPrecharge:
		return 0
	default:
		return c.colCmds
	}
}

// boundWord packs a memo into its earliest-issue bound word (see
// grpBound). Column commands are the top of the CommandKind enum, so
// kind >= CmdRead tests "row hit" in one compare.
func boundWord(kind dram.CommandKind, at uint64) uint64 {
	b := at << 1
	if kind >= dram.CmdRead {
		b |= 1
	}
	return b
}

// groupOption offers the memoized command of group h's oldest request
// of kind w, rep, into optBuf when it is legal at now, and returns 1
// when it is a row hit (legal or not — PendingRowHits counts both).
// modeBoth's build calls it for each group whose bound is at or before
// now.
func (c *Controller) groupOption(now uint64, h int32, w int, rep *Request) int {
	kind, at := c.memo(h, w)
	if now >= at {
		c.optBuf = append(c.optBuf, Option{Cmd: dram.Command{Kind: kind, Loc: rep.Loc}, Req: rep, RowHit: kind >= dram.CmdRead})
	}
	if kind >= dram.CmdRead {
		return 1
	}
	return 0
}
