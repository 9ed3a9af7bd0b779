package dram

import "fmt"

// Stats accumulates device-level statistics for one channel.
type Stats struct {
	// Activates, Precharges, Reads, Writes count issued commands.
	Activates  uint64
	Precharges uint64
	Reads      uint64
	Writes     uint64
	// DataBusBusy is the number of cycles the data bus carried data;
	// DataBusBusy / elapsed cycles is the bandwidth utilization the
	// paper reports in Figure 7.
	DataBusBusy uint64
	// ActivationReuse[i] counts row activations that received exactly
	// i column accesses before closing (i saturates at the last
	// bucket). Bucket 1 / sum(buckets) is the single-access activation
	// fraction the paper reports in Figure 8.
	ActivationReuse [maxReuseBuckets]uint64
}

const maxReuseBuckets = 65

// recordReuse files one closed activation that served n accesses.
func (s *Stats) recordReuse(n int) {
	if n >= maxReuseBuckets {
		n = maxReuseBuckets - 1
	}
	s.ActivationReuse[n]++
}

// SingleAccessFraction returns the fraction of activations that
// received exactly one column access, and the total activation count
// it was computed over. Activations closed with zero accesses (e.g. a
// conflict precharge before any column command) are excluded, matching
// the paper's definition of "accessed only once before closure".
func (s *Stats) SingleAccessFraction() (frac float64, total uint64) {
	for i := 1; i < maxReuseBuckets; i++ {
		total += s.ActivationReuse[i]
	}
	if total == 0 {
		return 0, 0
	}
	return float64(s.ActivationReuse[1]) / float64(total), total
}

// Channel is the device model of one memory channel: its ranks and
// banks, the shared command bus (one command per cycle) and the shared
// data bus (one burst at a time, with turnaround penalties).
//
// Beyond the command bus, a command moves another bank's thresholds
// only within its family, and only upward: an ACTIVATE moves its rank's
// tRRD/tFAW window, a READ or WRITE the data bus, tWTR and the
// read-to-write turnaround, and a PRECHARGE nothing outside its bank.
// The controller's earliest-issue memos rely on this
// (TestCrossBankFamilies).
type Channel struct {
	ID    int
	Geo   Geometry
	Tim   Timing
	Ranks []Rank
	Stats Stats

	lastCmdAt  uint64
	anyCmd     bool
	dataFreeAt uint64 // cycle at which the data bus becomes free

	// lastWriteDataEnd feeds the tWTR write-to-read constraint;
	// lastReadDataEnd feeds the read-to-write turnaround.
	lastWriteDataEnd uint64
	lastReadDataEnd  uint64
}

// NewChannel returns a channel with all banks precharged.
func NewChannel(id int, geo Geometry, tim Timing) *Channel {
	ranks := make([]Rank, geo.Ranks)
	for i := range ranks {
		ranks[i] = newRank(geo.Banks)
	}
	return &Channel{ID: id, Geo: geo, Tim: tim, Ranks: ranks}
}

// Bank returns the addressed bank.
func (c *Channel) Bank(rank, bank int) *Bank {
	return &c.Ranks[rank].Banks[bank]
}

// OpenRow returns the open row of the addressed bank and whether any
// row is open.
func (c *Channel) OpenRow(rank, bank int) (int, bool) {
	b := c.Bank(rank, bank)
	if b.State != BankActive {
		return 0, false
	}
	return b.OpenRow, true
}

// commandBusFree reports whether the command bus can carry a command
// at cycle now (one command per cycle).
func (c *Channel) commandBusFree(now uint64) bool {
	return !c.anyCmd || now > c.lastCmdAt
}

// CanIssue reports whether cmd is legal at cycle now under all bank,
// rank and bus constraints.
func (c *Channel) CanIssue(now uint64, cmd Command) bool {
	if cmd.Kind == CmdNop {
		return true
	}
	if !c.commandBusFree(now) {
		return false
	}
	if cmd.Loc.Channel != c.ID {
		return false
	}
	rank := &c.Ranks[cmd.Loc.Rank]
	bank := &rank.Banks[cmd.Loc.Bank]
	switch cmd.Kind {
	case CmdActivate:
		return bank.CanActivate(now) && rank.CanActivate(now, &c.Tim)
	case CmdPrecharge:
		return bank.CanPrecharge(now)
	case CmdRead:
		if !bank.CanColumn(now, cmd.Loc.Row) {
			return false
		}
		// tWTR: a read command must wait for the write-to-read
		// turnaround after the last write data beat.
		if now < c.lastWriteDataEnd+uint64(c.Tim.WTR) {
			return false
		}
		return now+uint64(c.Tim.CAS) >= c.dataFreeAt
	case CmdWrite:
		if !bank.CanColumn(now, cmd.Loc.Row) {
			return false
		}
		start := now + uint64(c.Tim.CWL)
		if start < c.dataFreeAt {
			return false
		}
		// Read-to-write turnaround bubble on the data bus.
		return start >= c.lastReadDataEnd+uint64(c.Tim.RTW)
	default:
		return false
	}
}

// EarliestIssue returns the smallest cycle t with CanIssue(t, cmd),
// assuming no other command is issued in the meantime, or Never when
// cmd cannot become legal without an intervening state change (e.g. a
// column access to a row that is not open). Every timing constraint in
// CanIssue is an absolute-cycle threshold frozen at the last Issue, so
// the result is exact, not a bound — the fast-forward engine relies on
// both directions: no wake-up is late, and no legal cycle is skipped.
func (c *Channel) EarliestIssue(cmd Command) uint64 {
	if cmd.Kind == CmdNop {
		return 0
	}
	if cmd.Loc.Channel != c.ID {
		return Never
	}
	var at uint64
	if c.anyCmd {
		at = c.lastCmdAt + 1
	}
	rank := &c.Ranks[cmd.Loc.Rank]
	bank := &rank.Banks[cmd.Loc.Bank]
	switch cmd.Kind {
	case CmdActivate:
		b := bank.NextActivateAt()
		if b == Never {
			return Never
		}
		at = max(at, b)
		at = max(at, rank.NextActivateAt(&c.Tim))
	case CmdPrecharge:
		b := bank.NextPrechargeAt()
		if b == Never {
			return Never
		}
		at = max(at, b)
	case CmdRead:
		b := bank.NextColumnAt(cmd.Loc.Row)
		if b == Never {
			return Never
		}
		at = max(at, b)
		at = max(at, c.lastWriteDataEnd+uint64(c.Tim.WTR))
		// now + CAS >= dataFreeAt.
		if free := c.dataFreeAt; free > uint64(c.Tim.CAS) {
			at = max(at, free-uint64(c.Tim.CAS))
		}
	case CmdWrite:
		b := bank.NextColumnAt(cmd.Loc.Row)
		if b == Never {
			return Never
		}
		at = max(at, b)
		// now + CWL >= dataFreeAt.
		if free := c.dataFreeAt; free > uint64(c.Tim.CWL) {
			at = max(at, free-uint64(c.Tim.CWL))
		}
		// now + CWL >= lastReadDataEnd + RTW.
		if rtw := c.lastReadDataEnd + uint64(c.Tim.RTW); rtw > uint64(c.Tim.CWL) {
			at = max(at, rtw-uint64(c.Tim.CWL))
		}
	default:
		return Never
	}
	return at
}

// Issue applies cmd at cycle now. For CmdRead it returns the cycle at
// which the requested data has fully arrived; for other commands the
// returned cycle is when the command's effect completes (ACT: row
// usable; PRE: bank usable; WR: data written). Issue panics if the
// command is illegal — callers must check CanIssue first; the
// controller is required to be timing-correct by construction.
func (c *Channel) Issue(now uint64, cmd Command) uint64 {
	if cmd.Kind == CmdNop {
		return now
	}
	if !c.CanIssue(now, cmd) {
		panic(fmt.Sprintf("dram: illegal command %s at cycle %d", cmd, now))
	}
	c.lastCmdAt = now
	c.anyCmd = true
	rank := &c.Ranks[cmd.Loc.Rank]
	bank := &rank.Banks[cmd.Loc.Bank]
	switch cmd.Kind {
	case CmdActivate:
		bank.activate(now, cmd.Loc.Row, &c.Tim)
		rank.recordActivate(now)
		c.Stats.Activates++
		return now + uint64(c.Tim.RCD)
	case CmdPrecharge:
		accesses := bank.precharge(now, &c.Tim)
		c.Stats.recordReuse(accesses)
		c.Stats.Precharges++
		return now + uint64(c.Tim.RP)
	case CmdRead:
		bank.read(now, &c.Tim)
		end := now + uint64(c.Tim.CAS+c.Tim.Burst)
		c.dataFreeAt = end
		c.lastReadDataEnd = end
		c.Stats.Reads++
		c.Stats.DataBusBusy += uint64(c.Tim.Burst)
		return end
	case CmdWrite:
		bank.write(now, &c.Tim)
		end := now + uint64(c.Tim.CWL+c.Tim.Burst)
		c.dataFreeAt = end
		c.lastWriteDataEnd = end
		c.Stats.Writes++
		c.Stats.DataBusBusy += uint64(c.Tim.Burst)
		return end
	default:
		panic(fmt.Sprintf("dram: unknown command kind %v", cmd.Kind))
	}
}

// RowHitPossible reports whether a column access to loc would hit the
// currently open row (ignoring timing, only row-buffer state).
func (c *Channel) RowHitPossible(loc Location) bool {
	row, open := c.OpenRow(loc.Rank, loc.Bank)
	return open && row == loc.Row
}
