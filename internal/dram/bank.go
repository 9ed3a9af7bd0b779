package dram

// Never is the event-horizon sentinel: no future cycle at which the
// queried state change can occur without an intervening command.
const Never = ^uint64(0)

// BankState is the coarse state of one DRAM bank.
type BankState uint8

const (
	// BankIdle means all rows are precharged.
	BankIdle BankState = iota
	// BankActive means a row is open in the row buffer (possibly still
	// within tRCD of the ACTIVATE that opened it).
	BankActive
)

func (s BankState) String() string {
	if s == BankIdle {
		return "idle"
	}
	return "active"
}

// Bank tracks the row-buffer state of one DRAM bank together with the
// earliest cycles at which each command class becomes legal. Only a
// command to the bank itself moves them. Times are absolute controller
// cycles.
type Bank struct {
	State   BankState
	OpenRow int

	// actAllowedAt is the earliest cycle an ACTIVATE may issue
	// (constrained by tRP after a precharge and tRC after the previous
	// ACTIVATE to this bank).
	actAllowedAt uint64
	// colAllowedAt is the earliest cycle a READ/WRITE may issue
	// (constrained by tRCD after the ACTIVATE).
	colAllowedAt uint64
	// preAllowedAt is the earliest cycle a PRECHARGE may issue
	// (constrained by tRAS after ACTIVATE, tRTP after a read, and tWR
	// after the last write data beat).
	preAllowedAt uint64

	// rowAccesses counts column accesses to the currently open row;
	// the activation-reuse histogram (paper Figure 8) is fed from this
	// count when the row closes.
	rowAccesses int
}

// RowAccesses returns the number of column accesses the currently
// open row has received during this activation (0 for an idle bank).
func (b *Bank) RowAccesses() int { return b.rowAccesses }

// CanActivate reports whether an ACTIVATE is legal at cycle now,
// considering only this bank's constraints (rank-level tRRD/tFAW are
// checked by Rank).
func (b *Bank) CanActivate(now uint64) bool {
	return b.State == BankIdle && now >= b.actAllowedAt
}

// CanColumn reports whether a READ/WRITE to row is legal at cycle now,
// considering only this bank's constraints (bus constraints are
// checked by Channel).
func (b *Bank) CanColumn(now uint64, row int) bool {
	return b.State == BankActive && b.OpenRow == row && now >= b.colAllowedAt
}

// CanPrecharge reports whether a PRECHARGE is legal at cycle now.
func (b *Bank) CanPrecharge(now uint64) bool {
	return b.State == BankActive && now >= b.preAllowedAt
}

// NextActivateAt returns the earliest cycle at which this bank's
// constraints admit an ACTIVATE, or Never while a row is open (the
// bank must be precharged first, which is itself a command).
func (b *Bank) NextActivateAt() uint64 {
	if b.State != BankIdle {
		return Never
	}
	return b.actAllowedAt
}

// NextColumnAt returns the earliest cycle at which a READ/WRITE to row
// becomes legal under this bank's constraints, or Never when the bank
// does not hold row open.
func (b *Bank) NextColumnAt(row int) uint64 {
	if b.State != BankActive || b.OpenRow != row {
		return Never
	}
	return b.colAllowedAt
}

// NextPrechargeAt returns the earliest cycle at which a PRECHARGE
// becomes legal, or Never for an idle bank.
func (b *Bank) NextPrechargeAt() uint64 {
	if b.State != BankActive {
		return Never
	}
	return b.preAllowedAt
}

// activate applies an ACTIVATE at cycle now.
func (b *Bank) activate(now uint64, row int, t *Timing) {
	b.State = BankActive
	b.OpenRow = row
	b.rowAccesses = 0
	b.colAllowedAt = now + uint64(t.RCD)
	b.preAllowedAt = now + uint64(t.RAS)
	b.actAllowedAt = now + uint64(t.RC)
}

// read applies a READ at cycle now.
func (b *Bank) read(now uint64, t *Timing) {
	b.rowAccesses++
	// A precharge may not issue until tRTP after the read command.
	if at := now + uint64(t.RTP); at > b.preAllowedAt {
		b.preAllowedAt = at
	}
}

// write applies a WRITE at cycle now; the write data finishes at
// now+CWL+Burst and the bank must then observe tWR before precharge.
func (b *Bank) write(now uint64, t *Timing) {
	b.rowAccesses++
	if at := now + uint64(t.CWL+t.Burst+t.WR); at > b.preAllowedAt {
		b.preAllowedAt = at
	}
}

// precharge applies a PRECHARGE at cycle now and returns the number of
// column accesses the closing row received during this activation.
func (b *Bank) precharge(now uint64, t *Timing) int {
	accesses := b.rowAccesses
	b.State = BankIdle
	b.rowAccesses = 0
	if at := now + uint64(t.RP); at > b.actAllowedAt {
		b.actAllowedAt = at
	}
	return accesses
}

// Rank groups the banks of one rank and enforces the rank-level
// activation constraints tRRD and tFAW, which only an ACTIVATE moves.
type Rank struct {
	Banks []Bank

	lastActAt   uint64
	anyActivate bool
	// actTimes is a ring of the last four ACTIVATE issue cycles,
	// used for the four-activate-window check.
	actTimes [4]uint64
	actCount int
}

func newRank(banks int) Rank {
	return Rank{Banks: make([]Bank, banks)}
}

// CanActivate reports whether rank-level constraints allow an ACTIVATE
// at cycle now.
func (r *Rank) CanActivate(now uint64, t *Timing) bool {
	if r.anyActivate && now < r.lastActAt+uint64(t.RRD) {
		return false
	}
	if r.actCount >= 4 {
		oldest := r.actTimes[r.actCount%4]
		if now < oldest+uint64(t.FAW) {
			return false
		}
	}
	return true
}

// NextActivateAt returns the earliest cycle at which rank-level
// constraints (tRRD, tFAW) admit an ACTIVATE.
func (r *Rank) NextActivateAt(t *Timing) uint64 {
	var at uint64
	if r.anyActivate {
		at = r.lastActAt + uint64(t.RRD)
	}
	if r.actCount >= 4 {
		if faw := r.actTimes[r.actCount%4] + uint64(t.FAW); faw > at {
			at = faw
		}
	}
	return at
}

// recordActivate notes an ACTIVATE issued to this rank at cycle now.
func (r *Rank) recordActivate(now uint64) {
	r.lastActAt = now
	r.anyActivate = true
	r.actTimes[r.actCount%4] = now
	r.actCount++
}
