package pagepolicy

import "cloudmc/internal/dram"

// bankKey identifies one bank across channels.
type bankKey struct {
	channel, rank, bank int
}

// marrEntry is one most-accessed-row register: a row that received at
// least one row-buffer hit, together with the hit count it achieved
// during its last activation.
type marrEntry struct {
	row   int
	hits  int
	valid bool
	used  uint64 // LRU stamp
}

// RBPP is the Row-Based Page Policy of Shen et al. (§2.2): each bank
// keeps a small set of most-accessed-row registers (MARRs) recording
// rows that received at least one hit and how many hits they received
// last time. A tracked row stays open until it has collected its
// predicted number of hits; an untracked row is predicted to be
// single-access and is closed as soon as no queued request would hit
// it (the close-adaptive rule).
type RBPP struct {
	registersPerBank int
	banks            map[bankKey][]marrEntry
	clock            uint64
}

// NewRBPP returns an RBPP policy with the given number of MARRs per
// bank (the paper's proposal uses "a few"; 4 is the default used in
// our experiments).
func NewRBPP(registersPerBank int) *RBPP {
	if registersPerBank <= 0 {
		registersPerBank = 4
	}
	return &RBPP{
		registersPerBank: registersPerBank,
		banks:            make(map[bankKey][]marrEntry),
	}
}

// Name implements Policy.
func (p *RBPP) Name() string { return "RBPP" }

func (p *RBPP) entries(loc dram.Location) []marrEntry {
	k := bankKey{loc.Channel, loc.Rank, loc.Bank}
	e, ok := p.banks[k]
	if !ok {
		e = make([]marrEntry, p.registersPerBank)
		p.banks[k] = e
	}
	return e
}

// lookup returns the predicted hit count for the row and whether the
// row is tracked, stamping its register as the bank's most recently
// used. Registers are ranked only against their own bank's, and after
// the first lookup of an activation the open row's register already
// ranks first, so a repeated ShouldClose changes no ranking (the Policy
// contract).
func (p *RBPP) lookup(loc dram.Location) (int, bool) {
	for i := range p.entries(loc) {
		e := &p.entries(loc)[i]
		if e.valid && e.row == loc.Row {
			p.clock++
			e.used = p.clock
			return e.hits, true
		}
	}
	return 0, false
}

// ShouldClose implements Policy.
func (p *RBPP) ShouldClose(ctx CloseContext) bool {
	if ctx.PendingSameRow > 0 {
		// Never close under a pending hit; all studied policies
		// capture queued same-row work first.
		return false
	}
	hits, tracked := p.lookup(ctx.Loc)
	if !tracked {
		// Untracked rows are predicted single-access: close now.
		return true
	}
	// Keep the row open until it has served its predicted hits
	// (accesses = first access + hits).
	return ctx.Accesses >= hits+1
}

// OnActivate implements Policy.
func (p *RBPP) OnActivate(dram.Location) {}

// OnRowClosed implements Policy: rows that received at least one hit
// earn (or refresh) a MARR with the observed hit count.
func (p *RBPP) OnRowClosed(loc dram.Location, accesses int, conflict bool) {
	hits := accesses - 1
	entries := p.entries(loc)
	if hits < 1 {
		// A tracked row that got no hits this time loses its register:
		// the prediction no longer pays for the open-row penalty.
		for i := range entries {
			if entries[i].valid && entries[i].row == loc.Row {
				entries[i].valid = false
			}
		}
		return
	}
	p.clock++
	// Update in place if tracked.
	for i := range entries {
		if entries[i].valid && entries[i].row == loc.Row {
			entries[i].hits = hits
			entries[i].used = p.clock
			return
		}
	}
	// Otherwise replace the LRU (or first invalid) register.
	victim := 0
	for i := range entries {
		if !entries[i].valid {
			victim = i
			break
		}
		if entries[i].used < entries[victim].used {
			victim = i
		}
	}
	entries[victim] = marrEntry{row: loc.Row, hits: hits, valid: true, used: p.clock}
}
