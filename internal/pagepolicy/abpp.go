package pagepolicy

import "cloudmc/internal/dram"

// abppEntry records the most recent activation outcome for a row.
type abppEntry struct {
	row   int
	hits  int
	valid bool
	used  uint64
}

// ABPP is the Access-Based Page Policy of Awasthi et al. (§2.2): each
// bank keeps a table of recently accessed rows and the number of hits
// they received during their last activation, and predicts a row will
// repeat that hit count. With a table entry the row is closed once the
// predicted hits have been served; without one the row stays open
// until a conflict forces it to close (as specified in the paper).
type ABPP struct {
	entriesPerBank int
	banks          map[bankKey][]abppEntry
	clock          uint64
}

// NewABPP returns an ABPP policy with the given per-bank table size
// (default 16 entries, following the original proposal's "most
// recently accessed rows" tables).
func NewABPP(entriesPerBank int) *ABPP {
	if entriesPerBank <= 0 {
		entriesPerBank = 16
	}
	return &ABPP{
		entriesPerBank: entriesPerBank,
		banks:          make(map[bankKey][]abppEntry),
	}
}

// Name implements Policy.
func (p *ABPP) Name() string { return "ABPP" }

func (p *ABPP) entries(loc dram.Location) []abppEntry {
	k := bankKey{loc.Channel, loc.Rank, loc.Bank}
	e, ok := p.banks[k]
	if !ok {
		e = make([]abppEntry, p.entriesPerBank)
		p.banks[k] = e
	}
	return e
}

// ShouldClose implements Policy.
func (p *ABPP) ShouldClose(ctx CloseContext) bool {
	if ctx.PendingSameRow > 0 {
		return false
	}
	entries := p.entries(ctx.Loc)
	for i := range entries {
		e := &entries[i]
		if e.valid && e.row == ctx.Loc.Row {
			// Stamp as most recently used. As in RBPP's lookup, a
			// repeated call re-stamps the bank's first-ranked entry
			// and changes no ranking (the Policy contract).
			p.clock++
			e.used = p.clock
			// Close once the row has reached its predicted accesses.
			return ctx.Accesses >= e.hits+1
		}
	}
	// No history: leave the row open until a conflict closes it.
	return false
}

// OnActivate implements Policy.
func (p *ABPP) OnActivate(dram.Location) {}

// OnRowClosed implements Policy: record the observed hit count,
// evicting the LRU entry if needed. Unlike RBPP, ABPP records
// zero-hit activations too — that is what lets it close single-access
// rows the next time around, and also what makes its table thrash
// under low-locality streams.
func (p *ABPP) OnRowClosed(loc dram.Location, accesses int, conflict bool) {
	hits := accesses - 1
	if hits < 0 {
		hits = 0
	}
	p.clock++
	entries := p.entries(loc)
	for i := range entries {
		if entries[i].valid && entries[i].row == loc.Row {
			entries[i].hits = hits
			entries[i].used = p.clock
			return
		}
	}
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
	entries[victim] = abppEntry{row: loc.Row, hits: hits, valid: true, used: p.clock}
}

// ByName constructs the page policy with the given name using default
// parameters. Recognized names: Open, Close, OpenAdaptive,
// CloseAdaptive, RBPP, ABPP.
func ByName(name string) (Policy, bool) {
	switch name {
	case "Open":
		return NewOpen(), true
	case "Close":
		return NewClose(), true
	case "OpenAdaptive":
		return NewOpenAdaptive(), true
	case "CloseAdaptive":
		return NewCloseAdaptive(), true
	case "RBPP":
		return NewRBPP(0), true
	case "ABPP":
		return NewABPP(0), true
	default:
		return nil, false
	}
}
