package sched

import (
	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
)

// FCFSBanksPolicy services each bank's requests strictly in arrival
// order while letting independent banks proceed in parallel — the
// "FCFS_banks" variant the paper evaluates (§2.1). It never reorders
// within a bank, so it cannot promote row hits past older conflicting
// requests; across banks it serves the bank whose head request is
// oldest. A bank's head is the oldest request to its (rank, bank) in
// the queue the options come from: View.WriteQueue while
// View.WriteMode is set, View.ReadQueue otherwise.
type FCFSBanksPolicy struct {
	noHooks
}

// NewFCFSBanks returns the FCFS_Banks policy.
func NewFCFSBanks() *FCFSBanksPolicy { return &FCFSBanksPolicy{} }

// Name implements memctrl.Policy.
func (*FCFSBanksPolicy) Name() string { return "FCFS_Banks" }

// Pick implements memctrl.Policy: among options that advance their
// bank's oldest request, choose the globally oldest.
func (*FCFSBanksPolicy) Pick(v *memctrl.View) int {
	q := v.ReadQueue
	if v.WriteMode {
		q = v.WriteQueue
	}
	best := -1
	for i := range v.Options {
		r := v.Options[i].Req
		if best != -1 && r.ID >= v.Options[best].Req.ID {
			continue
		}
		if bankHead(q, r) { // per-bank FIFO: only the head may be served
			best = i
		}
	}
	return best
}

// bankHead reports whether no request in the ID-ascending queue q is
// older than r and targets r's (rank, bank).
func bankHead(q []*memctrl.Request, r *memctrl.Request) bool {
	for _, x := range q {
		if x.ID >= r.ID {
			return true
		}
		if x.Loc.Rank == r.Loc.Rank && x.Loc.Bank == r.Loc.Bank {
			return false
		}
	}
	return true
}

// OnIssue implements memctrl.Policy.
func (*FCFSBanksPolicy) OnIssue(*memctrl.View, int, dram.Command, uint64) {}

// FRFCFSPolicy is the baseline first-ready first-come-first-served
// scheduler (Rixner et al., §2.1): column accesses that hit the open
// row are served before any other command; ties and non-hits are
// broken by age.
type FRFCFSPolicy struct {
	noHooks
}

// NewFRFCFS returns the FR-FCFS policy.
func NewFRFCFS() *FRFCFSPolicy { return &FRFCFSPolicy{} }

// Name implements memctrl.Policy.
func (*FRFCFSPolicy) Name() string { return "FR-FCFS" }

// Pick implements memctrl.Policy.
func (*FRFCFSPolicy) Pick(v *memctrl.View) int { return pickFRFCFS(v) }

// pickFRFCFS applies FR-FCFS selection; FRFCFSPolicy and the policies
// that fall back to it for write drains share it.
func pickFRFCFS(v *memctrl.View) int {
	best := -1
	bestHit := false
	for i := range v.Options {
		opt := &v.Options[i]
		switch {
		case best == -1,
			opt.RowHit && !bestHit,
			opt.RowHit == bestHit && opt.Req.ID < v.Options[best].Req.ID:
			best = i
			bestHit = opt.RowHit
		}
	}
	return best
}

// OnIssue implements memctrl.Policy.
func (*FRFCFSPolicy) OnIssue(*memctrl.View, int, dram.Command, uint64) {}
