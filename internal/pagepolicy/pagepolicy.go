// Package pagepolicy implements the DRAM page-management policies the
// paper studies (§2.2, §4.2): static open/close, the adaptive
// open/close variants, and the predictive RBPP and ABPP policies.
//
// A page policy decides, after each column access, whether the open
// row should be precharged proactively. The memory controller asks
// right after the column access; a yes marks the close pending, and
// the controller then asks again on every idle command cycle until the
// precharge issues or an answer turns to no (under the adaptive and
// predictive policies, a same-row arrival does that). Between two idle
// cycles the bank's context usually has not changed, so most of these
// calls repeat the previous one. The Policy contract makes a repeat
// harmless, which lets a parked controller skip them.
package pagepolicy

import "cloudmc/internal/dram"

// CloseContext describes an open row when the controller asks whether
// to close it.
type CloseContext struct {
	// Loc identifies the bank; Loc.Row is the open row.
	Loc dram.Location
	// Accesses is the number of column accesses the row has received
	// during this activation (including the one just issued).
	Accesses int
	// PendingSameRow is the number of queued requests that would hit
	// the open row.
	PendingSameRow int
	// PendingOtherRow is the number of queued requests to the same
	// bank that need a different row.
	PendingOtherRow int
}

// Policy is a page-management policy.
type Policy interface {
	// Name returns the policy name used in reports.
	Name() string
	// ShouldClose reports whether the open row described by ctx should
	// be precharged proactively.
	//
	// Contract, for all six policies: a repeated call — one for a bank
	// whose ctx is unchanged since the previous call for that bank,
	// with no OnActivate or OnRowClosed on that bank in between —
	// returns the previous call's answer and changes no later answer,
	// whatever calls for other banks come between. ShouldClose may
	// update policy state, as RBPP and ABPP do when they stamp the open
	// row's register as most recently used, but a repeat must leave
	// every later answer as it was.
	ShouldClose(ctx CloseContext) bool
	// OnActivate is called when a row is opened.
	OnActivate(loc dram.Location)
	// OnRowClosed is called when a row closes; accesses is the number
	// of column accesses during the activation, and conflict reports
	// that the close was forced by a different-row request rather than
	// chosen by the policy.
	OnRowClosed(loc dram.Location, accesses int, conflict bool)
}

// Open is the static open-page policy (OPM): rows stay open until a
// conflicting request forces a precharge.
type Open struct{}

// NewOpen returns the open-page policy.
func NewOpen() Open { return Open{} }

// Name implements Policy.
func (Open) Name() string { return "Open" }

// ShouldClose implements Policy: never close proactively.
func (Open) ShouldClose(CloseContext) bool { return false }

// OnActivate implements Policy.
func (Open) OnActivate(dram.Location) {}

// OnRowClosed implements Policy.
func (Open) OnRowClosed(dram.Location, int, bool) {}

// Close is the static close-page policy (CPM): every row is precharged
// immediately after its column access.
type Close struct{}

// NewClose returns the close-page policy.
func NewClose() Close { return Close{} }

// Name implements Policy.
func (Close) Name() string { return "Close" }

// ShouldClose implements Policy: always close.
func (Close) ShouldClose(CloseContext) bool { return true }

// OnActivate implements Policy.
func (Close) OnActivate(dram.Location) {}

// OnRowClosed implements Policy.
func (Close) OnRowClosed(dram.Location, int, bool) {}

// OpenAdaptive is the paper's baseline OAPM: close only when no queued
// request would hit the open row AND some queued request needs a
// different row in this bank.
type OpenAdaptive struct{}

// NewOpenAdaptive returns the open-adaptive policy.
func NewOpenAdaptive() OpenAdaptive { return OpenAdaptive{} }

// Name implements Policy.
func (OpenAdaptive) Name() string { return "OpenAdaptive" }

// ShouldClose implements Policy.
func (OpenAdaptive) ShouldClose(ctx CloseContext) bool {
	return ctx.PendingSameRow == 0 && ctx.PendingOtherRow > 0
}

// OnActivate implements Policy.
func (OpenAdaptive) OnActivate(dram.Location) {}

// OnRowClosed implements Policy.
func (OpenAdaptive) OnRowClosed(dram.Location, int, bool) {}

// CloseAdaptive is CAPM: close as soon as no queued request would hit
// the open row, whether or not other work is waiting.
type CloseAdaptive struct{}

// NewCloseAdaptive returns the close-adaptive policy.
func NewCloseAdaptive() CloseAdaptive { return CloseAdaptive{} }

// Name implements Policy.
func (CloseAdaptive) Name() string { return "CloseAdaptive" }

// ShouldClose implements Policy.
func (CloseAdaptive) ShouldClose(ctx CloseContext) bool {
	return ctx.PendingSameRow == 0
}

// OnActivate implements Policy.
func (CloseAdaptive) OnActivate(dram.Location) {}

// OnRowClosed implements Policy.
func (CloseAdaptive) OnRowClosed(dram.Location, int, bool) {}
