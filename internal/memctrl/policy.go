package memctrl

import "cloudmc/internal/dram"

// Option is one issuable command the controller offers to the
// scheduling policy this cycle. Every option is legal under DRAM
// timing when offered.
type Option struct {
	// Cmd is the DRAM command.
	Cmd dram.Command
	// Req is the queued request this command advances. For a
	// PRECHARGE generated to resolve a row conflict, Req is the
	// conflicting (waiting) request, not the one that opened the row.
	//mclint:owns -- options live in the controller's per-tick scratch buffer, rebuilt every decision cycle and never read across a tick; a queued request cannot recycle within its tick
	Req *Request
	// RowHit reports that Cmd is a column access to an already-open
	// row.
	RowHit bool
}

// View is the controller state a scheduling policy sees when asked to
// pick a command.
type View struct {
	// Now is the current cycle.
	Now uint64
	// Options are the legal commands this cycle. Policies must either
	// return an index into this slice or -1 (issue nothing).
	Options []Option
	// ReadQLen and WriteQLen are the current queue occupancies.
	ReadQLen, WriteQLen int
	// WriteMode reports that the controller serves writes this cycle:
	// it is draining them, or no reads wait. For a policy that is not
	// WriteAware it names the queue every option comes from:
	// WriteQueue while set, ReadQueue otherwise.
	WriteMode bool
	// PendingRowHits counts candidate groups, not requests: the
	// (bank, row) groups among the queues this cycle's mode considers
	// (reads, writes during a drain, or both for write-aware policies)
	// whose next command is a column access to the open row, legal now
	// or not. A group of several requests to the open row counts once.
	PendingRowHits int
	// Channel identifies the controller's channel.
	Channel int
	// ReadQueue and WriteQueue expose the controller's queues in
	// arrival order, which is ID-ascending: IDs are assigned at enqueue
	// and removals preserve order. Policies must treat them as
	// read-only; they are valid only for the duration of the Pick call.
	// Policies that need whole-queue visibility use these: PAR-BS
	// batching, FCFS_Banks' per-bank arrival order, and the ATLAS/QoS
	// bounded rank scan, which relies on the ID order to read queue
	// position as age.
	//mclint:owns -- aliases of the live queues, valid only within one Pick call; queue membership cannot change (and so nothing can recycle) while the policy holds the View
	ReadQueue, WriteQueue []*Request
}

// OldestOption returns the index of the option whose request is
// oldest, or -1 if there are no options. Policies use it as a common
// building block and as the starvation fallback.
func (v *View) OldestOption() int {
	best := -1
	for i := range v.Options {
		if best == -1 || v.Options[i].Req.ID < v.Options[best].Req.ID {
			best = i
		}
	}
	return best
}

// Policy is a memory scheduling algorithm. The controller computes the
// set of legal commands (Options) each decision cycle; the policy
// chooses among them. Request-level algorithms (FCFS, FR-FCFS, PAR-BS,
// ATLAS) rank options by their associated request; the RL scheduler
// values each command directly.
//
// Fast-forward contract: on cycles where the controller is provably
// inert (no completion due, no legal command, nothing issued), the
// controller may skip the Tick and OnIssue calls entirely. Policies
// for which those calls are NOT no-ops on such cycles — e.g. anything
// with clock-driven state — must implement EventHorizon so the
// controller knows when it must wake up and run them.
//
// Lifetime contract: a *Request is owned by the controller and
// recycled through a free list once its transfer completes. Policies
// may hold a pointer they were shown (in a View or OnIssue) until
// their OnComplete call for that request returns, and no longer:
// after OnComplete the same *Request may be reused for an unrelated
// future enqueue (same pointer, new ID/address/tenant). Policies that
// need per-request state past completion must key it by value
// (Request.ID), never by pointer. (All shipped policies drop the
// pointer in OnComplete; PAR-BS re-reads the queues from View each
// Pick.)
type Policy interface {
	// Name returns the algorithm name used in reports.
	Name() string
	// Pick returns the index of the option to issue, or -1 to issue
	// nothing this cycle.
	Pick(v *View) int
	// OnComplete is called when a request's data transfer completes.
	OnComplete(r *Request, now uint64)
	// OnIssue is called after the controller issues the picked
	// command; issued reports what was actually sent (it may be a
	// forced write-drain command rather than the policy's pick).
	OnIssue(v *View, picked int, issued dram.Command, now uint64)
	// Tick is called once per controller cycle before Pick, for
	// policies with time-based state (ATLAS quanta, RL exploration).
	Tick(now uint64)
}

// EventHorizon is implemented by scheduling policies with
// clock-driven state changes (the ATLAS quantum rollover).
// NextPolicyEvent returns the next cycle at which the policy's Tick
// must observe the clock even if the controller is otherwise inert;
// the fast-forward engine never skips past it. Policies without timed
// state need not implement the interface.
type EventHorizon interface {
	NextPolicyEvent(now uint64) uint64
}

// WriteAware is implemented by policies that schedule writes as
// first-class actions (the RL scheduler). For such policies the
// controller offers read and write options together every cycle
// instead of alternating between read mode and write-drain mode.
type WriteAware interface {
	ConsidersWrites() bool
}

// considersWrites reports whether p opts into mixed read/write views.
func considersWrites(p Policy) bool {
	wa, ok := p.(WriteAware)
	return ok && wa.ConsidersWrites()
}
