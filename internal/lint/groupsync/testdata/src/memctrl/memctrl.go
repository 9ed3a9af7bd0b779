// Package memctrl is the groupsync analyzer fixture: a miniature of
// the real cloudmc/internal/memctrl controller (same type and field
// names) with queue mutators that maintain the candidate-group index,
// mutators that forget, and mutations outside the contract.
package memctrl

// Request mirrors the real queued request.
type Request struct {
	ID   uint64
	Addr uint64
}

// group mirrors the real group entry: its reads/writes lists are NOT
// guarded — mutating them is the index maintenance itself.
type group struct {
	reads  []*Request
	writes []*Request
}

// Controller mirrors the guarded queue fields plus index state.
type Controller struct {
	readQ  []*Request
	writeQ []*Request

	grp  []group
	view int
}

func (c *Controller) groupEnqueue(r *Request) { c.grp[0].reads = append(c.grp[0].reads, r) }
func (c *Controller) groupRemove(r *Request)  {}
func (c *Controller) buildOptions(now uint64, mixed bool) {
	c.view++
}

// enqueueGood mutates queue membership and files the request into its
// group in the same function.
func (c *Controller) enqueueGood(r *Request) {
	c.readQ = append(c.readQ, r)
	c.groupEnqueue(r)
}

// enqueueBad mutates queue membership without updating the index.
func (c *Controller) enqueueBad(r *Request) {
	c.readQ = append(c.readQ, r) // want `enqueueBad mutates Controller.readQ but never updates the candidate-group index`
}

// removeGood edits the queues through pointers (address-taking), with
// the index updated alongside.
func (c *Controller) removeGood(r *Request) {
	q := &c.readQ
	c.groupRemove(r)
	*q = (*q)[:len(*q)-1]
}

// removeBad hands out mutable queue access without any maintenance.
func (c *Controller) removeBad(r *Request) {
	q := &c.writeQ // want `removeBad mutates Controller.writeQ but never updates the candidate-group index`
	*q = (*q)[:len(*q)-1]
}

// truncateBad empties the read queue and rebuilds the option set. A
// rebuild reads the index and repairs nothing, so it does not
// discharge the obligation.
func (c *Controller) truncateBad(now uint64) {
	c.readQ = c.readQ[:0] // want `truncateBad mutates Controller.readQ but never updates the candidate-group index`
	c.buildOptions(now, false)
}

// groupListsFree mutates a group's own lists: index maintenance
// itself, outside the contract.
func (c *Controller) groupListsFree(r *Request) {
	g := &c.grp[0]
	g.reads = append(g.reads, r)
	g.writes = g.writes[:0]
}

// viewFree mutates only unguarded bookkeeping.
func (c *Controller) viewFree() {
	c.view = 0
}

// suppressed documents why it is exempt.
//
//mclint:allow groupsync -- fixture: stats-only reslice audited by hand
func (c *Controller) suppressed() {
	c.readQ = c.readQ[:0]
}
