// Package memctrl is a deliberately-broken fixture: the CI smoke step
// runs mclint over it and asserts freelive (the un-annotated readQ
// stores below) and hotalloc fire. It must compile; it must NOT be
// fixed.
package memctrl

// Request is a minimal request.
type Request struct{ Addr uint64 }

// Controller carries the read queue the linters guard.
type Controller struct {
	readQ []*Request
}

// Enqueue parks a *Request in an un-annotated field: freelive must
// flag this.
func (c *Controller) Enqueue(r *Request) {
	c.readQ = append(c.readQ, r)
}

// Tick is annotated as a hot path but allocates a scratch slice every
// call through its helper: hotalloc must flag the make in rebuild.
//
//mclint:hotpath
func (c *Controller) Tick(now uint64) {
	c.rebuild()
}

func (c *Controller) rebuild() {
	scratch := make([]*Request, 0, len(c.readQ))
	scratch = append(scratch, c.readQ...)
	c.readQ = scratch
}
