// Package cpu models the in-order cores of the scale-out pod (paper
// Table 2): single-issue 2GHz cores that block on load misses, with a
// small outstanding-miss window standing in for the limited
// memory-level parallelism of in-order pipelines, and a store buffer
// that makes stores non-blocking until it fills.
package cpu

import (
	"fmt"

	"cloudmc/internal/workload"
)

// Never is the event-horizon sentinel: the core cannot change state on
// its own; only an external event (a load fill or a store drain) can
// wake it.
const Never = ^uint64(0)

// AccessResult is the memory hierarchy's answer to a core request.
type AccessResult struct {
	// Rejected means the hierarchy could not accept the access
	// (MSHR or queue full); the core must retry the same instruction.
	Rejected bool
	// Pending means the access missed the LLC; completion will be
	// signalled via LoadReturned/StoreDrained.
	Pending bool
	// ExtraStall is the number of cycles the core stalls for a
	// non-pending access (0 for an L1 hit, the L2 round trip for an
	// L2 hit).
	ExtraStall int
}

// Port is the memory hierarchy interface the system model implements.
type Port interface {
	// Load issues a load from the core; addr is block-aligned by the
	// hierarchy.
	Load(now uint64, core int, addr uint64) AccessResult
	// Store issues a store.
	Store(now uint64, core int, addr uint64) AccessResult
}

// Config sizes one core.
type Config struct {
	// MLPLimit is the maximum outstanding load misses before the core
	// blocks.
	MLPLimit int
	// StoreBufferCap is the store buffer depth.
	StoreBufferCap int
	// BaseCPI is the average issue cost of one instruction in cycles
	// (>= 1); it models fetch and dependency stalls that are not
	// memory-hierarchy events.
	BaseCPI float64
}

// Validate reports an error for an unusable configuration.
func (c Config) Validate() error {
	if c.MLPLimit <= 0 {
		return fmt.Errorf("cpu: MLPLimit must be positive")
	}
	if c.StoreBufferCap <= 0 {
		return fmt.Errorf("cpu: StoreBufferCap must be positive")
	}
	if c.BaseCPI < 1 {
		return fmt.Errorf("cpu: BaseCPI must be >= 1")
	}
	return nil
}

// Stats counts per-core events over the measurement window.
type Stats struct {
	Retired    uint64
	Loads      uint64
	Stores     uint64
	LoadMisses uint64 // loads that went pending (LLC misses)
	StallLoad  uint64 // cycles blocked waiting for a load fill
	StallStore uint64 // cycles blocked on a full store buffer
}

// Core is one in-order core.
type Core struct {
	// ID is the core index.
	ID  int
	cfg Config
	gen *workload.Generator

	// pending is an instruction fetched from the generator but not yet
	// accepted by the hierarchy (retry after Rejected).
	pending    workload.Op
	hasPending bool

	stallUntil  uint64
	outstanding int  // load misses in flight
	blocked     bool // at MLP limit, waiting for any fill
	storeBuf    int

	// issueDebt implements fractional BaseCPI: every instruction adds
	// BaseCPI-1 cycles of debt paid before the next issue.
	issueDebt float64

	Stats Stats
}

// New builds a core running the given generator.
func New(id int, cfg Config, gen *workload.Generator) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Core{ID: id, cfg: cfg, gen: gen}
}

// Blocked reports whether the core is waiting on the memory system.
func (c *Core) Blocked() bool { return c.blocked }

// Outstanding returns the in-flight load-miss count.
func (c *Core) Outstanding() int { return c.outstanding }

// LoadReturned signals that one of the core's load misses has filled.
func (c *Core) LoadReturned(now uint64) {
	if c.outstanding <= 0 {
		panic(fmt.Sprintf("cpu: core %d fill with no outstanding miss", c.ID))
	}
	c.outstanding--
	if c.outstanding < c.cfg.MLPLimit {
		c.blocked = false
	}
}

// StoreDrained signals that a buffered store finished its cache
// transaction.
func (c *Core) StoreDrained(now uint64) {
	if c.storeBuf <= 0 {
		panic(fmt.Sprintf("cpu: core %d store drain with empty buffer", c.ID))
	}
	c.storeBuf--
}

// Tick advances the core one cycle, executing at most one instruction.
func (c *Core) Tick(now uint64, port Port) {
	if c.blocked {
		c.Stats.StallLoad++
		return
	}
	if now < c.stallUntil {
		return
	}
	if !c.hasPending {
		c.pending = c.gen.Next()
		c.hasPending = true
	}
	op := c.pending
	switch op.Kind {
	case workload.OpNonMem:
		c.retire(now)
	case workload.OpLoad:
		res := port.Load(now, c.ID, op.Addr)
		if res.Rejected {
			return // retry the same instruction next cycle
		}
		c.Stats.Loads++
		if res.Pending {
			c.Stats.LoadMisses++
			c.outstanding++
			if c.outstanding >= c.cfg.MLPLimit {
				c.blocked = true
			}
		} else if res.ExtraStall > 0 {
			c.stallUntil = now + uint64(res.ExtraStall)
		}
		c.retire(now)
	case workload.OpStore:
		if c.storeBuf >= c.cfg.StoreBufferCap {
			c.Stats.StallStore++
			return // wait for the buffer to drain
		}
		res := port.Store(now, c.ID, op.Addr)
		if res.Rejected {
			return
		}
		c.Stats.Stores++
		if res.Pending {
			c.storeBuf++
		}
		c.retire(now)
	}
}

// NextEvent returns the earliest cycle >= now at which this core can
// change state: now itself when the core would issue this cycle,
// stallUntil while a timed stall runs, and Never while the core is
// waiting on the memory system (a load fill at the MLP limit, or a
// store stuck behind a full store buffer). Between now and the
// returned cycle, Tick is a no-op except for the stall counters, which
// Advance applies in bulk. The event kernel (core/kernel.go) uses this
// value as the core's wake-up time.
func (c *Core) NextEvent(now uint64) uint64 {
	if c.blocked {
		return Never
	}
	if now < c.stallUntil {
		return c.stallUntil
	}
	if c.hasPending && c.pending.Kind == workload.OpStore && c.storeBuf >= c.cfg.StoreBufferCap {
		return Never
	}
	return now
}

// Advance applies the effect of the quiescent cycles [from, to) in one
// step, replicating exactly the stall statistics the per-cycle Tick
// loop would have accumulated. It must only be called for windows in
// which NextEvent(from) >= to held and no fill or drain arrived.
// Windows are additive: splitting [from, to) at any boundary and
// calling Advance per segment accumulates the same totals, which is
// what lets the event kernel settle blocked cores lazily (on wake-up
// or at an Advance boundary) instead of on every clock jump.
func (c *Core) Advance(from, to uint64) {
	if to <= from {
		return
	}
	if c.blocked {
		// Tick counts a load-stall cycle whenever the core is blocked,
		// regardless of any overlapping timed stall.
		c.Stats.StallLoad += to - from
		return
	}
	if c.hasPending && c.pending.Kind == workload.OpStore && c.storeBuf >= c.cfg.StoreBufferCap {
		// Store-buffer stalls only count once the timed stall has
		// elapsed (Tick returns at the stallUntil check first).
		start := from
		if c.stallUntil > start {
			start = c.stallUntil
		}
		if to > start {
			c.Stats.StallStore += to - start
		}
	}
}

// retire commits the pending instruction and charges base-CPI debt.
// Memory stalls assigned before retire (L2 hits) are preserved: the
// core resumes at whichever stall ends later.
func (c *Core) retire(now uint64) {
	c.hasPending = false
	c.Stats.Retired++
	c.issueDebt += c.cfg.BaseCPI - 1
	if c.issueDebt >= 1 {
		whole := uint64(c.issueDebt)
		c.issueDebt -= float64(whole)
		if at := now + 1 + whole; at > c.stallUntil {
			c.stallUntil = at
		}
	}
}

// ResetStats zeroes the measurement counters (after warmup).
func (c *Core) ResetStats() { c.Stats = Stats{} }
