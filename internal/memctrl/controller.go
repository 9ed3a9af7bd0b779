package memctrl

import (
	"fmt"
	"math/bits"

	"cloudmc/internal/dram"
	"cloudmc/internal/pagepolicy"
	"cloudmc/internal/stats"
)

// Config holds the controller's queue and write-drain parameters.
type Config struct {
	// ReadQueueCap and WriteQueueCap bound the queues; enqueue fails
	// (backpressure) when full.
	ReadQueueCap  int
	WriteQueueCap int
	// WriteHi and WriteLo are the write-drain watermarks: the
	// controller switches to draining writes when the write queue
	// reaches WriteHi and back to reads when it falls to WriteLo.
	WriteHi int
	WriteLo int
	// ForwardLatency is the latency of serving a read straight from
	// the write queue (store-to-load forwarding inside the MC).
	ForwardLatency int
}

// DefaultConfig returns the queue configuration used by the study:
// queues sized comfortably above the occupancies the paper observes
// (§4.1.3 reports at most 10 reads and 50 writes outstanding).
func DefaultConfig() Config {
	return Config{
		ReadQueueCap:   64,
		WriteQueueCap:  64,
		WriteHi:        40,
		WriteLo:        16,
		ForwardLatency: 4,
	}
}

// Validate reports an error for inconsistent parameters.
func (c Config) Validate() error {
	if c.ReadQueueCap <= 0 || c.WriteQueueCap <= 0 {
		return fmt.Errorf("memctrl: queue capacities must be positive (read %d, write %d)", c.ReadQueueCap, c.WriteQueueCap)
	}
	if c.WriteHi <= 0 || c.WriteHi > c.WriteQueueCap {
		return fmt.Errorf("memctrl: WriteHi %d out of range (cap %d)", c.WriteHi, c.WriteQueueCap)
	}
	if c.WriteLo < 0 || c.WriteLo >= c.WriteHi {
		return fmt.Errorf("memctrl: WriteLo %d must be in [0, WriteHi)", c.WriteLo)
	}
	if c.ForwardLatency < 1 {
		return fmt.Errorf("memctrl: ForwardLatency must be >= 1")
	}
	return nil
}

// Stats accumulates controller-level statistics over a measurement
// window.
type Stats struct {
	// ReadsServed and WritesServed count completed transfers.
	ReadsServed  uint64
	WritesServed uint64
	// RowHits/RowMisses/RowConflicts classify every column access:
	// hit = served from an already-open row; miss = required an
	// activation of an idle bank; conflict = required closing another
	// row first.
	RowHits      uint64
	RowMisses    uint64
	RowConflicts uint64
	// ReadLatency tracks queue+service latency of reads (arrival at
	// the controller to last data beat).
	ReadLatency stats.LatencyHist
	// ReadQ and WriteQ are time-weighted queue-occupancy trackers.
	ReadQ  stats.TimeWeighted
	WriteQ stats.TimeWeighted
	// ForwardedReads counts reads served from the write queue.
	ForwardedReads uint64
	// EnqueueFailures counts rejected enqueues (backpressure).
	EnqueueFailures uint64
	// PolicyCloses counts precharges issued by the page policy;
	// ConflictCloses counts precharges forced by conflicting requests.
	PolicyCloses   uint64
	ConflictCloses uint64
	// Parks counts ticks that parked the controller behind a
	// multi-cycle event horizon; Wakes counts full ticks that ended
	// such a parked window. Engine telemetry for the obs recorder, not
	// architecture: both stay zero with the fast path off, and neither
	// feeds core.Metrics, so the bit-identity suites ignore them.
	Parks uint64
	Wakes uint64
}

// RowHitRate returns hits / (hits + misses + conflicts).
func (s *Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// TenantStats accumulates one tenant's share of the controller
// statistics; enabled by TrackTenants and indexed by Request.Tenant.
type TenantStats struct {
	// ReadsServed and WritesServed count completed transfers.
	ReadsServed  uint64
	WritesServed uint64
	// ReadLatencySum is the summed queue+service latency of the
	// tenant's served reads (divide by ReadsServed for the mean).
	ReadLatencySum uint64
	// RowHits/RowMisses/RowConflicts classify the tenant's column
	// accesses like the controller-wide counters.
	RowHits      uint64
	RowMisses    uint64
	RowConflicts uint64
}

// RowHitRate returns hits / (hits + misses + conflicts).
func (s *TenantStats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// completion is an in-flight data transfer.
type completion struct {
	at uint64
	//mclint:owns -- the retire loop pops the completion and recycles its request in the same iteration; nothing reads the slot afterwards (inflightHd advances past it)
	req *Request
}

// CommandTrace receives every DRAM command the controller issues —
// the command-level observability hook. Implementations must not
// mutate controller or channel state; the simulation must stay
// bit-identical with or without a trace attached. tenant is the
// issuing request's tenant index, or -1 for commands without an
// attributable requester (page-policy precharges on idle cycles).
// For precharges the command's Loc.Row is the row being closed.
// Reads forwarded from the write queue never touch DRAM and are
// therefore not traced.
//
// A simulation ticks its controllers one at a time in ascending
// channel order, so a trace shared across channels sees commands in
// (cycle, channel) order — a total order, since a controller issues at
// most one command per cycle.
type CommandTrace interface {
	Command(now uint64, cmd dram.Command, tenant int)
}

// Controller is one per-channel memory controller.
type Controller struct {
	cfg    Config
	ch     *dram.Channel
	policy Policy
	page   pagepolicy.Policy

	//mclint:owns -- a request leaves readQ at issue/forward time (removeRequest), strictly before its recycle in Tick step 1
	readQ []*Request
	//mclint:owns -- a request leaves writeQ at issue or coalesce time (removeRequest), strictly before its recycle in Tick step 1
	writeQ []*Request

	// writeByAddr indexes the write queue by block address: the
	// read-forwarding and write-coalescing checks every enqueue runs
	// are point lookups here instead of O(writeQ) scans. Addresses
	// are unique within the queue (coalescing guarantees it), and the
	// map is only ever probed — never iterated — so it introduces no
	// ordering sensitivity.
	//mclint:owns -- the entry is deleted when its write issues (issue deletes by Addr), before the request can recycle; debug builds assert residue at the recycle point (assertRecycleClean)
	writeByAddr map[uint64]*Request

	// inflight holds issued column accesses ordered by completion
	// time (insertion keeps it sorted; it stays tiny). It is a
	// head-indexed ring: retiring advances inflightHd instead of
	// reslicing, so the backing array's capacity is reused forever
	// rather than creeping forward and reallocating.
	inflight   []completion
	inflightHd int

	// freeReq recycles Request structs: a request retired in Tick
	// step 1 goes back on the list and the next enqueue reuses it, so
	// the steady-state busy path allocates nothing. Safe because the
	// controller owns the full lifecycle — requests leave every queue
	// and group at issue time, policies do not retain pointers past
	// OnComplete (the Policy contract), and OnDone callbacks receive
	// only the completion cycle.
	//mclint:owns -- freeReq IS the free list; entering it is the recycle point itself
	freeReq []*Request

	writeMode bool
	nextID    uint64

	// pendingClose marks banks whose open row the page policy has
	// decided to precharge once timing allows; indexed rank*banks+bank.
	pendingClose []bool

	// fastPath enables the event-horizon tick skip; off, Tick runs its
	// full body every cycle exactly like the original lockstep loop.
	fastPath bool
	// wakeAt is the event horizon: the earliest future cycle at which
	// this controller's state can change (a command becoming legal, a
	// pending page-policy close, or a timed policy event). While
	// now < wakeAt and no in-flight transfer completes, Tick is a
	// provable no-op and returns immediately. Zero means "unknown —
	// run the full tick". Every enqueue that queues a request resets
	// it, so queue contents never change inside a parked window.
	wakeAt uint64

	// Candidate-group index (see groups.go): one live entry per
	// (bankIdx, row), maintained incrementally by the enqueue and
	// remove paths, consumed by buildOptions. grp is the group arena,
	// sized once by New (handles are indices, grpFree holds every
	// handle not live); bankGroups lists each bank's live handles
	// (indexed rank*banks+bank; order is irrelevant, so removal swaps
	// with the tail); readOrder and writeOrder keep the groups with
	// queued reads/writes sorted by oldest-member ID. grpBound holds the
	// dense, handle-indexed earliest-issue memos of each group, one
	// array for its oldest read and one for its oldest write
	// (cycle<<1 | row-hit flag, 0 = unknown), that let the builds and
	// the park fold skip groups that cannot issue yet; rankActs (per
	// rank) and colCmds count the ACTIVATEs and column commands
	// issueCmd sent, the cross-bank families a memo is stamped with
	// (see groups.go).
	grp        []group
	grpBound   [2][]uint64
	rankActs   []uint32
	colCmds    uint32
	grpFree    []int32
	bankGroups [][]int32
	readOrder  []int32
	writeOrder []int32

	// scratch buffers reused across cycles to avoid allocation.
	optBuf []Option
	view   View

	// Straight-port reference rebuild state, used only by
	// buildOptionsRef (the per-tick O(queue) twin VerifyCandidateGroups
	// and the property suites compare the incremental index against).
	// The (rank, bank, row) grouping uses epoch-stamped open addressing
	// (no per-call clearing, no runtime map machinery).
	refBuf  []Option
	groups  groupTable
	gkOrder []uint32 // slot indices into groups, insertion order

	// tenants holds per-tenant accounting when TrackTenants enabled it
	// (multi-tenant systems); nil otherwise.
	tenants []TenantStats

	// trace, when non-nil, observes every issued DRAM command. The hot
	// loop pays exactly one nil-check branch per issued command when
	// tracing is off.
	trace CommandTrace
	// parked distinguishes a wake-up full tick from a hot full tick so
	// Stats.Wakes counts parked windows ended, not ticks run.
	parked bool

	Stats Stats
}

// Queue-selection modes: which queues the controller offers to the
// policy. The option builders and the horizon fold all take the mode
// from queueMode, so the event horizon is always "the first cycle an
// option appears" for the queue set the next full tick will consider.
const (
	modeReads uint8 = iota
	modeWrites
	modeBoth
)

// groupTable indexes queued requests by (bankIdx, row), keeping the
// oldest request of each group. Slots are invalidated wholesale by
// bumping the epoch; load factor stays at or below 50% because the
// table is sized by the queue capacities.
type groupTable struct {
	slots []groupSlot
	mask  uint64
	shift uint
	epoch uint32
}

type groupSlot struct {
	key   uint64
	epoch uint32
	//mclint:owns -- reference-rebuild scratch: every slot is epoch-invalidated at the top of each buildOptionsRef call, so a stale pointer is never dereferenced
	req *Request
}

// newGroupTable sizes the table for at most maxGroups resident
// entries: the smallest power of two >= 2*maxGroups (minimum 8),
// keeping the load factor at or below 50%.
func newGroupTable(maxGroups int) groupTable {
	n := uint(bits.Len64(2*uint64(maxGroups) - 1))
	if n < 3 {
		n = 3
	}
	return groupTable{slots: make([]groupSlot, uint64(1)<<n), mask: uint64(1)<<n - 1, shift: 64 - n}
}

// reset invalidates every slot in O(1) by advancing the epoch.
func (t *groupTable) reset() {
	t.epoch++
	if t.epoch == 0 {
		// Wrapped: stale slots could alias the new epoch; clear once
		// every 2^32 resets.
		for i := range t.slots {
			t.slots[i] = groupSlot{}
		}
		t.epoch = 1
	}
}

// slot returns the slot index for key, probing past live entries with
// other keys; the returned slot either matches key or is free this
// epoch.
func (t *groupTable) slot(key uint64) uint32 {
	i := (key * 0x9e3779b97f4a7c15) >> t.shift
	for {
		s := &t.slots[i]
		if s.epoch != t.epoch || s.key == key {
			return uint32(i)
		}
		i = (i + 1) & t.mask
	}
}

// New builds a controller for channel ch with the given scheduling and
// page-management policies.
func New(cfg Config, ch *dram.Channel, policy Policy, page pagepolicy.Policy) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ch == nil || policy == nil || page == nil {
		return nil, fmt.Errorf("memctrl: nil channel, policy, or page policy")
	}
	banks := ch.Geo.Ranks * ch.Geo.Banks
	// Every live candidate group holds a queued request, so the arena
	// never needs more groups than the queues hold requests (groups.go).
	groups := cfg.ReadQueueCap + cfg.WriteQueueCap
	c := &Controller{
		cfg:          cfg,
		ch:           ch,
		policy:       policy,
		page:         page,
		pendingClose: make([]bool, banks),
		rankActs:     make([]uint32, ch.Geo.Ranks),
		bankGroups:   make([][]int32, banks),
		grp:          make([]group, groups),
		grpBound:     [2][]uint64{make([]uint64, groups), make([]uint64, groups)},
		grpFree:      make([]int32, groups),
		writeByAddr:  make(map[uint64]*Request, cfg.WriteQueueCap),
	}
	// Handle 0 on top: allocGroup hands out 0, 1, 2, ... first.
	for i := range c.grpFree {
		c.grpFree[i] = int32(groups - 1 - i)
	}
	return c, nil
}

// Channel exposes the underlying DRAM channel (for device statistics).
func (c *Controller) Channel() *dram.Channel { return c.ch }

// SetFastForward toggles the event-horizon tick skip. The produced
// statistics are bit-identical either way; the flag exists so the
// naive loop stays available as the equivalence baseline.
func (c *Controller) SetFastForward(on bool) {
	c.fastPath = on
	c.wakeAt = 0
	c.parked = false
}

// SetTrace installs a command-level trace (nil disables tracing).
// Tracing is observation only: it never changes what the controller
// issues or when, so traced runs stay bit-identical to untraced ones.
func (c *Controller) SetTrace(t CommandTrace) { c.trace = t }

// Policy exposes the scheduling policy.
func (c *Controller) Policy() Policy { return c.policy }

// PagePolicy exposes the page-management policy.
func (c *Controller) PagePolicy() pagepolicy.Policy { return c.page }

// QueueLens returns current read and write queue occupancies.
func (c *Controller) QueueLens() (reads, writes int) {
	return len(c.readQ), len(c.writeQ)
}

// Pending returns the number of requests queued or in flight.
func (c *Controller) Pending() int {
	return len(c.readQ) + len(c.writeQ) + len(c.inflight) - c.inflightHd
}

// EnqueueRead queues a read. It returns false when the read queue is
// full; the caller must retry later (modelling backpressure into the
// cache hierarchy). Reads that match a queued write's address are
// served by forwarding without touching DRAM; they leave a park alone,
// since NextEvent already reports their completion. A queued read ends
// any park: the next Tick runs in full, in this same cycle under the
// kernel, whose controller phase follows every enqueue phase.
//
//mclint:hotpath
func (c *Controller) EnqueueRead(now uint64, src Source, addr uint64, loc dram.Location, kind RequestKind, onDone func(uint64)) bool {
	if kind.IsWrite() {
		panic("memctrl: EnqueueRead called with a write kind")
	}
	if _, ok := c.writeByAddr[addr]; ok {
		c.Stats.ForwardedReads++
		r := c.newRequest()
		*r = Request{
			ID: c.nextID, Core: src.Core, Tenant: src.Tenant, Addr: addr, Loc: loc,
			Kind: kind, Arrival: now, OnDone: onDone,
		}
		c.nextID++
		c.scheduleCompletion(r, now+uint64(c.cfg.ForwardLatency))
		return true
	}
	if len(c.readQ) >= c.cfg.ReadQueueCap {
		c.Stats.EnqueueFailures++
		return false
	}
	r := c.newRequest()
	*r = Request{
		ID: c.nextID, Core: src.Core, Tenant: src.Tenant, Addr: addr, Loc: loc,
		Kind: kind, Arrival: now, OnDone: onDone,
	}
	c.nextID++
	c.readQ = append(c.readQ, r)
	c.groupEnqueue(r)
	c.wakeAt = 0
	return true
}

// EnqueueWrite queues a writeback. It returns false when the write
// queue is full. A write to an address already queued is merged and
// leaves a park alone; a queued write ends it, like a queued read.
//
//mclint:hotpath
func (c *Controller) EnqueueWrite(now uint64, src Source, addr uint64, loc dram.Location, onDone func(uint64)) bool {
	if _, ok := c.writeByAddr[addr]; ok {
		// Coalesce: the queued write already covers this block.
		if onDone != nil {
			onDone(now)
		}
		return true
	}
	if len(c.writeQ) >= c.cfg.WriteQueueCap {
		c.Stats.EnqueueFailures++
		return false
	}
	r := c.newRequest()
	*r = Request{
		ID: c.nextID, Core: src.Core, Tenant: src.Tenant, Addr: addr, Loc: loc,
		Kind: WriteBack, Arrival: now, OnDone: onDone,
	}
	c.nextID++
	c.writeQ = append(c.writeQ, r)
	c.writeByAddr[addr] = r //mclint:alloc-ok -- the map is pre-sized to WriteQueueCap at construction and never holds more than the queue cap, so steady-state writes never grow it
	c.groupEnqueue(r)
	c.wakeAt = 0
	return true
}

// newRequest returns a Request from the free list, or a fresh one.
// Callers overwrite every field (*r = Request{...}), so recycled
// structs carry no state across lives.
func (c *Controller) newRequest() *Request {
	if n := len(c.freeReq); n > 0 {
		r := c.freeReq[n-1]
		c.freeReq[n-1] = nil
		c.freeReq = c.freeReq[:n-1]
		return r
	}
	return &Request{} //mclint:alloc-ok -- free-list cold path: taken only until the working set of in-flight requests has been minted once; steady state always pops the list
}

// assertRecycleClean verifies, immediately before r returns to the
// free list, that no index still reaches it. Today that means the
// writeByAddr dedup map: a write is deleted from it at issue time, so
// a surviving identity-match entry is a lifetime bug that would let a
// future EnqueueRead forward stale data from a recycled struct. The
// check is compiled in always but called only when debugLifetime is
// set (-tags mclintdebug); the stale entry is removed before
// panicking so tests can recover and keep the controller usable.
func (c *Controller) assertRecycleClean(r *Request) {
	if c.writeByAddr[r.Addr] == r {
		delete(c.writeByAddr, r.Addr)
		panic(fmt.Sprintf("memctrl: recycling request %d (addr %#x) still indexed by writeByAddr — dropped reference discipline violated", r.ID, r.Addr))
	}
}

func (c *Controller) scheduleCompletion(r *Request, at uint64) {
	if c.inflightHd > 0 && len(c.inflight) == cap(c.inflight) {
		// Out of room at the tail but retired slots sit at the front:
		// compact instead of letting append reallocate.
		n := copy(c.inflight, c.inflight[c.inflightHd:])
		for i := n; i < len(c.inflight); i++ {
			c.inflight[i] = completion{}
		}
		c.inflight = c.inflight[:n]
		c.inflightHd = 0
	}
	i := len(c.inflight)
	c.inflight = append(c.inflight, completion{})
	for i > c.inflightHd && c.inflight[i-1].at > at {
		c.inflight[i] = c.inflight[i-1]
		i--
	}
	c.inflight[i] = completion{at: at, req: r}
}

// Tick advances the controller by one cycle: completes finished
// transfers, updates drain mode, asks the policy for a command, and
// issues it (or a page-policy precharge when the bus is free).
//
// When the previous full tick established an event horizon (wakeAt),
// no request was queued since and no transfer completes this cycle,
// the tick returns immediately: the queue contents, bank states, drain
// mode and policy state are all provably unchanged, and the skipped
// queue-occupancy samples are recovered exactly by the time-weighted
// trackers.
//
//mclint:hotpath
func (c *Controller) Tick(now uint64) {
	if c.fastPath && now < c.wakeAt && (len(c.inflight) == c.inflightHd || c.inflight[c.inflightHd].at > now) {
		return
	}
	if c.parked {
		c.parked = false
		c.Stats.Wakes++
	}

	// 1. Retire completed transfers. The retired Request goes back on
	// the free list — every reference to it (queues, groups, options)
	// was dropped at issue time, and OnComplete is the last contact
	// the policy contract allows.
	for len(c.inflight) > c.inflightHd && c.inflight[c.inflightHd].at <= now {
		done := c.inflight[c.inflightHd]
		c.inflight[c.inflightHd] = completion{}
		c.inflightHd++
		ts := c.tenantStatsFor(done.req)
		if !done.req.Kind.IsWrite() {
			c.Stats.ReadsServed++
			c.Stats.ReadLatency.Add(done.at - done.req.Arrival)
			if ts != nil {
				ts.ReadsServed++
				ts.ReadLatencySum += done.at - done.req.Arrival
			}
		} else {
			c.Stats.WritesServed++
			if ts != nil {
				ts.WritesServed++
			}
		}
		if done.req.OnDone != nil {
			done.req.OnDone(now)
		}
		c.policy.OnComplete(done.req, now)
		if debugLifetime {
			c.assertRecycleClean(done.req)
		}
		c.freeReq = append(c.freeReq, done.req)
	}
	if c.inflightHd == len(c.inflight) && c.inflightHd > 0 {
		c.inflight = c.inflight[:0]
		c.inflightHd = 0
	}

	// 2. Queue-occupancy statistics.
	c.Stats.ReadQ.Set(now, float64(len(c.readQ)))
	c.Stats.WriteQ.Set(now, float64(len(c.writeQ)))

	c.policy.Tick(now)

	// 3. Drain-mode hysteresis (skipped for write-aware policies,
	// which see both queues every cycle).
	mixed := considersWrites(c.policy)
	if !mixed {
		if !c.writeMode && len(c.writeQ) >= c.cfg.WriteHi {
			c.writeMode = true
		} else if c.writeMode && len(c.writeQ) <= c.cfg.WriteLo {
			c.writeMode = false
		}
	}

	// 4. Build the option set and let the policy pick.
	c.buildOptions(now, mixed)
	issued := dram.Command{Kind: dram.CmdNop}
	picked := -1
	if len(c.view.Options) > 0 {
		picked = c.policy.Pick(&c.view)
		if picked >= len(c.view.Options) {
			panic(fmt.Sprintf("memctrl: policy %s picked option %d of %d", c.policy.Name(), picked, len(c.view.Options)))
		}
	}
	closed := false
	if picked >= 0 {
		opt := c.view.Options[picked]
		c.issue(now, opt)
		issued = opt.Cmd
	} else {
		// 5. Idle cycle: give the page policy a chance to close rows.
		if cmd, ok := c.tryPendingClose(now); ok {
			issued = cmd
			closed = true
		}
	}
	c.policy.OnIssue(&c.view, picked, issued, now)

	// 6. Establish the event horizon for the cycles ahead. If anything
	// happened — or could have happened (options the policy declined
	// must be re-offered next cycle) — the controller stays hot.
	if !c.fastPath {
		return
	}
	if picked >= 0 || closed || len(c.view.Options) > 0 {
		c.wakeAt = now + 1
		return
	}
	c.wakeAt = c.idleHorizon(now)
	if c.wakeAt > now+1 {
		c.parked = true
		c.Stats.Parks++
	}
}

// idleHorizon computes the earliest future cycle at which this
// controller could act, given that nothing is legal now: the first
// cycle a queued request's next command becomes issuable, the first
// cycle a surviving pending page-policy close becomes issuable, and
// the policy's next timed event. It is called only after a full tick
// in which tryPendingClose has already re-validated (and pruned) the
// pendingClose flags, exactly as the per-cycle loop would have on the
// first skipped cycle; because queue contents and bank state are
// frozen until the next enqueue, completion or wake-up, those
// validations cannot change during the skipped window.
//
// The computation is a fold over the candidate groups' earliest-issue
// memos, one per request kind this tick's queue mode considers: the
// read memos over readOrder unless the mode is modeWrites, the write
// memos over writeOrder unless it is modeReads. The same tick's
// buildOptions offered no option and issued nothing, so every cycle a
// single-kind fold takes lies past now. EarliestIssue reads Loc.Row
// only for column commands, where it is the open row, so every request
// of a group that needs the same command kind shares its oldest one's
// cycle. In modeBoth a group holding reads and writes to the open row
// offers only its oldest member's column command, and the other kind's
// memo is folded in too, so the horizon still wakes for it
// (VerifyParkHorizon holds every considered request to that rule).
//
// The build skipped groups on their earliest-issue bounds, which may
// have gone stale. The fold therefore considers a group only while its
// bound is below the running minimum, and takes that group's exact
// cycle from memo. A group it passes over has a true cycle at or above
// its bound, which is at or above the minimum, so the result equals the
// fold over every group's exact cycle.
func (c *Controller) idleHorizon(now uint64) uint64 {
	mode := c.queueMode(considersWrites(c.policy))
	h := dram.Never
	if mode != modeWrites {
		h = c.foldMemos(c.readOrder, 0, h)
	}
	if mode != modeReads {
		h = c.foldMemos(c.writeOrder, 1, h)
	}
	for b, pending := range c.pendingClose {
		if !pending {
			continue
		}
		loc := dram.Location{Channel: c.ch.ID, Rank: b / c.ch.Geo.Banks, Bank: b % c.ch.Geo.Banks}
		if at := c.ch.EarliestIssue(dram.Command{Kind: dram.CmdPrecharge, Loc: loc}); at < h {
			h = at
		}
	}

	if eh, ok := c.policy.(EventHorizon); ok {
		if at := eh.NextPolicyEvent(now); at < h {
			h = at
		}
	}
	if h <= now {
		h = now + 1
	}
	return h
}

// foldMemos folds the kind-w memos of the groups in order into the
// running minimum h (see idleHorizon).
func (c *Controller) foldMemos(order []int32, w int, h uint64) uint64 {
	bnd := c.grpBound[w]
	for _, gh := range order {
		if bnd[gh]>>1 >= h {
			continue
		}
		if _, at := c.memo(gh, w); at < h {
			h = at
		}
	}
	return h
}

// commandFor returns the next command advancing r given the current
// bank state.
func (c *Controller) commandFor(r *Request) dram.Command {
	return dram.Command{Kind: nextKind(c.ch.Bank(r.Loc.Rank, r.Loc.Bank), r), Loc: r.Loc}
}

// nextKind is the one rule for a request's next command, shared by the
// candidate groups (memo and groupOption, which pass their group's bank
// pointer) and VerifyParkHorizon (via commandFor).
func nextKind(bank *dram.Bank, r *Request) dram.CommandKind {
	switch {
	case bank.State == dram.BankIdle:
		return dram.CmdActivate
	case bank.OpenRow != r.Loc.Row:
		return dram.CmdPrecharge
	case r.Kind.IsWrite():
		return dram.CmdWrite
	default:
		return dram.CmdRead
	}
}

// NextEvent reports the earliest cycle >= now at which this controller
// can change state: the established event horizon or the next
// in-flight completion, whichever comes first. A result of now means
// the controller must tick every cycle (horizon unknown or work due).
func (c *Controller) NextEvent(now uint64) uint64 {
	if !c.fastPath {
		return now
	}
	h := c.wakeAt
	if len(c.inflight) > c.inflightHd && c.inflight[c.inflightHd].at < h {
		h = c.inflight[c.inflightHd].at
	}
	if h < now {
		return now
	}
	return h
}

// effectiveWriteMode reports whether the controller serves writes this
// cycle: either drain mode, or opportunistically when no reads wait.
// Defined on queueMode so the rule cannot drift from the horizon's
// queue selection.
func (c *Controller) effectiveWriteMode() bool {
	return c.queueMode(false) == modeWrites
}

// queueMode derives the queue-selection mode from the drain flag and
// the current queue lengths. It is the single source of the selection
// rules: buildOptions, idleHorizon and VerifyParkHorizon must agree by
// construction — the event horizon is "the first cycle an option
// appears", so deriving it from a different queue set than the option
// builder would make the controller wake from the wrong queues.
func (c *Controller) queueMode(mixed bool) uint8 {
	if mixed {
		// Safety valve: when the write queue is nearly full, offer
		// only write-advancing options so the policy cannot wedge the
		// cache hierarchy.
		if len(c.writeQ) >= c.cfg.WriteQueueCap-4 {
			return modeWrites
		}
		return modeBoth
	}
	// Drain mode, or opportunistic writes when no reads wait.
	if c.writeMode || (len(c.readQ) == 0 && len(c.writeQ) > 0) {
		return modeWrites
	}
	return modeReads
}

// consideredQueues returns the queues whose requests the controller
// offers to the policy this cycle.
func (c *Controller) consideredQueues(mixed bool) (primary, secondary []*Request) {
	switch c.queueMode(mixed) {
	case modeWrites:
		return c.writeQ, nil
	case modeBoth:
		return c.readQ, c.writeQ
	default:
		return c.readQ, nil
	}
}

// buildOptions computes the set of legal commands for this cycle into
// c.view from the incremental candidate-group index (groups.go):
// at most one command per live (rank, bank, row) group, emitted in
// the same first-appearance order as the reference rebuild. The cost
// is O(live groups) per tick, and dram is asked only for groups whose
// memo is unknown or whose command's family moved (see memo).
//
// A group offers its representative's command: its oldest request of
// the mode's kind, or in modeBoth its oldest request of either kind.
// When the bound of that request kind's memo lies past now the group is
// skipped on that one word: its command cannot be legal yet, so it adds
// no option, and the bound's row-hit flag still counts toward
// PendingRowHits. The single-kind modes test the bound before loading
// the group at all.
func (c *Controller) buildOptions(now uint64, mixed bool) {
	c.optBuf = c.optBuf[:0]
	grp := c.grp
	mode := c.queueMode(mixed)
	var pendingHits int
	// bound > lim  <=>  bound>>1 > now, whatever the flag bit.
	lim := now<<1 | 1
	if mode == modeBoth {
		// Reference order: groups with queued reads first (ascending
		// oldest-read ID — their first appearance scanning the read
		// queue), then write-only groups (ascending oldest-write ID).
		for _, h := range c.readOrder {
			g := &grp[h]
			rep, w := g.reads[0], 0
			if len(g.writes) > 0 && g.writes[0].ID < rep.ID {
				rep, w = g.writes[0], 1
			}
			if b := c.grpBound[w][h]; b > lim {
				pendingHits += int(b & 1)
				continue
			}
			pendingHits += c.groupOption(now, h, w, rep)
		}
		for _, h := range c.writeOrder {
			g := &grp[h]
			if len(g.reads) > 0 {
				continue // already emitted via readOrder
			}
			if b := c.grpBound[1][h]; b > lim {
				pendingHits += int(b & 1)
				continue
			}
			pendingHits += c.groupOption(now, h, 1, g.writes[0])
		}
	} else {
		w, order := 0, c.readOrder
		if mode == modeWrites {
			w, order = 1, c.writeOrder
		}
		bnd := c.grpBound[w]
		for _, h := range order {
			if b := bnd[h]; b > lim {
				pendingHits += int(b & 1)
				continue
			}
			// groupOption's steps, open-coded to save a call per group
			// on the hot path.
			rep := grp[h].rep(w)
			kind, at := c.memo(h, w)
			if now >= at {
				c.optBuf = append(c.optBuf, Option{
					Cmd: dram.Command{Kind: kind, Loc: rep.Loc}, Req: rep,
					RowHit: kind >= dram.CmdRead,
				})
			}
			if kind >= dram.CmdRead {
				pendingHits++
			}
		}
	}

	c.view = View{
		Now:            now,
		Options:        c.optBuf,
		ReadQLen:       len(c.readQ),
		WriteQLen:      len(c.writeQ),
		WriteMode:      c.effectiveWriteMode(),
		PendingRowHits: pendingHits,
		Channel:        c.ch.ID,
		ReadQueue:      c.readQ,
		WriteQueue:     c.writeQ,
	}
}

// buildOptionsRef is the straight-port reference rebuild: the per-tick
// O(queue) grouping pass buildOptions replaced, preserved verbatim as
// the exactness twin. VerifyCandidateGroups and the differential
// property suites regenerate the option list through it and require
// bit-identical output from the incremental index; production code
// never calls it.
func (c *Controller) buildOptionsRef(now uint64, mixed bool) ([]Option, int) {
	if c.groups.slots == nil {
		// The reference state is allocated on first use: production
		// code never rebuilds, so an ordinary controller should not
		// pay for the twin's table.
		c.groups = newGroupTable(c.cfg.ReadQueueCap + c.cfg.WriteQueueCap)
	}
	c.refBuf = c.refBuf[:0]
	c.groups.reset()
	c.gkOrder = c.gkOrder[:0]
	epoch := c.groups.epoch

	collect := func(q []*Request) {
		for _, r := range q {
			bk := r.Loc.Rank*c.ch.Geo.Banks + r.Loc.Bank
			key := uint64(bk)<<32 | uint64(uint32(r.Loc.Row))
			si := c.groups.slot(key)
			s := &c.groups.slots[si]
			if s.epoch != epoch {
				*s = groupSlot{key: key, epoch: epoch, req: r}
				c.gkOrder = append(c.gkOrder, si)
			} else if r.ID < s.req.ID {
				s.req = r
			}
		}
	}
	var pendingHits int
	primary, secondary := c.consideredQueues(mixed)
	collect(primary)
	if secondary != nil {
		collect(secondary)
	}

	for _, si := range c.gkOrder {
		r := c.groups.slots[si].req
		// The group's (rank, bank, row) is the representative
		// request's own location.
		loc := r.Loc
		bank := c.ch.Bank(loc.Rank, loc.Bank)
		switch {
		case bank.State == dram.BankIdle:
			cmd := dram.Command{Kind: dram.CmdActivate, Loc: loc}
			if c.ch.CanIssue(now, cmd) {
				c.refBuf = append(c.refBuf, Option{Cmd: cmd, Req: r})
			}
		case bank.OpenRow == loc.Row:
			pendingHits++
			kind := dram.CmdRead
			if r.Kind.IsWrite() {
				kind = dram.CmdWrite
			}
			cmd := dram.Command{Kind: kind, Loc: loc}
			if c.ch.CanIssue(now, cmd) {
				c.refBuf = append(c.refBuf, Option{Cmd: cmd, Req: r, RowHit: true})
			}
		default:
			cmd := dram.Command{Kind: dram.CmdPrecharge, Loc: loc}
			if c.ch.CanIssue(now, cmd) {
				c.refBuf = append(c.refBuf, Option{Cmd: cmd, Req: r})
			}
		}
	}

	return c.refBuf, pendingHits
}

// issue applies the chosen option and performs request/page-policy
// bookkeeping.
func (c *Controller) issue(now uint64, opt Option) {
	loc := opt.Cmd.Loc
	bankIdx := loc.Rank*c.ch.Geo.Banks + loc.Bank
	switch opt.Cmd.Kind {
	case dram.CmdActivate:
		c.issueCmd(now, opt.Cmd)
		if c.trace != nil {
			c.trace.Command(now, opt.Cmd, opt.Req.Tenant)
		}
		opt.Req.triggeredActivate = true
		c.pendingClose[bankIdx] = false
		c.page.OnActivate(loc)
	case dram.CmdPrecharge:
		bank := c.ch.Bank(loc.Rank, loc.Bank)
		closed := dram.Location{Channel: loc.Channel, Rank: loc.Rank, Bank: loc.Bank, Row: bank.OpenRow}
		accesses := bank.RowAccesses()
		c.issueCmd(now, opt.Cmd)
		if c.trace != nil {
			// Trace the row being closed, not the requester's target row.
			c.trace.Command(now, dram.Command{Kind: dram.CmdPrecharge, Loc: closed}, opt.Req.Tenant)
		}
		opt.Req.triggeredConflict = true
		c.pendingClose[bankIdx] = false
		c.Stats.ConflictCloses++
		c.page.OnRowClosed(closed, accesses, true)
	case dram.CmdRead, dram.CmdWrite:
		finish := c.issueCmd(now, opt.Cmd)
		if c.trace != nil {
			c.trace.Command(now, opt.Cmd, opt.Req.Tenant)
		}
		c.classify(opt.Req)
		c.removeRequest(opt.Req)
		c.scheduleCompletion(opt.Req, finish)
		// Consult the page policy with the post-access queue state.
		same, other := c.pendingForRow(loc)
		ctx := pagepolicy.CloseContext{
			Loc:             loc,
			Accesses:        c.ch.Bank(loc.Rank, loc.Bank).RowAccesses(),
			PendingSameRow:  same,
			PendingOtherRow: other,
		}
		c.pendingClose[bankIdx] = c.page.ShouldClose(ctx)
	default:
		panic(fmt.Sprintf("memctrl: cannot issue %v", opt.Cmd))
	}
}

// issueCmd sends cmd to the channel and returns what
// dram.Channel.Issue returns. It is the controller's one path to Issue,
// and so the one place that keeps the candidate groups' memos honest
// (see groups.go and memo). A command to a bank can make a group's next
// command earlier, so it first zeroes both earliest-issue bounds of
// every group in the command's bank, before a column access's
// removeRequest can free one. A command to another bank can only raise
// a threshold of its family, so it counts the family: ACTIVATEs per
// rank, column commands per channel.
func (c *Controller) issueCmd(now uint64, cmd dram.Command) uint64 {
	for _, h := range c.bankGroups[cmd.Loc.Rank*c.ch.Geo.Banks+cmd.Loc.Bank] {
		c.grpBound[0][h], c.grpBound[1][h] = 0, 0
	}
	switch cmd.Kind {
	case dram.CmdActivate:
		c.rankActs[cmd.Loc.Rank]++
	case dram.CmdRead, dram.CmdWrite:
		c.colCmds++
	}
	return c.ch.Issue(now, cmd)
}

// classify files the row-buffer outcome of a column access.
func (c *Controller) classify(r *Request) {
	ts := c.tenantStatsFor(r)
	switch {
	case r.triggeredConflict:
		c.Stats.RowConflicts++
		if ts != nil {
			ts.RowConflicts++
		}
	case r.triggeredActivate:
		c.Stats.RowMisses++
		if ts != nil {
			ts.RowMisses++
		}
	default:
		c.Stats.RowHits++
		if ts != nil {
			ts.RowHits++
		}
	}
}

// tenantStatsFor returns the per-tenant accumulator for a request, or
// nil when tracking is off or the request is unattributed.
func (c *Controller) tenantStatsFor(r *Request) *TenantStats {
	if r.Tenant < 0 || r.Tenant >= len(c.tenants) {
		return nil
	}
	return &c.tenants[r.Tenant]
}

// TrackTenants allocates per-tenant accounting for tenants [0, n);
// multi-tenant systems call it once at construction. Zero disables
// tracking.
func (c *Controller) TrackTenants(n int) {
	if n <= 0 {
		c.tenants = nil
		return
	}
	c.tenants = make([]TenantStats, n)
}

// TenantStatsSlice exposes the per-tenant accumulators (nil when
// tracking is off).
func (c *Controller) TenantStatsSlice() []TenantStats { return c.tenants }

// pendingForRow counts queued requests that would hit loc's row (same)
// and queued requests to the same bank needing another row (other).
//
// Writes count only while the controller is draining them: queued
// writebacks wait thousands of cycles for the drain watermark, and
// treating them as "pending work for another row" the whole time would
// make the open-adaptive policy close every row immediately —
// destroying precisely the speculative open-row hits it exists to
// capture.
func (c *Controller) pendingForRow(loc dram.Location) (same, other int) {
	// The bank's candidate groups partition its queued requests by
	// row, so counting group sizes replaces the full-queue scan.
	countWrites := c.effectiveWriteMode() || considersWrites(c.policy)
	for _, gh := range c.bankGroups[loc.Rank*c.ch.Geo.Banks+loc.Bank] {
		g := &c.grp[gh]
		n := len(g.reads)
		if countWrites {
			n += len(g.writes)
		}
		if g.row == loc.Row {
			same += n
		} else {
			other += n
		}
	}
	return same, other
}

// tryPendingClose issues at most one page-policy precharge on an
// otherwise idle command cycle, re-validating the decision against the
// current queue state.
func (c *Controller) tryPendingClose(now uint64) (dram.Command, bool) {
	for rank := 0; rank < c.ch.Geo.Ranks; rank++ {
		for bank := 0; bank < c.ch.Geo.Banks; bank++ {
			idx := rank*c.ch.Geo.Banks + bank
			if !c.pendingClose[idx] {
				continue
			}
			b := c.ch.Bank(rank, bank)
			if b.State != dram.BankActive {
				c.pendingClose[idx] = false
				continue
			}
			loc := dram.Location{Channel: c.ch.ID, Rank: rank, Bank: bank, Row: b.OpenRow}
			same, other := c.pendingForRow(loc)
			ctx := pagepolicy.CloseContext{
				Loc:             loc,
				Accesses:        b.RowAccesses(),
				PendingSameRow:  same,
				PendingOtherRow: other,
			}
			if !c.page.ShouldClose(ctx) {
				c.pendingClose[idx] = false
				continue
			}
			cmd := dram.Command{Kind: dram.CmdPrecharge, Loc: loc}
			if !c.ch.CanIssue(now, cmd) {
				continue // keep pending; retry next idle cycle
			}
			accesses := b.RowAccesses()
			c.issueCmd(now, cmd)
			if c.trace != nil {
				c.trace.Command(now, cmd, -1)
			}
			c.pendingClose[idx] = false
			c.Stats.PolicyCloses++
			c.page.OnRowClosed(loc, accesses, false)
			return cmd, true
		}
	}
	return dram.Command{Kind: dram.CmdNop}, false
}

// removeRequest deletes r from whichever queue holds it and from its
// candidate group.
func (c *Controller) removeRequest(r *Request) {
	q := &c.readQ
	if r.Kind.IsWrite() {
		q = &c.writeQ
		delete(c.writeByAddr, r.Addr)
	}
	c.groupRemove(r)
	// Queues are ID-ascending (IDs assigned at enqueue, removals
	// preserve order), so r's position is a binary search away.
	s := *q
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].ID < r.ID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(s) || s[lo] != r {
		panic("memctrl: removing request not in queue")
	}
	n := len(s)
	copy(s[lo:], s[lo+1:])
	s[n-1] = nil
	*q = s[:n-1]
}

// ResetStats zeroes the measurement counters (e.g. after warmup)
// without disturbing queue or bank state. now re-anchors the
// time-weighted trackers.
func (c *Controller) ResetStats(now uint64) {
	c.Stats = Stats{}
	c.Stats.ReadQ.Set(now, float64(len(c.readQ)))
	c.Stats.WriteQ.Set(now, float64(len(c.writeQ)))
	c.ch.Stats = dram.Stats{}
	for i := range c.tenants {
		c.tenants[i] = TenantStats{}
	}
}
