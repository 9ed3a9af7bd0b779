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
	// pagePure records whether page's ShouldClose is a pure function
	// of its context (pagepolicy.IsPure); it widens the enqueue fast
	// path (see noteEnqueue).
	pagePure bool

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
	// controller owns the full lifecycle — requests leave every queue,
	// bucket and group at issue time, policies do not retain pointers
	// past OnComplete (the Policy contract), and OnDone callbacks
	// receive only the completion cycle.
	//mclint:owns -- freeReq IS the free list; entering it is the recycle point itself
	freeReq []*Request

	writeMode bool
	nextID    uint64

	// pendingClose marks banks whose open row the page policy has
	// decided to precharge once timing allows; indexed rank*banks+bank.
	// All writes go through setPendingClose so the per-bank horizon
	// cache and the pendingCloseN count stay coherent.
	pendingClose []bool
	// pendingCloseN counts set pendingClose flags. While it is
	// non-zero an enqueue falls back to a full wake-up tick, which
	// keeps the page policy's ShouldClose re-validation schedule (a
	// stateful call for the predictive policies) bit-identical to the
	// pre-bank-granular engine.
	pendingCloseN int

	// fastPath enables the event-horizon tick skip; off, Tick runs its
	// full body every cycle exactly like the original lockstep loop.
	fastPath bool
	// wakeAt is the event horizon: the earliest future cycle at which
	// this controller's state can change (a command becoming legal, a
	// pending page-policy close, or a timed policy event). While
	// now < wakeAt and no in-flight transfer completes, Tick is a
	// provable no-op and returns immediately. Zero means "unknown —
	// run the full tick". An enqueue into a parked controller usually
	// lowers it in O(1) (see noteEnqueue) instead of resetting it.
	wakeAt uint64
	// parkMode is the queue-selection mode (modeReads/modeWrites/
	// modeBoth) the horizon fold used when wakeAt was established by
	// idleHorizon. It is consulted only while wakeAt > now, which
	// implies it was recorded by the parking tick (the hot path's
	// wakeAt = now+1 is already <= now by the time anyone looks).
	parkMode uint8

	// bankQ buckets the queued requests per (rank, bank) so horizon
	// recomputation after a change touches only the affected bank's
	// requests instead of rescanning both queues; bankHzn caches each
	// bank's earliest-issue horizon, revalidated against the dram
	// constraint epochs. Both are indexed rank*banks+bank.
	bankQ   []bankQueue
	bankHzn []bankHorizon

	// Candidate-group index (see groups.go): one live entry per
	// (bankIdx, row), maintained incrementally by the enqueue and
	// remove paths, consumed by buildOptions. grp is the group arena
	// (handles are indices, grpFree recycles them); readOrder and
	// writeOrder keep the groups with queued reads/writes sorted by
	// oldest-member ID; bankMinRead/bankMinWrite are the per-bank
	// oldest-ID index (noID when the bank has none of that kind);
	// grpPending spools enqueued requests until the next option build
	// folds them in (the enqueue path stays O(1)).
	grp     []group
	grpFree []int32
	//mclint:owns -- groupFold drains and nils every pending slot before any read of the index; a request cannot recycle while still queued, and it is queued for as long as it is pending
	grpPending   []*Request
	readOrder    []int32
	writeOrder   []int32
	bankMinRead  []uint64
	bankMinWrite []uint64

	// scratch buffers reused across cycles to avoid allocation.
	optBuf []Option
	view   View

	// Straight-port reference rebuild state, used only by
	// buildOptionsRef (the per-tick O(queue) twin VerifyCandidateGroups
	// and the property suites compare the incremental index against).
	// The (rank, bank, row) grouping and per-bank oldest-ID index use
	// epoch-stamped open addressing (no per-call clearing, no runtime
	// map machinery).
	refBuf     []Option
	groups     groupTable
	gkOrder    []uint32 // slot indices into groups, insertion order
	bankOldest []uint64 // per bankIdx; valid iff bankEpoch matches
	bankEpoch  []uint32

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
// policy. consideredQueues, the horizon fold and the enqueue-time
// projection all derive the mode from the same rules so the event
// horizon is always "the first cycle an option appears" for the queue
// set the next full tick will actually consider.
const (
	modeReads uint8 = iota
	modeWrites
	modeBoth
)

// Horizon class bits: the command classes a bank's queued requests
// need under the current bank state. At most one EarliestIssue call
// per set bit replaces one call per queued request — requests to the
// same (rank, bank) needing the same command share one computation.
const (
	hznAct uint8 = 1 << iota
	hznRead
	hznWrite
	hznPre
)

// bankQueue holds the queued requests targeting one (rank, bank),
// maintained incrementally by the enqueue and remove paths. Bucket
// order is irrelevant (only class membership is derived from it), so
// removal swaps with the tail. seq bumps on every membership or
// pendingClose change and invalidates the bank's cached horizon.
type bankQueue struct {
	//mclint:owns -- removeRequest deletes the request from its bank bucket at issue/forward time, before its recycle
	reads []*Request
	//mclint:owns -- removeRequest deletes the request from its bank bucket at issue/coalesce time, before its recycle
	writes []*Request
	seq    uint32
	// groups holds the handles of this bank's live candidate groups
	// (one per distinct queued row; see groups.go). Order is
	// irrelevant — the global readOrder/writeOrder arrays carry the
	// option ordering — so removal swaps with the tail.
	groups []int32
}

// bankHorizon is one bank's cached earliest-issue horizon: the first
// cycle any command advancing the bank's queued requests (or its
// surviving pending close) can become legal, assuming no intervening
// command. The stamps record the state it was computed from; the
// entry is exact while they all still match (bank commands bump the
// bank epoch, rank ACTIVATEs the rank epoch, column accesses the
// channel data epoch, bucket changes the seq). The command-bus
// constraint needs no stamp: it never exceeds the parked controller's
// current cycle, so the fold's now+1 clamp absorbs it (see
// dram.Channel.DataEpoch).
type bankHorizon struct {
	at        uint64
	mask      uint8
	mode      uint8
	valid     bool
	seq       uint32
	bankEpoch uint32
	rankEpoch uint32
	dataEpoch uint32
}

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

// reset invalidates every slot in O(1) by advancing the epoch. It
// reports whether the epoch wrapped, so callers can clear their own
// epoch-stamped side tables in the same (once per 2^32 resets) stroke.
func (t *groupTable) reset() (wrapped bool) {
	t.epoch++
	if t.epoch == 0 {
		// Wrapped: stale slots could alias the new epoch; clear once
		// every 2^32 resets.
		for i := range t.slots {
			t.slots[i] = groupSlot{}
		}
		t.epoch = 1
		wrapped = true
	}
	return wrapped
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
	c := &Controller{
		cfg:          cfg,
		ch:           ch,
		policy:       policy,
		page:         page,
		pagePure:     pagepolicy.IsPure(page),
		pendingClose: make([]bool, banks),
		bankQ:        make([]bankQueue, banks),
		bankHzn:      make([]bankHorizon, banks),
		bankMinRead:  make([]uint64, banks),
		bankMinWrite: make([]uint64, banks),
		// Pre-size the enqueue spill list for the worst case (every
		// queued request pending at once) so the enqueue path never
		// grows it; the arena and order arrays grow amortized on the
		// busy path and are recycled thereafter.
		grpPending:  make([]*Request, 0, cfg.ReadQueueCap+cfg.WriteQueueCap),
		writeByAddr: make(map[uint64]*Request, cfg.WriteQueueCap),
	}
	for i := 0; i < banks; i++ {
		c.bankMinRead[i] = noID
		c.bankMinWrite[i] = noID
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
// served by forwarding without touching DRAM.
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
	bk := &c.bankQ[r.Loc.Rank*c.ch.Geo.Banks+r.Loc.Bank]
	bk.reads = append(bk.reads, r)
	bk.seq++
	c.groupNote(r)
	c.noteEnqueue(r, now)
	c.policy.OnEnqueue(r, now)
	return true
}

// EnqueueWrite queues a writeback. It returns false when the write
// queue is full. A write to an address already queued is merged.
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
	bk := &c.bankQ[r.Loc.Rank*c.ch.Geo.Banks+r.Loc.Bank]
	bk.writes = append(bk.writes, r)
	bk.seq++
	c.groupNote(r)
	c.noteEnqueue(r, now)
	c.policy.OnEnqueue(r, now)
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

// noteEnqueue re-establishes the event horizon after r entered a
// queue. Resetting wakeAt to "unknown" would force a full
// tick — an O(queued requests + ranks×banks) rescan — even when the
// new request cannot issue for hundreds of cycles (write-drain
// shadows, tFAW stalls). A parked controller instead re-arms in O(1):
// existing requests cannot act before the established horizon, the
// bank state is frozen while parked, so the only new wake-up
// candidate is the enqueued request's own next command.
//
// The fast path requires three things, otherwise it falls back to the
// full wake-up exactly as before:
//   - an established horizon (wakeAt > now; a hot controller ticks
//     this cycle regardless, so nothing is saved or risked);
//   - no pending page-policy close whose decision this enqueue could
//     affect: the full tick after an enqueue re-validates closes via
//     ShouldClose with the new queue contents. For a pure policy
//     (pagepolicy.IsPure) only the enqueued bank's context changes, so
//     only a close pending on that bank forces the fallback; for the
//     stateful predictive policies every ShouldClose call mutates
//     predictor state, so any pending close anywhere does;
//   - an unchanged queue-selection mode: a drain-watermark crossing or
//     an empty-read-queue transition changes which queues the next
//     tick considers, invalidating every bank's horizon at once.
func (c *Controller) noteEnqueue(r *Request, now uint64) {
	if !c.fastPath || c.wakeAt == 0 || c.wakeAt <= now {
		c.wakeAt = 0
		return
	}
	if c.pendingCloseN > 0 {
		if !c.pagePure || c.pendingClose[r.Loc.Rank*c.ch.Geo.Banks+r.Loc.Bank] {
			c.wakeAt = 0
			return
		}
	}
	if c.projectedMode() != c.parkMode {
		c.wakeAt = 0
		return
	}
	if c.requestConsidered(r) {
		if at := c.earliestFor(r); at < c.wakeAt {
			// at <= now simply makes NextEvent report "due now"; the
			// full tick then runs this cycle like a reset.
			c.wakeAt = at
		}
	}
	// The skipped wake-up tick would have sampled the queues; sample
	// here so the time-weighted trackers see the length change at the
	// cycle it happened. A tick this cycle re-sets the same values
	// (zero-width, no double counting).
	c.Stats.ReadQ.Set(now, float64(len(c.readQ)))
	c.Stats.WriteQ.Set(now, float64(len(c.writeQ)))
}

// projectedMode returns the queue-selection mode the next full tick
// will use: the drain-mode hysteresis applied to the current queue
// lengths, without mutating writeMode (the flag itself advances only
// inside Tick, which sees the same lengths — queue contents cannot
// change between this projection and that tick without another
// projection running).
func (c *Controller) projectedMode() uint8 {
	return c.modeFor(c.advanceDrainFlag(c.writeMode), considersWrites(c.policy))
}

// advanceDrainFlag applies the write-drain watermark hysteresis to wm
// under the current queue lengths, without writing it back. Tick's
// step 3 commits the result; projectedMode only peeks at it — both
// must apply the same rule, so it lives here once.
func (c *Controller) advanceDrainFlag(wm bool) bool {
	if !wm && len(c.writeQ) >= c.cfg.WriteHi {
		return true
	}
	if wm && len(c.writeQ) <= c.cfg.WriteLo {
		return false
	}
	return wm
}

// requestConsidered reports whether r's queue is in the set the next
// tick offers to the policy under the parked mode. A write enqueued
// while reads are being served (or vice versa) adds no wake-up
// candidate: it stays invisible to the option builder until the mode
// changes, and every mode change forces a full wake-up.
func (c *Controller) requestConsidered(r *Request) bool {
	switch c.parkMode {
	case modeBoth:
		return true
	case modeWrites:
		return r.Kind.IsWrite()
	default:
		return !r.Kind.IsWrite()
	}
}

// setPendingClose writes one pendingClose flag, keeping the count and
// the bank's horizon cache coherent.
func (c *Controller) setPendingClose(idx int, v bool) {
	if c.pendingClose[idx] == v {
		return
	}
	c.pendingClose[idx] = v
	if v {
		c.pendingCloseN++
	} else {
		c.pendingCloseN--
	}
	c.bankQ[idx].seq++
}

// Tick advances the controller by one cycle: completes finished
// transfers, updates drain mode, asks the policy for a command, and
// issues it (or a page-policy precharge when the bus is free).
//
// When the previous full tick established an event horizon (wakeAt)
// and no transfer completes this cycle, the tick returns immediately:
// the queue contents, bank states, drain mode and policy state are all
// provably unchanged, and the skipped queue-occupancy samples are
// recovered exactly by the time-weighted trackers.
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
	// the free list — every reference to it (queues, buckets, groups,
	// options) was dropped at issue time, and OnComplete is the last
	// contact the policy contract allows.
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
		c.writeMode = c.advanceDrainFlag(c.writeMode)
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
// The computation is a fold over per-bank horizons cached in bankHzn:
// a bank whose bucket, bank state, rank activation window and (for
// column classes) data-bus state are unchanged since the last fold
// reuses its cached value, so re-parking after a localized change
// costs O(changed banks) instead of O(queued requests).
func (c *Controller) idleHorizon(now uint64) uint64 {
	mode := c.queueMode(considersWrites(c.policy))
	c.parkMode = mode

	h := dram.Never
	for b := range c.bankQ {
		bq := &c.bankQ[b]
		if len(bq.reads) == 0 && len(bq.writes) == 0 && !c.pendingClose[b] {
			continue
		}
		if at := c.bankHorizon(b, mode); at < h {
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

// bankHorizon returns the earliest cycle any command advancing bank
// b's queued requests (under the given queue mode) or its surviving
// pending close can become legal, from the cache when the stamps
// still match and recomputed otherwise.
func (c *Controller) bankHorizon(b int, mode uint8) uint64 {
	rank := b / c.ch.Geo.Banks
	bankNo := b % c.ch.Geo.Banks
	bq := &c.bankQ[b]
	bank := c.ch.Bank(rank, bankNo)
	hz := &c.bankHzn[b]
	if hz.valid && hz.mode == mode && hz.seq == bq.seq &&
		hz.bankEpoch == bank.Epoch() &&
		(hz.mask&hznAct == 0 || hz.rankEpoch == c.ch.Ranks[rank].ActEpoch()) &&
		(hz.mask&(hznRead|hznWrite) == 0 || hz.dataEpoch == c.ch.DataEpoch()) {
		return hz.at
	}

	// Recompute: classify the bucket into command classes relative to
	// the current bank state (the per-(rank, bank, kind) dedupe — one
	// EarliestIssue per class, not one per request), then take the
	// earliest legal cycle over the classes present.
	useReads := mode != modeWrites
	useWrites := mode != modeReads
	var mask uint8
	if bank.State == dram.BankIdle {
		if (useReads && len(bq.reads) > 0) || (useWrites && len(bq.writes) > 0) {
			mask |= hznAct
		}
	} else {
		if useReads {
			for _, r := range bq.reads {
				if r.Loc.Row == bank.OpenRow {
					mask |= hznRead
				} else {
					mask |= hznPre
				}
			}
		}
		if useWrites {
			for _, r := range bq.writes {
				if r.Loc.Row == bank.OpenRow {
					mask |= hznWrite
				} else {
					mask |= hznPre
				}
			}
		}
		if c.pendingClose[b] {
			mask |= hznPre
		}
	}

	loc := dram.Location{Channel: c.ch.ID, Rank: rank, Bank: bankNo, Row: bank.OpenRow}
	at := dram.Never
	if mask&hznAct != 0 {
		if e := c.ch.EarliestIssue(dram.Command{Kind: dram.CmdActivate, Loc: loc}); e < at {
			at = e
		}
	}
	if mask&hznRead != 0 {
		if e := c.ch.EarliestIssue(dram.Command{Kind: dram.CmdRead, Loc: loc}); e < at {
			at = e
		}
	}
	if mask&hznWrite != 0 {
		if e := c.ch.EarliestIssue(dram.Command{Kind: dram.CmdWrite, Loc: loc}); e < at {
			at = e
		}
	}
	if mask&hznPre != 0 {
		if e := c.ch.EarliestIssue(dram.Command{Kind: dram.CmdPrecharge, Loc: loc}); e < at {
			at = e
		}
	}

	*hz = bankHorizon{
		at:        at,
		mask:      mask,
		mode:      mode,
		valid:     true,
		seq:       bq.seq,
		bankEpoch: bank.Epoch(),
		rankEpoch: c.ch.Ranks[rank].ActEpoch(),
		dataEpoch: c.ch.DataEpoch(),
	}
	return at
}

// commandFor returns the next command advancing r — the same command
// buildOptions would generate for r's group given the current bank
// state.
func (c *Controller) commandFor(r *Request) dram.Command {
	bank := c.ch.Bank(r.Loc.Rank, r.Loc.Bank)
	var kind dram.CommandKind
	switch {
	case bank.State == dram.BankIdle:
		kind = dram.CmdActivate
	case bank.OpenRow == r.Loc.Row:
		kind = dram.CmdRead
		if r.Kind.IsWrite() {
			kind = dram.CmdWrite
		}
	default:
		kind = dram.CmdPrecharge
	}
	return dram.Command{Kind: kind, Loc: r.Loc}
}

// earliestFor returns the earliest cycle the next command advancing r
// becomes legal.
func (c *Controller) earliestFor(r *Request) uint64 {
	return c.ch.EarliestIssue(c.commandFor(r))
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
// Defined on modeFor so the rule cannot drift from the horizon's
// queue selection.
func (c *Controller) effectiveWriteMode() bool {
	return c.modeFor(c.writeMode, false) == modeWrites
}

// modeFor derives the queue-selection mode from a drain flag and the
// current queue lengths. It is the single source of the selection
// rules: buildOptions/idleHorizon (via queueMode, with the current
// writeMode flag) and the enqueue-time projection (via projectedMode,
// with the hysteresis-advanced flag) must agree by construction — the
// event horizon is "the first cycle an option appears", so deriving
// it from a different queue set than the option builder would make
// the controller wake from the wrong queues.
func (c *Controller) modeFor(wm, mixed bool) uint8 {
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
	if wm || (len(c.readQ) == 0 && len(c.writeQ) > 0) {
		return modeWrites
	}
	return modeReads
}

// queueMode is the mode this tick's option builder uses.
func (c *Controller) queueMode(mixed bool) uint8 {
	return c.modeFor(c.writeMode, mixed)
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
// is O(live groups) per tick with a cheap epoch-stamped cache hit per
// group; dram legality is recomputed only for groups whose
// representative changed or whose bank's constraint epochs moved.
func (c *Controller) buildOptions(now uint64, mixed bool) {
	c.groupFold()
	c.optBuf = c.optBuf[:0]
	grp := c.grp
	dataE := c.ch.DataEpoch()
	var pendingHits int
	switch c.queueMode(mixed) {
	case modeWrites:
		for _, h := range c.writeOrder {
			g := &grp[h]
			pendingHits += c.groupOption(now, g, g.writes[0], c.bankMinWrite[g.bank], dataE)
		}
	case modeBoth:
		// Reference order: groups with queued reads first (ascending
		// oldest-read ID — their first appearance scanning the read
		// queue), then write-only groups (ascending oldest-write ID).
		for _, h := range c.readOrder {
			g := &grp[h]
			rep := g.reads[0]
			if len(g.writes) > 0 && g.writes[0].ID < rep.ID {
				rep = g.writes[0]
			}
			oldest := c.bankMinRead[g.bank]
			if c.bankMinWrite[g.bank] < oldest {
				oldest = c.bankMinWrite[g.bank]
			}
			pendingHits += c.groupOption(now, g, rep, oldest, dataE)
		}
		for _, h := range c.writeOrder {
			g := &grp[h]
			if len(g.reads) > 0 {
				continue // already emitted via readOrder
			}
			oldest := c.bankMinRead[g.bank]
			if c.bankMinWrite[g.bank] < oldest {
				oldest = c.bankMinWrite[g.bank]
			}
			pendingHits += c.groupOption(now, g, g.writes[0], oldest, dataE)
		}
	default:
		// Read-only mode is the bulk of busy-path ticks; the cache-hit
		// test of groupOption is open-coded here because the per-group
		// call otherwise dominates the deep-queue profile (the function
		// is too large to inline).
		bankMin := c.bankMinRead
		for _, h := range c.readOrder {
			g := &grp[h]
			rep := g.reads[0]
			if g.cacheOK && g.repID == rep.ID && g.bankEpoch == g.bankRef.Epoch() &&
				(g.optKind != dram.CmdActivate || g.rankEpoch == g.rankRef.ActEpoch()) &&
				(g.optKind < dram.CmdRead || g.dataEpoch == dataE) {
				if g.optKind >= dram.CmdRead {
					pendingHits++
				}
				if now >= g.optAt {
					c.optBuf = append(c.optBuf, Option{
						Cmd: dram.Command{Kind: g.optKind, Loc: rep.Loc}, Req: rep,
						RowHit: g.optKind >= dram.CmdRead, BankOldestID: bankMin[g.bank],
					})
				}
				continue
			}
			pendingHits += c.groupOptionMiss(now, g, rep, bankMin[g.bank])
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
		c.bankOldest = make([]uint64, len(c.bankQ))
		c.bankEpoch = make([]uint32, len(c.bankQ))
	}
	c.refBuf = c.refBuf[:0]
	if c.groups.reset() {
		// bankEpoch is stamped with groups.epoch; a wrap makes ancient
		// stamps alias the fresh epoch, so clear them together.
		for i := range c.bankEpoch {
			c.bankEpoch[i] = 0
		}
	}
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
			if c.bankEpoch[bk] != epoch || r.ID < c.bankOldest[bk] {
				c.bankEpoch[bk] = epoch
				c.bankOldest[bk] = r.ID
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
		oldest := c.bankOldest[loc.Rank*c.ch.Geo.Banks+loc.Bank]
		bank := c.ch.Bank(loc.Rank, loc.Bank)
		switch {
		case bank.State == dram.BankIdle:
			cmd := dram.Command{Kind: dram.CmdActivate, Loc: loc}
			if c.ch.CanIssue(now, cmd) {
				c.refBuf = append(c.refBuf, Option{Cmd: cmd, Req: r, BankOldestID: oldest})
			}
		case bank.OpenRow == loc.Row:
			pendingHits++
			kind := dram.CmdRead
			if r.Kind.IsWrite() {
				kind = dram.CmdWrite
			}
			cmd := dram.Command{Kind: kind, Loc: loc}
			if c.ch.CanIssue(now, cmd) {
				c.refBuf = append(c.refBuf, Option{Cmd: cmd, Req: r, RowHit: true, BankOldestID: oldest})
			}
		default:
			cmd := dram.Command{Kind: dram.CmdPrecharge, Loc: loc}
			if c.ch.CanIssue(now, cmd) {
				c.refBuf = append(c.refBuf, Option{Cmd: cmd, Req: r, BankOldestID: oldest})
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
		c.ch.Issue(now, opt.Cmd)
		if c.trace != nil {
			c.trace.Command(now, opt.Cmd, opt.Req.Tenant)
		}
		opt.Req.triggeredActivate = true
		c.setPendingClose(bankIdx, false)
		c.page.OnActivate(loc)
	case dram.CmdPrecharge:
		bank := c.ch.Bank(loc.Rank, loc.Bank)
		closed := dram.Location{Channel: loc.Channel, Rank: loc.Rank, Bank: loc.Bank, Row: bank.OpenRow}
		accesses := bank.RowAccesses()
		c.ch.Issue(now, opt.Cmd)
		if c.trace != nil {
			// Trace the row being closed, not the requester's target row.
			c.trace.Command(now, dram.Command{Kind: dram.CmdPrecharge, Loc: closed}, opt.Req.Tenant)
		}
		opt.Req.triggeredConflict = true
		c.setPendingClose(bankIdx, false)
		c.Stats.ConflictCloses++
		c.page.OnRowClosed(closed, accesses, true)
	case dram.CmdRead, dram.CmdWrite:
		finish := c.ch.Issue(now, opt.Cmd)
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
		c.setPendingClose(bankIdx, c.page.ShouldClose(ctx))
	default:
		panic(fmt.Sprintf("memctrl: cannot issue %v", opt.Cmd))
	}
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
	bq := &c.bankQ[loc.Rank*c.ch.Geo.Banks+loc.Bank]
	for _, gh := range bq.groups {
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
				c.setPendingClose(idx, false)
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
				c.setPendingClose(idx, false)
				continue
			}
			cmd := dram.Command{Kind: dram.CmdPrecharge, Loc: loc}
			if !c.ch.CanIssue(now, cmd) {
				continue // keep pending; retry next idle cycle
			}
			accesses := b.RowAccesses()
			c.ch.Issue(now, cmd)
			if c.trace != nil {
				c.trace.Command(now, cmd, -1)
			}
			c.setPendingClose(idx, false)
			c.Stats.PolicyCloses++
			c.page.OnRowClosed(loc, accesses, false)
			return cmd, true
		}
	}
	return dram.Command{Kind: dram.CmdNop}, false
}

// removeRequest deletes r from whichever queue holds it, from its
// bank bucket, and from its candidate group.
func (c *Controller) removeRequest(r *Request) {
	bk := &c.bankQ[r.Loc.Rank*c.ch.Geo.Banks+r.Loc.Bank]
	q, bq := &c.readQ, &bk.reads
	if r.Kind.IsWrite() {
		q, bq = &c.writeQ, &bk.writes
		delete(c.writeByAddr, r.Addr)
	}
	bk.seq++
	inBucket := false
	for i, x := range *bq {
		if x == r {
			last := len(*bq) - 1
			(*bq)[i] = (*bq)[last]
			(*bq)[last] = nil
			*bq = (*bq)[:last]
			inBucket = true
			break
		}
	}
	if !inBucket {
		panic("memctrl: removing request not in its bank bucket")
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
