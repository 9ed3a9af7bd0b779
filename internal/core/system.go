package core

import (
	"fmt"

	"cloudmc/internal/addrmap"
	"cloudmc/internal/cache"
	"cloudmc/internal/cpu"
	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
	"cloudmc/internal/obs"
	"cloudmc/internal/pagepolicy"
	"cloudmc/internal/sched"
	"cloudmc/internal/tenant"
	"cloudmc/internal/workload"
)

// mshrEntry tracks one outstanding LLC miss and its merged waiters.
// Entries are recycled through System.freeMSHR; onDone exists so one
// closure per entry serves every life (an entry is only recycled after
// its fill delivered, when no controller holds the closure any more).
type mshrEntry struct {
	addr   uint64
	tenant int   // owning tenant (fills respect LLC way partitions)
	loads  []int // cores blocked on a load of this block
	stores []int // cores with a buffered store to this block
	onDone func(uint64)
}

// pendingWrite is a writeback waiting for write-queue space.
type pendingWrite struct {
	addr   uint64
	core   int
	tenant int
}

// pendingIO is a DMA request waiting for queue space.
type pendingIO struct {
	addr   uint64
	write  bool
	tenant int
}

// delayedFill is a completed DRAM read traversing the on-chip return
// path (crossbar + miss handling), applied at cycle `at`.
type delayedFill struct {
	at uint64
	//mclint:owns -- a fill holds its entry only while queued on the return path; deliverFills completes it in fill() (the sole recycle point) and then zeroes the popped slots
	e *mshrEntry
}

// primeRNG is a tiny xorshift generator for cache priming, independent
// of the workload generators so priming does not perturb their
// streams.
type primeRNG struct{ s uint64 }

func (r *primeRNG) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

func (r *primeRNG) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func newPrimeRNG(seed uint64) primeRNG {
	if seed == 0 {
		seed = 1
	}
	return primeRNG{s: seed ^ 0x6c62272e07bb0142}
}

// tenantRT is the runtime state of one tenant: its resized profile,
// its slice of the physical address space, and its core range. The
// tenant's DMA agent (if any) lives in System.ios/ioTenant.
type tenantRT struct {
	spec      tenant.Spec
	profile   workload.Profile
	layout    workload.Layout
	firstCore int
	base      uint64 // inclusive start of the tenant's address range
	limit     uint64 // exclusive end (layout.Limit)
}

// tenantSalt decorrelates per-tenant random streams. Salt zero keeps
// tenant 0 (and therefore every solo run) bit-identical to the
// pre-tenancy simulator.
func tenantSalt(i int) uint64 { return uint64(i) * 0x9e3779b97f4a7c15 }

// tenantAlign rounds tenant base addresses up to 1MB so no DRAM row
// is shared between tenants under any mapping scheme.
const tenantAlign = 1 << 20

// System is one assembled simulation: cores, caches, controllers, and
// the DRAM device models, advanced in lockstep by Run.
type System struct {
	cfg     Config
	tenants []tenantRT
	cores   []*cpu.Core
	gens    []*workload.Generator
	l1      []*cache.Cache
	l2      *cache.Cache
	mapper  *addrmap.Mapper
	// pmapper replaces mapper for address decode when bank
	// partitioning is on (Config.Isolation.BankPartition); nil
	// otherwise, keeping the shared decode path untouched.
	pmapper *addrmap.PartitionedMapper
	ctrls   []*memctrl.Controller
	// ios lists the tenants' DMA agents in tenant order (tenants
	// without IO traffic are skipped); ioTenant holds the owning
	// tenant index of each agent.
	ios      []*workload.IOAgent
	ioTenant []int
	// coreTenant maps a global core index to its tenant index.
	coreTenant []int
	warmed     bool

	// kernelState is the event-kernel bookkeeping (see kernel.go);
	// initialised only in the default execution mode (FastForward set).
	kernelState

	mshr      mshrTable
	wbq       []pendingWrite
	ioq       []pendingIO
	fillq     []delayedFill
	blockMask uint64

	// freeMSHR recycles miss entries: a filled entry goes back on the
	// list and the next primary miss reuses it — struct, waiter
	// slices, and its OnDone closure (created once per entry), so the
	// steady-state miss path allocates nothing.
	//mclint:owns -- freeMSHR IS the free list; pushing here is the recycle point itself
	freeMSHR []*mshrEntry

	// measurement
	demandMisses uint64
	tenantMisses []uint64
	cycle        uint64

	// rec, when non-nil, is the attached interval recorder
	// (AttachRecorder). Advance chunks at its interval boundaries so
	// samples land on identical cycles in every loop mode; everything
	// else about the run is untouched — obs-on is bit-identical to
	// obs-off (TestObsDifferential). Nil costs one branch per Advance.
	rec *obs.Recorder
}

// NewSystem builds a System from a validated Config.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geo := cfg.channelGeometry()
	tim := cfg.coreTiming()
	mapper, err := addrmap.New(cfg.Mapping, geo)
	if err != nil {
		return nil, err
	}
	specs := cfg.tenantSpecs()
	totalCores := 0
	for _, sp := range specs {
		totalCores += sp.CoreCount()
	}
	opts := cfg.SchedOpts
	opts.Cores = totalCores
	opts.Seed = cfg.Seed
	if cfg.multiTenant() {
		opts.Tenants = len(specs)
	}
	factory := sched.NewFactoryOpts(cfg.Scheduler, opts)

	s := &System{
		cfg:          cfg,
		mapper:       mapper,
		mshr:         newMSHRTable(cfg.MSHRCap),
		l2:           cache.New(cfg.L2),
		blockMask:    ^(uint64(cfg.L1.BlockBytes) - 1),
		tenantMisses: make([]uint64, len(specs)),
	}

	for chID := 0; chID < geo.Channels; chID++ {
		chann := dram.NewChannel(chID, geo, tim)
		page := pagePolicyFor(cfg)
		ctl, err := memctrl.New(cfg.MC, chann, factory(chID), page)
		if err != nil {
			return nil, err
		}
		ctl.SetFastForward(cfg.FastForward)
		if cfg.multiTenant() {
			ctl.TrackTenants(len(specs))
		}
		s.ctrls = append(s.ctrls, ctl)
	}

	// First pass: place every tenant in the physical address space.
	// The partitioned mapper needs the bases before any generator is
	// built.
	var base uint64
	firstCore := 0
	for _, sp := range specs {
		p := sp.Adjusted()
		layout := workload.NewLayout(p).Shift(base)
		if layout.Limit > geo.TotalBytes() {
			return nil, fmt.Errorf("core: workload footprint %d exceeds memory capacity %d", layout.Limit, geo.TotalBytes())
		}
		s.tenants = append(s.tenants, tenantRT{
			spec: sp, profile: p, layout: layout,
			firstCore: firstCore, base: base, limit: layout.Limit,
		})
		firstCore += p.Cores
		base = (layout.Limit + tenantAlign - 1) &^ (tenantAlign - 1)
	}
	if err := s.applyIsolation(); err != nil {
		return nil, err
	}

	// Second pass: build the tenants' cores, caches, generators and
	// DMA agents.
	for ti := range s.tenants {
		rt := &s.tenants[ti]
		p := rt.profile
		for local := 0; local < p.Cores; local++ {
			gen := workload.NewGenerator(p, rt.layout, local, cfg.Seed^tenantSalt(ti))
			s.gens = append(s.gens, gen)
			s.cores = append(s.cores, cpu.New(len(s.cores), cpu.Config{
				MLPLimit:       p.MLPLimit,
				StoreBufferCap: cfg.StoreBufferCap,
				BaseCPI:        p.BaseCPI,
			}, gen))
			s.l1 = append(s.l1, cache.New(cfg.L1))
			s.coreTenant = append(s.coreTenant, ti)
		}
		if io := workload.NewIOAgent(p.IO, rt.layout, geo.Channels, cfg.Seed^tenantSalt(ti)); io != nil {
			s.ios = append(s.ios, io)
			s.ioTenant = append(s.ioTenant, ti)
		}
	}
	if cfg.FastForward {
		s.initKernel()
	}
	return s, nil
}

// applyIsolation compiles Config.Isolation into the partitioned
// address mapper and the LLC way partition. Shares of both resources
// are carved proportionally to core counts (the unit clouds sell). No
// isolation means no state change at all: the shared decode and
// install paths stay bit-identical to the pre-isolation simulator.
func (s *System) applyIsolation() error {
	iso := s.cfg.Isolation
	if !iso.Enabled() {
		return nil
	}
	weights := make([]int, len(s.tenants))
	for i := range s.tenants {
		weights[i] = s.tenants[i].profile.Cores
	}
	if iso.BankPartition {
		geo := s.cfg.channelGeometry()
		shares, err := tenant.CarvePow2(geo.BanksPerChannel(), weights)
		if err != nil {
			return fmt.Errorf("core: bank partition: %w", err)
		}
		tb := make([]addrmap.TenantBanks, len(s.tenants))
		for i := range s.tenants {
			tb[i] = addrmap.TenantBanks{
				Base:  s.tenants[i].base,
				Start: shares[i].Start,
				Count: shares[i].Count,
			}
		}
		pm, err := addrmap.NewPartitioned(s.cfg.Mapping, geo, tb)
		if err != nil {
			return err
		}
		for i := range s.tenants {
			rt := &s.tenants[i]
			if size := rt.limit - rt.base; size > pm.TenantCapacity(i) {
				return fmt.Errorf("core: tenant %d footprint %d exceeds its bank partition capacity %d (%d of %d banks)",
					i, size, pm.TenantCapacity(i), shares[i].Count, geo.BanksPerChannel())
			}
		}
		s.pmapper = pm
	}
	if iso.WayPartition {
		shares, err := tenant.CarveProportional(s.cfg.L2.Ways, weights)
		if err != nil {
			return fmt.Errorf("core: way partition: %w", err)
		}
		ws := make([]cache.WayShare, len(shares))
		for i, sh := range shares {
			ws[i] = cache.WayShare{First: sh.Start, Count: sh.Count}
		}
		if err := s.l2.PartitionWays(ws); err != nil {
			return err
		}
	}
	return nil
}

// decode maps a block address to DRAM coordinates, tenant-aware when
// bank partitioning is on.
func (s *System) decode(ten int, addr uint64) dram.Location {
	if s.pmapper != nil {
		return s.pmapper.DecodeFor(ten, addr)
	}
	return s.mapper.Decode(addr)
}

// pagePolicyFor returns the configured page policy; the RL scheduler
// owns precharge decisions, so it runs over the static open policy.
func pagePolicyFor(cfg Config) pagepolicy.Policy {
	if cfg.Scheduler == sched.RL {
		return pagepolicy.NewOpen()
	}
	p, _ := pagepolicy.ByName(cfg.PagePolicy)
	return p
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Controllers exposes the per-channel controllers (tests use this).
func (s *System) Controllers() []*memctrl.Controller { return s.ctrls }

// tenantOfAddr attributes a physical block address to the tenant whose
// layout contains it (-1 if none does; cannot happen for addresses the
// generators produce).
func (s *System) tenantOfAddr(addr uint64) int {
	for i := range s.tenants {
		if addr >= s.tenants[i].base && addr < s.tenants[i].limit {
			return i
		}
	}
	return -1
}

// Load implements cpu.Port.
func (s *System) Load(now uint64, core int, addr uint64) cpu.AccessResult {
	addr &= s.blockMask
	if s.l1[core].Access(addr, false) {
		return cpu.AccessResult{}
	}
	if s.l2.Access(addr, false) {
		s.installL1(now, core, addr, false)
		return cpu.AccessResult{ExtraStall: s.cfg.L2HitLatency}
	}
	return s.miss(now, core, addr, false)
}

// Store implements cpu.Port.
func (s *System) Store(now uint64, core int, addr uint64) cpu.AccessResult {
	addr &= s.blockMask
	if s.l1[core].Access(addr, true) {
		return cpu.AccessResult{}
	}
	if s.l2.Access(addr, false) {
		// Write-allocate into L1; the store buffer hides the L2 trip.
		s.installL1(now, core, addr, true)
		return cpu.AccessResult{}
	}
	return s.miss(now, core, addr, true)
}

// miss handles an LLC miss for a load or store.
//
//mclint:hotpath
func (s *System) miss(now uint64, core int, addr uint64, store bool) cpu.AccessResult {
	if e := s.mshr.get(addr); e != nil {
		// Secondary miss: merge into the outstanding fill.
		if store {
			e.stores = append(e.stores, core)
		} else {
			e.loads = append(e.loads, core)
		}
		return cpu.AccessResult{Pending: true}
	}
	if s.mshr.len() >= s.cfg.MSHRCap {
		return cpu.AccessResult{Rejected: true}
	}
	ten := s.coreTenant[core]
	loc := s.decode(ten, addr)
	kind := memctrl.ReadDemand
	if store {
		kind = memctrl.ReadStore
	}
	e := s.newMSHREntry(addr, ten)
	if store {
		e.stores = append(e.stores, core)
	} else {
		e.loads = append(e.loads, core)
	}
	// The fixed on-chip path latency is charged by queueing the fill
	// for MemPathLatency cycles after the data leaves the controller
	// (folded in by e.onDone).
	ok := s.ctrls[loc.Channel].EnqueueRead(now, memctrl.Source{Core: core, Tenant: ten}, addr, loc, kind, e.onDone)
	if !ok {
		s.freeMSHR = append(s.freeMSHR, e)
		return cpu.AccessResult{Rejected: true}
	}
	s.mshr.put(e)
	s.demandMisses++
	s.tenantMisses[ten]++
	return cpu.AccessResult{Pending: true}
}

// scheduleFill queues a completed read for delivery at cycle `at`
// (insertion sort, stable in arrival order for equal cycles; the queue
// is bounded by the MSHR capacity). Controllers fire it (through the
// OnDone closure) from inside Controller.Tick, in ascending channel
// order, so the queue order is the same in every loop mode; the
// kernel step reads the new head after the controller phase.
func (s *System) scheduleFill(at uint64, e *mshrEntry) {
	i := len(s.fillq)
	s.fillq = append(s.fillq, delayedFill{})
	for i > 0 && s.fillq[i-1].at > at {
		s.fillq[i] = s.fillq[i-1]
		i--
	}
	s.fillq[i] = delayedFill{at: at, e: e}
}

// deliverFills applies all fills due by `now`.
//
//mclint:hotpath
func (s *System) deliverFills(now uint64) {
	n := 0
	for n < len(s.fillq) && s.fillq[n].at <= now {
		s.fill(now, s.fillq[n].e)
		n++
	}
	s.fillq = dropFront(s.fillq, n)
}

// dropFront removes the first n elements of q in place, shifting the
// rest down and zeroing the vacated tail, so a FIFO popped this way
// keeps reusing one backing array (popping by reslicing would make
// later appends reallocate) and retains no stale pointers.
func dropFront[T any](q []T, n int) []T {
	if n == 0 {
		return q
	}
	k := copy(q, q[n:])
	clear(q[k:])
	return q[:k]
}

// fill completes an LLC miss: installs the block, routes the L2
// victim's writeback, and wakes the merged waiters.
func (s *System) fill(now uint64, e *mshrEntry) {
	s.mshr.remove(e.addr)
	victim := s.l2.InstallFor(e.tenant, e.addr, false)
	if victim.Valid && victim.Dirty {
		s.wbq = append(s.wbq, pendingWrite{addr: victim.Addr, core: -1, tenant: s.tenantOfAddr(victim.Addr)})
	}
	for _, c := range e.loads {
		s.wakeCore(c, now)
		s.installL1(now, c, e.addr, false)
		s.cores[c].LoadReturned(now)
	}
	for _, c := range e.stores {
		s.wakeCore(c, now)
		s.installL1(now, c, e.addr, true)
		s.cores[c].StoreDrained(now)
	}
	// The entry left the table and the fill queue, and its closure
	// fired before the fill was scheduled — nothing references it now.
	s.freeMSHR = append(s.freeMSHR, e)
}

// newMSHREntry takes a miss entry from the free list (or allocates
// one) for a primary miss on addr. The waiter slices keep their
// capacity across lives, and the OnDone closure is created once per
// entry, so reuse needs no new closure.
func (s *System) newMSHREntry(addr uint64, ten int) *mshrEntry {
	if n := len(s.freeMSHR); n > 0 {
		e := s.freeMSHR[n-1]
		s.freeMSHR[n-1] = nil
		s.freeMSHR = s.freeMSHR[:n-1]
		e.addr, e.tenant = addr, ten
		e.loads, e.stores = e.loads[:0], e.stores[:0]
		return e
	}
	e := &mshrEntry{addr: addr, tenant: ten} //mclint:alloc-ok -- free-list cold path: minted only until the MSHR working set exists; steady-state misses pop freeMSHR above
	//mclint:owns -- created once per entry and recycled with it; the closure fires only while the entry is resident in the table
	e.onDone = func(at uint64) { //mclint:alloc-ok -- the closure is created once per entry (cold path) and recycled with it
		s.scheduleFill(at+uint64(s.cfg.MemPathLatency), e)
	}
	return e
}

// installL1 puts a block in a core's L1, pushing any dirty victim down
// into the L2 (and the L2's own victim toward memory).
func (s *System) installL1(now uint64, core int, addr uint64, dirty bool) {
	victim := s.l1[core].Install(addr, dirty)
	if !victim.Valid || !victim.Dirty {
		return
	}
	if s.l2.Access(victim.Addr, true) {
		return // merged into the L2 copy
	}
	// Non-inclusive corner: the L2 no longer holds the line; allocate
	// it dirty (the victim carries the whole block).
	l2v := s.l2.InstallFor(s.coreTenant[core], victim.Addr, true)
	if l2v.Valid && l2v.Dirty {
		s.wbq = append(s.wbq, pendingWrite{addr: l2v.Addr, core: core, tenant: s.tenantOfAddr(l2v.Addr)})
	}
}

// drainWritebacks pushes pending writebacks into the controllers,
// preserving order, stopping at the first rejection.
func (s *System) drainWritebacks(now uint64) {
	n := 0
	for ; n < len(s.wbq); n++ {
		wb := s.wbq[n]
		loc := s.decode(wb.tenant, wb.addr)
		if !s.ctrls[loc.Channel].EnqueueWrite(now, memctrl.Source{Core: wb.core, Tenant: wb.tenant}, wb.addr, loc, nil) {
			break
		}
	}
	s.wbq = dropFront(s.wbq, n)
}

// tickIO injects each tenant's DMA traffic, retrying rejected requests
// in order.
func (s *System) tickIO(now uint64) {
	for i, a := range s.ios {
		if addr, ok, write := a.Next(now); ok {
			s.ioq = append(s.ioq, pendingIO{addr: addr, write: write, tenant: s.ioTenant[i]})
		}
	}
	n := 0
	for ; n < len(s.ioq); n++ {
		req := s.ioq[n]
		loc := s.decode(req.tenant, req.addr)
		ctl := s.ctrls[loc.Channel]
		src := memctrl.Source{Core: -1, Tenant: req.tenant}
		var ok bool
		if req.write {
			ok = ctl.EnqueueWrite(now, src, req.addr, loc, nil)
		} else {
			ok = ctl.EnqueueRead(now, src, req.addr, loc, memctrl.ReadPrefetch, nil)
		}
		if !ok {
			break
		}
	}
	s.ioq = dropFront(s.ioq, n)
}

// resetStats clears all measurement state at the warmup boundary.
func (s *System) resetStats(now uint64) {
	for _, c := range s.cores {
		c.ResetStats()
	}
	for _, ctl := range s.ctrls {
		ctl.ResetStats(now)
	}
	s.l2.Stats.Reset()
	for _, l1 := range s.l1 {
		l1.Stats.Reset()
	}
	s.demandMisses = 0
	for i := range s.tenantMisses {
		s.tenantMisses[i] = 0
	}
}

// primeCaches installs a steady-state content sample into the L2:
// every core's hot region (resident by construction) plus a random
// sample of cold-region blocks filling the remaining capacity, dirty
// with the profile's store fraction. Streaming the equivalent miss
// history would take tens of millions of instructions (the paper warms
// one billion); for a random miss stream the steady-state tag-array
// content is statistically just such a sample, so installing it
// directly is equivalent and ~1000x faster. The short functional
// warmup that follows settles L1s and LRU order.
//
// Multi-tenant systems split the installed sample in proportion to
// each tenant's core share — the same proportional cache occupancy an
// unmanaged shared LLC converges to under equal per-core pressure.
func (s *System) primeCaches() {
	totalCores := len(s.cores)
	for ti := range s.tenants {
		rt := &s.tenants[ti]
		p := rt.profile
		layout := rt.layout
		rng := newPrimeRNG(s.cfg.Seed ^ tenantSalt(ti))
		block := uint64(s.cfg.L2.BlockBytes)
		d := p.Derived()
		// Install-history mixture: a miss is a stream-burst block with
		// probability fs, else a cold block. Stream blocks arrive in
		// sequential dirty runs (store-dominated bursts), cold blocks
		// are scattered and dirty with the store fraction. Replaying
		// 1.2x the L2 capacity of such installs reproduces the
		// steady-state content, dirtiness and LRU grouping of a long
		// warmup.
		streamShare := 0.0
		if total := d.PCold + d.PBurstStart*d.BurstLen; total > 0 {
			streamShare = d.PBurstStart * d.BurstLen / total
		}
		burstDirty := p.BurstStoreFraction
		if burstDirty == 0 {
			burstDirty = p.StoreFraction
		}
		installs := s.cfg.L2.SizeBytes / s.cfg.L2.BlockBytes * 6 / 5 * p.Cores / totalCores
		for i := 0; i < installs; {
			if rng.float() < streamShare {
				run := int(d.BurstLen)
				if run < 1 {
					run = 1
				}
				start := layout.StreamBase + (rng.next()%layout.StreamSize)&^(block-1)
				for j := 0; j < run && i < installs; j++ {
					s.l2.InstallFor(ti, start+uint64(j)*block, rng.float() < burstDirty)
					i++
				}
			} else {
				addr := layout.ColdBase + (rng.next()%layout.ColdSize)&^(block-1)
				s.l2.InstallFor(ti, addr, rng.float() < p.StoreFraction)
				i++
			}
		}
	}
	// Hot regions last: resident and most recently used.
	for ti := range s.tenants {
		rt := &s.tenants[ti]
		block := uint64(s.cfg.L2.BlockBytes)
		for core := 0; core < rt.profile.Cores; core++ {
			base := rt.layout.HotBase + uint64(core)*rt.layout.HotStride
			for off := uint64(0); off < rt.layout.HotStride; off += block {
				s.l2.InstallFor(ti, base+off, false)
			}
		}
	}
}

// autoWarmupInstr sizes the functional warmup that follows cache
// priming: enough to populate the L1s and realistic LRU/dirty state.
func (s *System) autoWarmupInstr() uint64 {
	return 60_000
}

// FunctionalWarmup primes the caches and then streams instrPerCore
// instructions from every core through the cache hierarchy with no
// timing — the SimFlex-style functional warming of §3.2. DRAM and
// controllers are untouched; dirty victims are dropped (their
// writebacks belong to the un-timed past). Zero selects the automatic
// sizing.
func (s *System) FunctionalWarmup(instrPerCore uint64) {
	s.primeCaches()
	if instrPerCore == 0 {
		instrPerCore = s.autoWarmupInstr()
	}
	for coreID, gen := range s.gens {
		l1 := s.l1[coreID]
		ten := s.coreTenant[coreID]
		for n := uint64(0); n < instrPerCore; n++ {
			op := gen.Next()
			if op.Kind == workload.OpNonMem {
				continue
			}
			addr := op.Addr & s.blockMask
			write := op.Kind == workload.OpStore
			if l1.Access(addr, write) {
				continue
			}
			if !s.l2.Access(addr, false) {
				s.l2.InstallFor(ten, addr, false) // victim writeback dropped
			}
			v := l1.Install(addr, write)
			if v.Valid && v.Dirty && !s.l2.Access(v.Addr, true) {
				s.l2.InstallFor(ten, v.Addr, true)
			}
		}
	}
	s.warmed = true
}

// Step advances the whole system by one cycle. Most callers use Run;
// Step exists for fine-grained tests and incremental benchmarks. In
// kernel mode the parked cores' stall counters are settled before
// returning, so single-stepped statistics read exactly as the
// per-cycle loop's would.
func (s *System) Step() {
	if s.kernelOn() {
		s.stepKernel()
		s.settleCores()
		return
	}
	s.stepNaive()
}

// stepNaive is the reference per-cycle loop: every component is ticked
// every cycle. It drives the FastForward=false mode and is the baseline
// the event kernel must match bit-for-bit.
func (s *System) stepNaive() {
	now := s.cycle
	s.deliverFills(now)
	s.tickIO(now)
	s.drainWritebacks(now)
	for _, c := range s.cores {
		c.Tick(now, s)
	}
	for _, ctl := range s.ctrls {
		ctl.Tick(now)
	}
	s.cycle++
}

// Advance simulates n cycles from the current clock, using the event
// kernel by default and the per-cycle Step loop when FastForward is
// off. Both paths produce bit-identical state and statistics
// (kernel_test.go runs them side by side).
func (s *System) Advance(n uint64) {
	end := s.cycle + n
	if s.rec == nil {
		s.advanceTo(end)
		return
	}
	// Interval recorder attached: chunk the advance at recorder
	// boundaries so samples land on identical cycles in every loop
	// mode. Chunked advances compose bit-identically (the PR 4
	// equivalence suite pins Advance(a); Advance(b) == Advance(a+b)),
	// so the only observable difference is the snapshots themselves.
	for s.cycle < end {
		stop := end
		if nb := s.rec.NextBoundary(); nb < stop {
			stop = nb
		}
		s.advanceTo(stop)
		if s.cycle == s.rec.NextBoundary() {
			s.rec.Record(s.obsSnapshot())
		}
	}
}

// advanceTo runs the configured loop mode up to the absolute cycle
// end. In kernel mode advanceKernel settles parked cores' stall
// counters before returning, so counters read at a chunk boundary are
// exactly the per-cycle loop's values.
func (s *System) advanceTo(end uint64) {
	if s.kernelOn() {
		s.advanceKernel(end)
		return
	}
	for s.cycle < end {
		s.stepNaive()
	}
}

// Run performs functional warming (unless already done), timed warmup,
// then measurement, and returns the metrics of the measurement window.
func (s *System) Run() Metrics {
	if !s.warmed {
		s.FunctionalWarmup(s.cfg.WarmupInstrPerCore)
	}
	total := s.cfg.WarmupCycles + s.cfg.MeasureCycles
	if s.cycle < s.cfg.WarmupCycles {
		s.Advance(s.cfg.WarmupCycles - s.cycle)
	}
	if s.cycle == s.cfg.WarmupCycles {
		s.resetStats(s.cycle)
		if s.rec != nil {
			// Re-anchor the interval series exactly like the aggregate
			// stats reset: the measure phase starts from zero here.
			s.rec.Reset(s.obsSnapshot())
		}
	}
	if s.cycle < total {
		s.Advance(total - s.cycle)
	}
	if s.rec != nil && s.cycle > s.rec.LastCycle() {
		// Close the final partial interval when the run length is not
		// a multiple of the recorder period.
		s.rec.Record(s.obsSnapshot())
	}
	return s.collect(total)
}

// collect assembles Metrics at endCycle.
func (s *System) collect(endCycle uint64) Metrics {
	m := Metrics{Cycles: s.cfg.MeasureCycles}
	for _, c := range s.cores {
		m.Retired += c.Stats.Retired
		m.PerCoreIPC = append(m.PerCoreIPC, float64(c.Stats.Retired)/float64(s.cfg.MeasureCycles))
	}
	m.UserIPC = float64(m.Retired) / float64(s.cfg.MeasureCycles)
	m.DemandMisses = s.demandMisses
	if m.Retired > 0 {
		m.MPKI = float64(s.demandMisses) / (float64(m.Retired) / 1000)
	}

	var latSum, latCount float64
	var rq, wq, bw float64
	var act1, actTotal uint64
	for _, ctl := range s.ctrls {
		st := &ctl.Stats
		m.ReadsServed += st.ReadsServed
		m.WritesServed += st.WritesServed
		m.RowHits += st.RowHits
		m.RowMisses += st.RowMisses
		m.RowConflicts += st.RowConflicts
		m.PolicyCloses += st.PolicyCloses
		m.ConflictCloses += st.ConflictCloses
		m.ForwardedReads += st.ForwardedReads
		latSum += st.ReadLatency.Mean() * float64(st.ReadLatency.Count())
		latCount += float64(st.ReadLatency.Count())
		rq += st.ReadQ.Average(endCycle)
		wq += st.WriteQ.Average(endCycle)

		dev := &ctl.Channel().Stats
		m.Activates += dev.Activates
		bw += float64(dev.DataBusBusy) / float64(s.cfg.MeasureCycles)
		for i := 1; i < len(dev.ActivationReuse); i++ {
			actTotal += dev.ActivationReuse[i]
		}
		act1 += dev.ActivationReuse[1]
	}
	n := float64(len(s.ctrls))
	if latCount > 0 {
		m.AvgReadLatency = latSum/latCount + float64(s.cfg.MemPathLatency) + float64(s.cfg.L2HitLatency)
	}
	total := m.RowHits + m.RowMisses + m.RowConflicts
	if total > 0 {
		m.RowHitRate = float64(m.RowHits) / float64(total)
	}
	m.AvgReadQ = rq / n
	m.AvgWriteQ = wq / n
	m.BandwidthUtil = bw / n
	if actTotal > 0 {
		m.SingleAccessFrac = float64(act1) / float64(actTotal)
	}
	if s.cfg.multiTenant() {
		m.Tenants = s.collectTenants()
	}
	return m
}

// collectTenants assembles the per-tenant breakdown (multi-tenant runs
// only; solo Metrics are unchanged from the single-tenant simulator).
func (s *System) collectTenants() []TenantMetrics {
	out := make([]TenantMetrics, len(s.tenants))
	for ti := range s.tenants {
		rt := &s.tenants[ti]
		tm := TenantMetrics{
			Tenant: ti,
			Name:   rt.spec.Label(),
			Cores:  rt.profile.Cores,
		}
		for c := rt.firstCore; c < rt.firstCore+rt.profile.Cores; c++ {
			tm.Retired += s.cores[c].Stats.Retired
		}
		tm.IPC = float64(tm.Retired) / float64(s.cfg.MeasureCycles)
		tm.DemandMisses = s.tenantMisses[ti]
		if tm.Retired > 0 {
			tm.MPKI = float64(tm.DemandMisses) / (float64(tm.Retired) / 1000)
		}
		var latSum uint64
		for _, ctl := range s.ctrls {
			ts := ctl.TenantStatsSlice()
			if ti >= len(ts) {
				continue
			}
			st := &ts[ti]
			tm.ReadsServed += st.ReadsServed
			tm.WritesServed += st.WritesServed
			tm.RowHits += st.RowHits
			tm.RowMisses += st.RowMisses
			tm.RowConflicts += st.RowConflicts
			latSum += st.ReadLatencySum
		}
		if tm.ReadsServed > 0 {
			tm.AvgReadLatency = float64(latSum)/float64(tm.ReadsServed) +
				float64(s.cfg.MemPathLatency) + float64(s.cfg.L2HitLatency)
		}
		if total := tm.RowHits + tm.RowMisses + tm.RowConflicts; total > 0 {
			tm.RowHitRate = float64(tm.RowHits) / float64(total)
		}
		out[ti] = tm
	}
	return out
}
