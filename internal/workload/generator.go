package workload

// rng is a deterministic xorshift64* generator; the simulator cannot
// use math/rand's global state because runs must be reproducible per
// (workload, configuration, seed).
type rng struct{ s uint64 }

func newRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return rng{s: seed}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

// float returns a uniform float64 in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform integer in [0,n).
func (r *rng) intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// geometric returns a sample with mean m (>=1).
func (r *rng) geometric(m float64) int {
	if m <= 1 {
		return 1
	}
	p := 1 / m
	n := 1
	for r.float() > p && n < 1024 {
		n++
	}
	return n
}

const blockBytes = 64

// Layout fixes where each region lives in physical address space. The
// hot regions sit at the bottom (one per core), then the shared stream
// region, then the cold region.
type Layout struct {
	HotBase    uint64
	HotStride  uint64
	StreamBase uint64
	StreamSize uint64
	ColdBase   uint64
	ColdSize   uint64
	Limit      uint64
}

// NewLayout computes the region layout for a profile.
func NewLayout(p Profile) Layout {
	hotStride := p.HotBytesPerCore
	streamBase := hotStride * uint64(p.Cores)
	coldBase := streamBase + p.StreamBytes
	return Layout{
		HotBase:    0,
		HotStride:  hotStride,
		StreamBase: streamBase,
		StreamSize: p.StreamBytes,
		ColdBase:   coldBase,
		ColdSize:   p.ColdBytes,
		Limit:      coldBase + p.ColdBytes,
	}
}

// Shift returns the layout relocated by base bytes: every region moves
// up together, so one address space can host several tenants'
// non-overlapping layouts.
func (l Layout) Shift(base uint64) Layout {
	l.HotBase += base
	l.StreamBase += base
	l.ColdBase += base
	l.Limit += base
	return l
}

// Generator produces the instruction stream of one core.
type Generator struct {
	profile Profile
	derived Derived
	layout  Layout
	core    int
	rand    rng

	// intensity is this core's multiplier on all memory probabilities.
	intensity float64

	// burst state
	burstRemaining int
	burstNext      uint64
	gapLeft        int

	// stats
	emitted uint64
}

// NewGenerator builds the stream generator for one core of a workload.
// Generators for the same (profile, seed) pair but different cores
// produce decorrelated streams.
func NewGenerator(p Profile, layout Layout, core int, seed uint64) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	intensity := p.CoreIntensity[core%len(p.CoreIntensity)]
	return &Generator{
		profile:   p,
		derived:   p.Derived(),
		layout:    layout,
		core:      core,
		rand:      newRNG(seed ^ (uint64(core)+1)*0xa0761d6478bd642f),
		intensity: intensity,
	}
}

// blockAlign masks addr to a block base.
func blockAlign(addr uint64) uint64 { return addr &^ (blockBytes - 1) }

// loadOrStore picks the reference type from the profile's store
// fraction.
func (g *Generator) loadOrStore() OpKind {
	if g.rand.float() < g.profile.StoreFraction {
		return OpStore
	}
	return OpLoad
}

// hotAddr returns a reference into this core's cache-resident region.
func (g *Generator) hotAddr() uint64 {
	base := g.layout.HotBase + uint64(g.core)*g.layout.HotStride
	return base + blockAlign(g.rand.intn(g.layout.HotStride))
}

// coldAddr returns a reference scattered over the cold region.
func (g *Generator) coldAddr() uint64 {
	return g.layout.ColdBase + blockAlign(g.rand.intn(g.layout.ColdSize))
}

// startBurst initializes a sequential run in the stream region.
func (g *Generator) startBurst() {
	g.burstRemaining = g.rand.geometric(g.derived.BurstLen)
	start := g.layout.StreamBase + blockAlign(g.rand.intn(g.layout.StreamSize))
	g.burstNext = start
	g.gapLeft = 0
}

// burstOp emits the next block of the active burst.
func (g *Generator) burstOp() Op {
	addr := g.burstNext
	g.burstNext += blockBytes
	if g.burstNext >= g.layout.ColdBase {
		g.burstNext = g.layout.StreamBase
	}
	g.burstRemaining--
	g.gapLeft = g.profile.BurstGapInstr
	kind := OpLoad
	storeFrac := g.profile.BurstStoreFraction
	if storeFrac == 0 {
		storeFrac = g.profile.StoreFraction
	}
	if g.rand.float() < storeFrac {
		kind = OpStore
	}
	return Op{Kind: kind, Addr: addr}
}

// Next returns the next instruction of this core's stream.
func (g *Generator) Next() Op {
	g.emitted++
	// Active burst, gap elapsed: emit the next block.
	bursting := g.burstRemaining > 0
	if bursting {
		if g.gapLeft <= 0 {
			return g.burstOp()
		}
		g.gapLeft--
	}
	// Background mix. It keeps flowing during burst gaps (the loop
	// processing a streamed buffer still touches its own hot and cold
	// data), so the miss rate does not dilute with the gap length;
	// only new bursts are suppressed while one is active.
	u := g.rand.float()
	d := g.derived
	pCold := d.PCold * g.intensity
	pBurst := d.PBurstStart * g.intensity
	if bursting {
		pBurst = 0
	}
	pHot := d.PHot * g.intensity
	switch {
	case u < pCold:
		return Op{Kind: g.loadOrStore(), Addr: g.coldAddr()}
	case u < pCold+pBurst:
		g.startBurst()
		return g.burstOp()
	case u < pCold+pBurst+pHot:
		return Op{Kind: g.loadOrStore(), Addr: g.hotAddr()}
	default:
		return Op{Kind: OpNonMem}
	}
}

// Emitted returns the number of instructions generated so far.
func (g *Generator) Emitted() uint64 { return g.emitted }

// IOAgent injects DMA traffic directly at the memory controllers,
// bypassing the caches (it models device DMA and OS atomic traffic,
// §4.3). Each burst touches BurstBlocks sequential blocks in a
// dedicated slice of the stream region, one block per cycle.
//
// The agent's random stream is that of a per-cycle injection loop: a
// silent cycle costs one draw, and a burst start three (the injection
// draw, the start block and the direction). It makes them a gap ahead:
// at construction and whenever a burst ends, plan draws every cycle of
// the coming gap up to and including the next burst start. Next emits
// only at the planned cycle, and NextEvent reports it, so a simulator
// can jump over a gap without asking the agent. Planning costs one
// draw per cycle of the gap.
type IOAgent struct {
	prof    IOProfile
	layout  Layout
	rand    rng
	rate    float64 // bursts per cycle
	at      uint64  // cycle of the next block; never if none
	pending int     // blocks left in the burst, the one at `at` included
	next    uint64  // address of the block at `at`
	isWrite bool
}

// never is the NextEvent of an agent that will not emit again; it
// equals cpu.Never.
const never = ^uint64(0)

// NewIOAgent builds the agent and plans its first burst from cycle 0;
// channels scales the rate when the profile asks for it. Returns nil
// when the profile has no IO component.
func NewIOAgent(p IOProfile, layout Layout, channels int, seed uint64) *IOAgent {
	if !p.Enabled {
		return nil
	}
	rate := p.BurstsPerMCycle / 1e6
	if p.ScalesWithChannels {
		rate *= float64(channels)
	}
	a := &IOAgent{
		prof:   p,
		layout: layout,
		rand:   newRNG(seed ^ 0xd1b54a32d192ed03),
		rate:   rate,
	}
	a.plan(0)
	return a
}

// plan makes the injection draws of cycles from, from+1, ... up to the
// first that starts a burst, then that burst's start-block and
// direction draws, and sets at to the burst's first cycle. An agent
// that cannot emit (a rate <= 0, or bursts of no blocks) plans no
// cycle and draws nothing.
func (a *IOAgent) plan(from uint64) {
	if a.rate <= 0 || a.prof.BurstBlocks <= 0 {
		a.at = never
		return
	}
	for a.rand.float() >= a.rate {
		from++
	}
	a.at = from
	a.pending = a.prof.BurstBlocks
	a.next = a.layout.StreamBase + blockAlign(a.rand.intn(a.layout.StreamSize))
	a.isWrite = a.rand.float() < a.prof.WriteFraction
}

// NextEvent returns the cycle of the agent's next block, or
// ^uint64(0) (cpu.Never) if it will not emit again. The result is at
// or after now as long as every earlier planned cycle was passed to
// Next.
func (a *IOAgent) NextEvent(now uint64) uint64 { return a.at }

// Next returns the DMA block to issue at cycle now, if any. The second
// result reports whether a request was produced; the third whether it
// is a write. Only NextEvent's cycle emits, and the caller must not let
// the clock pass it without calling Next there.
func (a *IOAgent) Next(now uint64) (addr uint64, ok, write bool) {
	if now < a.at {
		return 0, false, false
	}
	if now > a.at {
		panic("workload: IOAgent.Next called past its planned cycle")
	}
	addr, write = a.next, a.isWrite
	a.next += blockBytes
	// A burst's first block is not wrap-checked, so a burst that
	// starts at the stream region's last block emits ColdBase second.
	if a.pending < a.prof.BurstBlocks && a.next >= a.layout.ColdBase {
		a.next = a.layout.StreamBase
	}
	a.pending--
	if a.pending > 0 {
		a.at = now + 1
	} else {
		a.plan(now + 1)
	}
	return addr, true, write
}
