package sched

import (
	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
)

// QoSConfig parameterizes the SLO-targeting scheduler. The Pond-style
// framing: a cloud operator provisions memory against a tail-slowdown
// budget, so the scheduler's contract is "no tenant's memory slowdown
// exceeds MaxSlowdownSLO", not "maximize throughput".
type QoSConfig struct {
	// MaxSlowdownSLO is the per-tenant slowdown budget: a tenant whose
	// estimated memory slowdown is projected above it is boosted to the
	// head of the schedule until the estimate recovers.
	MaxSlowdownSLO float64
	// QuantumCycles is the monitoring/re-ranking quantum (the ATLAS
	// quantum; slowdown estimates and ranks update at its boundaries).
	QuantumCycles uint64
	// Alpha is the exponential-smoothing bias toward the current
	// quantum's observations (shared with the service tracker).
	Alpha float64
	// StarvationThreshold is the request age beyond which requests are
	// served oldest-first regardless of rank.
	StarvationThreshold uint64
	// ScanDepth bounds the per-cycle pick logic exactly as in ATLAS.
	ScanDepth int
	// BaselineLatency is the estimated uncontended read latency in
	// controller cycles (arrival to last data beat); the slowdown
	// estimate is the tenant's observed mean read latency divided by
	// it. Memory-bound tenants' execution slowdown tracks their memory
	// latency inflation, which is what the estimator measures.
	BaselineLatency float64
}

// DefaultQoSConfig returns the QoS scheduler's default parameters; the
// quantum mirrors ATLAS's and the baseline latency approximates an
// uncontended DDR3-1600 read at the 2GHz core clock.
func DefaultQoSConfig() QoSConfig {
	return QoSConfig{
		MaxSlowdownSLO:      2.0,
		QuantumCycles:       10_000_000,
		Alpha:               0.875,
		StarvationThreshold: 50_000,
		ScanDepth:           4,
		BaselineLatency:     70,
	}
}

// QoSTracker is the cross-channel monitoring state shared by every
// channel's QoS instance: the ATLAS attained-service machinery
// (ServiceTracker) plus per-slot latency observation, slowdown
// estimation and SLO-aware ranking. One tracker serves all channels,
// like the ATLAS tracker it builds on.
type QoSTracker struct {
	cfg QoSConfig
	// svc is the reused ATLAS accounting: attained service per slot,
	// exponentially smoothed, re-ranked least-first every quantum.
	svc *ServiceTracker
	// latSum/latCount accumulate read latencies in the current
	// quantum; est is the smoothed per-slot slowdown estimate.
	latSum   []float64
	latCount []uint64
	est      []float64
	violator []bool
	rank     []int
	// order is the rollover's sort scratch, allocated once.
	order []int
	next  uint64
}

// NewQoSTracker returns a tracker for n slots (tenants, typically)
// plus one for unattributed traffic.
func NewQoSTracker(n int, cfg QoSConfig) *QoSTracker {
	slots := n + 1
	t := &QoSTracker{
		cfg:      cfg,
		svc:      NewServiceTracker(n, serviceConfig(cfg)),
		latSum:   make([]float64, slots),
		latCount: make([]uint64, slots),
		est:      make([]float64, slots),
		violator: make([]bool, slots),
		rank:     make([]int, slots),
		order:    make([]int, slots),
		next:     cfg.QuantumCycles,
	}
	return t
}

// serviceConfig derives the embedded service tracker's ATLAS
// parameters from the QoS ones so both quanta roll over together.
func serviceConfig(cfg QoSConfig) ATLASConfig {
	return ATLASConfig{
		QuantumCycles:       cfg.QuantumCycles,
		Alpha:               cfg.Alpha,
		StarvationThreshold: cfg.StarvationThreshold,
		ScanDepth:           cfg.ScanDepth,
	}
}

// Slots returns the number of tracked slots minus the overflow slot.
func (t *QoSTracker) Slots() int { return len(t.rank) - 1 }

// AddService credits attained service (delegates to the ATLAS
// tracker).
func (t *QoSTracker) AddService(slot int, cycles float64) { t.svc.AddService(slot, cycles) }

// ObserveRead records one served read's queue+service latency.
func (t *QoSTracker) ObserveRead(slot int, latency uint64) {
	t.latSum[slot] += float64(latency)
	t.latCount[slot]++
}

// Estimate returns the current smoothed slowdown estimate of a slot
// (diagnostics and tests).
func (t *QoSTracker) Estimate(slot int) float64 { return t.est[slot] }

// NextBoundary returns the next quantum rollover cycle.
func (t *QoSTracker) NextBoundary() uint64 { return t.next }

// Tick advances the tracker; at quantum boundaries it refreshes the
// slowdown estimates and recomputes the schedule order: tenants
// projected over the SLO first (so the boost is absolute), both
// classes internally ordered by least attained service. Ordering
// violators by LAS rather than by estimated slowdown keeps an
// adversary whose latency is self-inflicted from outranking the
// light victim it is hurting.
func (t *QoSTracker) Tick(now uint64) {
	if now < t.next {
		return
	}
	t.next = now + t.cfg.QuantumCycles
	t.svc.Tick(now)
	a := t.cfg.Alpha
	for i := range t.est {
		if t.latCount[i] > 0 {
			sample := t.latSum[i] / float64(t.latCount[i]) / t.cfg.BaselineLatency
			if sample < 1 {
				sample = 1
			}
			t.est[i] = a*sample + (1-a)*t.est[i]
		} else {
			// No reads observed: decay toward "no slowdown" so an
			// idle tenant does not stay boosted forever.
			t.est[i] = (1 - a) * t.est[i]
		}
		t.latSum[i] = 0
		t.latCount[i] = 0
		t.violator[i] = t.est[i] > t.cfg.MaxSlowdownSLO
	}
	// Rank: (violator first, then LAS rank) — insertion sort over the
	// handful of slots, in the once-allocated order scratch.
	order, vio, las := t.order, t.violator, t.svc.rank
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		j := order[i]
		k := i - 1
		for k >= 0 && (vio[j] != vio[order[k]] && vio[j] ||
			vio[j] == vio[order[k]] && las[j] < las[order[k]]) {
			order[k+1] = order[k]
			k--
		}
		order[k+1] = j
	}
	for r, slot := range order {
		t.rank[slot] = r
	}
}

// Rank returns the slot's current schedule rank (0 = highest
// priority).
func (t *QoSTracker) Rank(slot int) int { return t.rank[slot] }

// QoSPolicy is the SLO-targeting scheduler: ATLAS's bounded
// rank-ordered scan and starvation override, driven by the QoSTracker's
// SLO-aware ranking instead of pure least-attained-service order.
type QoSPolicy struct {
	cfg     QoSConfig
	tracker *QoSTracker
	// byTenant ranks by Request.Tenant (colocation runs); false falls
	// back to per-core slots, which makes QoS degenerate to
	// ATLAS-with-SLO on solo systems.
	byTenant bool
	// top is pickRanked's scan-window scratch.
	top []uint64
}

// NewQoS returns a QoS policy sharing the given tracker.
func NewQoS(cfg QoSConfig, tracker *QoSTracker, byTenant bool) *QoSPolicy {
	return &QoSPolicy{
		cfg: cfg, tracker: tracker, byTenant: byTenant,
		top: make([]uint64, scanDepth(cfg.ScanDepth, 4)),
	}
}

// slot maps a request to its tracker slot.
func (p *QoSPolicy) slot(r *memctrl.Request) int {
	if p.byTenant {
		return coreSlot(r.Tenant, p.tracker.Slots())
	}
	return coreSlot(r.Core, p.tracker.Slots())
}

// Name implements memctrl.Policy.
func (*QoSPolicy) Name() string { return "QoS" }

// OnComplete implements memctrl.Policy: served reads feed the latency
// observation behind the slowdown estimate.
func (p *QoSPolicy) OnComplete(r *memctrl.Request, now uint64) {
	if r.Kind.IsWrite() {
		return
	}
	p.tracker.ObserveRead(p.slot(r), r.Age(now))
}

// Tick implements memctrl.Policy; idempotent within a cycle so shared
// trackers tolerate one call per channel.
func (p *QoSPolicy) Tick(now uint64) { p.tracker.Tick(now) }

// NextPolicyEvent implements memctrl.EventHorizon: quantum rollovers
// are clock-driven, so fast-forwarding controllers must wake for them.
func (p *QoSPolicy) NextPolicyEvent(now uint64) uint64 {
	return p.tracker.NextBoundary()
}

// OnIssue implements memctrl.Policy: column accesses credit attained
// service exactly as ATLAS does.
func (p *QoSPolicy) OnIssue(v *memctrl.View, picked int, issued dram.Command, _ uint64) {
	if picked < 0 || !issued.Kind.IsColumn() {
		return
	}
	p.tracker.AddService(p.slot(v.Options[picked].Req), 1)
}

// Pick implements memctrl.Policy: starvation override first, then the
// bounded scan in (SLO rank, age) order.
func (p *QoSPolicy) Pick(v *memctrl.View) int {
	if v.WriteMode {
		return pickFRFCFS(v)
	}
	best := -1
	for i := range v.Options {
		opt := &v.Options[i]
		if opt.Req.Age(v.Now) < p.cfg.StarvationThreshold {
			continue
		}
		if best == -1 || opt.Req.ID < v.Options[best].Req.ID {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	return pickRanked(v, p.tracker.rank, p.byTenant, p.top)
}
