package sched

import (
	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
)

// ATLASConfig holds the ATLAS parameters (paper Table 3).
type ATLASConfig struct {
	// QuantumCycles is the ranking quantum length (10M cycles).
	QuantumCycles uint64
	// Alpha is the exponential-smoothing bias toward the current
	// quantum's attained service (0.875).
	Alpha float64
	// StarvationThreshold is the request age (cycles) beyond which
	// requests are served oldest-first regardless of rank (50K).
	StarvationThreshold uint64
	// ScanDepth models the bounded pick logic of the hardware
	// scheduler: each cycle ATLAS walks the queued requests in rank
	// order and issues the first legal command within the top
	// ScanDepth requests, idling otherwise. A low-ranked (heavy) core
	// therefore makes no progress while higher-ranked requests occupy
	// the scan window — the long-deprioritization behaviour the paper
	// reports for imbalanced scale-out workloads (§4.1.1).
	ScanDepth int
}

// DefaultATLASConfig returns the paper's configuration.
func DefaultATLASConfig() ATLASConfig {
	return ATLASConfig{
		QuantumCycles:       10_000_000,
		Alpha:               0.875,
		StarvationThreshold: 50_000,
		ScanDepth:           2,
	}
}

// ServiceTracker accumulates per-core attained memory service time
// across all memory controllers and recomputes the ATLAS ranking at
// quantum boundaries. One tracker is shared by every channel's ATLAS
// instance (the paper's "long time quanta ... coordinate multiple
// controllers" idea).
type ServiceTracker struct {
	cfg ATLASConfig
	// service[slot] is the attained service in the current quantum;
	// total[slot] is the exponentially smoothed total.
	service []float64
	total   []float64
	// rank[slot]: 0 is the highest priority (least attained service).
	rank []int
	// order is the rollover's sort scratch, allocated once.
	order       []int
	nextQuantum uint64
}

// NewServiceTracker returns a tracker for the given core count (plus
// one slot for DMA traffic).
func NewServiceTracker(cores int, cfg ATLASConfig) *ServiceTracker {
	n := cores + 1
	t := &ServiceTracker{
		cfg:         cfg,
		service:     make([]float64, n),
		total:       make([]float64, n),
		rank:        make([]int, n),
		order:       make([]int, n),
		nextQuantum: cfg.QuantumCycles,
	}
	return t
}

// AddService credits service cycles to a core slot.
func (t *ServiceTracker) AddService(slot int, cycles float64) {
	t.service[slot] += cycles
}

// Tick advances the tracker; at quantum boundaries it re-ranks cores
// by smoothed total attained service, least first.
func (t *ServiceTracker) Tick(now uint64) {
	if now < t.nextQuantum {
		return
	}
	t.nextQuantum = now + t.cfg.QuantumCycles
	a := t.cfg.Alpha
	for i := range t.total {
		t.total[i] = a*t.service[i] + (1-a)*t.total[i]
		t.service[i] = 0
	}
	// Rank by total ascending (insertion sort over <=17 slots).
	order := t.order
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		j := order[i]
		k := i - 1
		for k >= 0 && t.total[order[k]] > t.total[j] {
			order[k+1] = order[k]
			k--
		}
		order[k+1] = j
	}
	for r, slot := range order {
		t.rank[slot] = r
	}
}

// NextBoundary returns the cycle at which the next quantum rollover
// fires (the earliest now for which Tick re-ranks).
func (t *ServiceTracker) NextBoundary() uint64 { return t.nextQuantum }

// Rank returns the current rank of a core slot (0 = highest priority).
func (t *ServiceTracker) Rank(slot int) int { return t.rank[slot] }

// Cores returns the number of tracked slots minus the DMA slot.
func (t *ServiceTracker) Cores() int { return len(t.rank) - 1 }

// ATLASPolicy implements Adaptive per-Thread Least-Attained-Service
// scheduling (Kim et al., §2.1). Priority order: over-threshold
// (starving) requests oldest-first, then least-attained-service core
// rank, then row hits, then age.
type ATLASPolicy struct {
	cfg     ATLASConfig
	tracker *ServiceTracker
	// byTenant ranks by Request.Tenant instead of Request.Core
	// (multi-tenant systems; the tracker is then sized per tenant).
	byTenant bool
	// top is pickRanked's scan-window scratch.
	top []uint64
}

// NewATLAS returns an ATLAS policy sharing the given tracker, ranking
// per core (the paper's configuration).
func NewATLAS(cfg ATLASConfig, tracker *ServiceTracker) *ATLASPolicy {
	return newATLAS(cfg, tracker, false)
}

// NewATLASTenants returns an ATLAS policy that accounts and ranks
// attained service per tenant; the tracker must be sized with the
// tenant count.
func NewATLASTenants(cfg ATLASConfig, tracker *ServiceTracker) *ATLASPolicy {
	return newATLAS(cfg, tracker, true)
}

func newATLAS(cfg ATLASConfig, tracker *ServiceTracker, byTenant bool) *ATLASPolicy {
	return &ATLASPolicy{
		cfg: cfg, tracker: tracker, byTenant: byTenant,
		top: make([]uint64, scanDepth(cfg.ScanDepth, 2)),
	}
}

// slot maps a request to its service-tracker slot: its tenant in
// tenant mode, its core otherwise; unattributed traffic folds into the
// tracker's extra slot either way.
func (p *ATLASPolicy) slot(r *memctrl.Request) int {
	if p.byTenant {
		return coreSlot(r.Tenant, p.tracker.Cores())
	}
	return coreSlot(r.Core, p.tracker.Cores())
}

// Name implements memctrl.Policy.
func (*ATLASPolicy) Name() string { return "ATLAS" }

// OnComplete implements memctrl.Policy.
func (*ATLASPolicy) OnComplete(*memctrl.Request, uint64) {}

// Tick implements memctrl.Policy. Multiple per-channel instances may
// share a tracker; Tick is idempotent within a cycle.
func (p *ATLASPolicy) Tick(now uint64) { p.tracker.Tick(now) }

// NextPolicyEvent implements memctrl.EventHorizon: the quantum
// rollover is clock-driven, so fast-forwarding controllers must wake
// for it even when no memory traffic is pending — otherwise a skipped
// boundary would shift every subsequent quantum and change the
// rankings.
func (p *ATLASPolicy) NextPolicyEvent(now uint64) uint64 {
	return p.tracker.NextBoundary()
}

// OnIssue implements memctrl.Policy: column accesses credit the
// issuing core's attained service with the data-burst occupancy,
// approximating "ATS increases by the number of banks servicing the
// core's requests each cycle".
func (p *ATLASPolicy) OnIssue(v *memctrl.View, picked int, issued dram.Command, _ uint64) {
	if picked < 0 || !issued.Kind.IsColumn() {
		return
	}
	req := v.Options[picked].Req
	p.tracker.AddService(p.slot(req), 1)
}

// Pick implements memctrl.Policy.
func (p *ATLASPolicy) Pick(v *memctrl.View) int {
	if v.WriteMode {
		return pickFRFCFS(v)
	}
	// Starvation override: any request older than the threshold is
	// served oldest-first.
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
