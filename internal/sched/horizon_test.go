package sched

import (
	"testing"

	"cloudmc/internal/memctrl"
)

// TestATLASNextPolicyEvent pins the quantum rollover as the ATLAS
// event horizon: fast-forwarding controllers must wake exactly at each
// boundary so the ranking schedule matches the per-cycle loop.
func TestATLASNextPolicyEvent(t *testing.T) {
	cfg := ATLASConfig{QuantumCycles: 1000, Alpha: 0.875, StarvationThreshold: 100, ScanDepth: 2}
	tr := NewServiceTracker(4, cfg)
	p := NewATLAS(cfg, tr)

	if got := p.NextPolicyEvent(0); got != 1000 {
		t.Fatalf("NextPolicyEvent = %d, want 1000", got)
	}
	// Ticks before the boundary must not move it.
	p.Tick(400)
	p.Tick(999)
	if got := p.NextPolicyEvent(999); got != 1000 {
		t.Fatalf("NextPolicyEvent after early ticks = %d, want 1000", got)
	}
	// The boundary tick re-arms the next quantum relative to now —
	// which is why skipping past a boundary would shift all later ones.
	p.Tick(1000)
	if got := p.NextPolicyEvent(1000); got != 2000 {
		t.Fatalf("NextPolicyEvent after rollover = %d, want 2000", got)
	}
	p.Tick(2300) // late observation (e.g. a busy stretch): quantum re-anchors
	if got := p.NextPolicyEvent(2300); got != 3300 {
		t.Fatalf("NextPolicyEvent after late rollover = %d, want 3300", got)
	}
}

// TestOnEnqueueLeavesPolicyEventUnchanged pins the invariant the
// controller's O(1) park re-arm depends on: an enqueue into
// a parked controller folds only the new request's own command into
// the established horizon, re-reading NextPolicyEvent no earlier than
// the next full tick. OnEnqueue must therefore never move the policy
// event earlier (memctrl.EventHorizon documents the contract).
func TestOnEnqueueLeavesPolicyEventUnchanged(t *testing.T) {
	req := &memctrl.Request{ID: 1, Core: 2, Tenant: 0, Kind: memctrl.ReadDemand, Arrival: 50}

	atlas := NewATLAS(ATLASConfig{QuantumCycles: 1000, Alpha: 0.875, StarvationThreshold: 100, ScanDepth: 2},
		NewServiceTracker(4, ATLASConfig{QuantumCycles: 1000, Alpha: 0.875, StarvationThreshold: 100, ScanDepth: 2}))
	qos := NewQoS(DefaultQoSConfig(), NewQoSTracker(4, DefaultQoSConfig()), false)

	for _, tc := range []struct {
		name string
		p    memctrl.Policy
	}{
		{"ATLAS", atlas},
		{"QoS", qos},
	} {
		eh, ok := tc.p.(memctrl.EventHorizon)
		if !ok {
			t.Fatalf("%s: expected an EventHorizon policy", tc.name)
		}
		before := eh.NextPolicyEvent(60)
		tc.p.OnEnqueue(req, 60)
		if after := eh.NextPolicyEvent(60); after != before {
			t.Fatalf("%s: OnEnqueue moved the policy event %d -> %d", tc.name, before, after)
		}
	}
}
