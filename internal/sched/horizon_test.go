package sched

import "testing"

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
