package core

import (
	"cloudmc/internal/memctrl"
	"cloudmc/internal/obs"
)

// AttachRecorder attaches an interval recorder: Advance then samples
// the system's counters at every recorder boundary and Run re-anchors
// the series at the warmup-boundary stats reset. Attach before Run
// (the recorder is primed at the current cycle); nil detaches.
//
// Attaching a recorder never changes simulation results — obs-on runs
// produce bit-identical Metrics to obs-off runs (TestObsDifferential
// enforces this).
func (s *System) AttachRecorder(r *obs.Recorder) {
	s.rec = r
	if r != nil {
		r.Prime(s.obsSnapshot())
	}
}

// Recorder returns the attached interval recorder, or nil.
func (s *System) Recorder() *obs.Recorder { return s.rec }

// AttachTrace installs a command-level trace on every memory
// controller (nil detaches). Like the recorder, tracing is pure
// observation: traced runs are bit-identical to untraced ones.
func (s *System) AttachTrace(t memctrl.CommandTrace) {
	for _, ctl := range s.ctrls {
		ctl.SetTrace(t)
	}
}

// obsSnapshot copies the simulator's cumulative counters into an obs
// snapshot at the current cycle. Counters are settled at every call
// site: chunk boundaries in kernel mode end with settleCores, and the
// naive loop applies stall credit eagerly.
func (s *System) obsSnapshot() *obs.Snapshot {
	sn := &obs.Snapshot{
		Cycle:         s.cycle,
		DemandMisses:  s.demandMisses,
		MSHROccupancy: s.mshr.len(),
	}
	for _, c := range s.cores {
		sn.Retired += c.Stats.Retired
		sn.StallLoad += c.Stats.StallLoad
		sn.StallStore += c.Stats.StallStore
	}
	sn.Controllers = make([]obs.CtrlCounters, len(s.ctrls))
	for i, ctl := range s.ctrls {
		st := &ctl.Stats
		dev := &ctl.Channel().Stats
		rq, wq := ctl.QueueLens()
		sn.Controllers[i] = obs.CtrlCounters{
			Channel:         i,
			ReadsServed:     st.ReadsServed,
			WritesServed:    st.WritesServed,
			RowHits:         st.RowHits,
			RowMisses:       st.RowMisses,
			RowConflicts:    st.RowConflicts,
			ForwardedReads:  st.ForwardedReads,
			EnqueueFailures: st.EnqueueFailures,
			Parks:           st.Parks,
			Wakes:           st.Wakes,
			Activates:       dev.Activates,
			Precharges:      dev.Precharges,
			DataBusBusy:     dev.DataBusBusy,
			ReadQLen:        rq,
			WriteQLen:       wq,
			ReadLatency:     st.ReadLatency,
		}
	}
	if s.cfg.multiTenant() {
		sn.Tenants = make([]obs.TenantCounters, len(s.tenants))
		for ti := range s.tenants {
			rt := &s.tenants[ti]
			tc := obs.TenantCounters{
				Name:         rt.spec.Label(),
				Cores:        rt.profile.Cores,
				DemandMisses: s.tenantMisses[ti],
			}
			for c := rt.firstCore; c < rt.firstCore+rt.profile.Cores; c++ {
				tc.Retired += s.cores[c].Stats.Retired
			}
			for _, ctl := range s.ctrls {
				ts := ctl.TenantStatsSlice()
				if ti >= len(ts) {
					continue
				}
				st := &ts[ti]
				tc.ReadsServed += st.ReadsServed
				tc.WritesServed += st.WritesServed
				tc.RowHits += st.RowHits
				tc.RowMisses += st.RowMisses
				tc.RowConflicts += st.RowConflicts
				tc.ReadLatencySum += st.ReadLatencySum
			}
			sn.Tenants[ti] = tc
		}
	}
	return sn
}
