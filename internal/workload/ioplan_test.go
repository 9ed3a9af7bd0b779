package workload

import (
	"math"
	"testing"
)

// refAgent is the per-cycle DMA agent that IOAgent's planner must
// reproduce: asked every cycle, it makes one injection draw per silent
// cycle and three at a burst start, and wrap-checks every block of a
// burst but the first.
type refAgent struct {
	prof    IOProfile
	layout  Layout
	rand    rng
	rate    float64
	pending int
	next    uint64
	isWrite bool
}

func newRefAgent(p IOProfile, layout Layout, channels int, seed uint64) *refAgent {
	rate := p.BurstsPerMCycle / 1e6
	if p.ScalesWithChannels {
		rate *= float64(channels)
	}
	return &refAgent{prof: p, layout: layout, rand: newRNG(seed ^ 0xd1b54a32d192ed03), rate: rate}
}

func (a *refAgent) step() (addr uint64, ok, write bool) {
	if a.pending > 0 {
		a.pending--
		addr = a.next
		a.next += blockBytes
		if a.next >= a.layout.ColdBase {
			a.next = a.layout.StreamBase
		}
		return addr, true, a.isWrite
	}
	if a.rand.float() >= a.rate {
		return 0, false, false
	}
	a.pending = a.prof.BurstBlocks
	a.next = a.layout.StreamBase + blockAlign(a.rand.intn(a.layout.StreamSize))
	a.isWrite = a.rand.float() < a.prof.WriteFraction
	if a.pending > 0 {
		a.pending--
		addr = a.next
		a.next += blockBytes
		return addr, true, a.isWrite
	}
	return 0, false, false
}

type ioEvent struct {
	cycle uint64
	addr  uint64
	write bool
}

// plannedEvents drives a planned agent only at the cycles NextEvent
// names, up to horizon. Before each planned cycle it also calls Next
// one cycle early, which must emit nothing and change nothing.
func plannedEvents(t *testing.T, a *IOAgent, horizon uint64) []ioEvent {
	t.Helper()
	var got []ioEvent
	now := uint64(0)
	for {
		at := a.NextEvent(now)
		if at < now {
			t.Fatalf("NextEvent(%d) = %d, before the clock", now, at)
		}
		if at >= horizon {
			return got
		}
		if at > now {
			before := *a
			if _, ok, _ := a.Next(at - 1); ok || *a != before {
				t.Fatalf("Next(%d) before the planned cycle %d emitted %v or changed the agent", at-1, at, ok)
			}
		}
		addr, ok, write := a.Next(at)
		if !ok {
			t.Fatalf("Next(%d) at the planned cycle emitted nothing", at)
		}
		got = append(got, ioEvent{at, addr, write})
		now = at + 1
	}
}

// TestIOAgentPlanMatchesPerCycle is the planner's differential test:
// an agent driven only at the cycles NextEvent names must emit exactly
// the blocks (cycles, addresses, directions) of the per-cycle
// reference, whose random stream it shares draw for draw.
func TestIOAgentPlanMatchesPerCycle(t *testing.T) {
	wf, ms := WebFrontend(), MediaStreaming()
	// A five-block stream region with bursts longer than it wraps
	// every burst, and a burst starting at the last block emits
	// ColdBase second.
	tiny := NewLayout(ms)
	tiny.StreamSize = 5 * blockBytes
	tiny.ColdBase = tiny.StreamBase + tiny.StreamSize
	wrapIO := IOProfile{Enabled: true, BurstsPerMCycle: 20_000, BurstBlocks: 7, WriteFraction: 0.5}
	zeroBlocks := ms.IO
	zeroBlocks.BurstBlocks = 0
	everyCycle := ms.IO
	everyCycle.BurstsPerMCycle = 2e6
	everyCycle.BurstBlocks = 3

	cases := []struct {
		name     string
		io       IOProfile
		layout   Layout
		channels int
		horizon  uint64
		wantCold bool // some burst must emit ColdBase (the unchecked first block)
	}{
		{"WF-2ch", wf.IO, NewLayout(wf), 2, 2_000_000, false},
		{"MS", ms.IO, NewLayout(ms), 1, 2_000_000, false},
		{"zero-block-bursts", zeroBlocks, NewLayout(ms), 1, 200_000, false},
		{"five-block-stream", wrapIO, tiny, 1, 400_000, true},
		{"rate-at-least-1", everyCycle, NewLayout(ms), 1, 20_000, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := newRefAgent(tc.io, tc.layout, tc.channels, 7)
			var want []ioEvent
			for now := uint64(0); now < tc.horizon; now++ {
				if addr, ok, write := ref.step(); ok {
					want = append(want, ioEvent{now, addr, write})
				}
			}
			got := plannedEvents(t, NewIOAgent(tc.io, tc.layout, tc.channels, 7), tc.horizon)
			if len(got) != len(want) {
				t.Fatalf("planned agent emitted %d blocks, per-cycle reference %d", len(got), len(want))
			}
			cold := false
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("block %d: planned %+v, per-cycle %+v", i, got[i], want[i])
				}
				cold = cold || got[i].addr == tc.layout.ColdBase
			}
			if tc.io.BurstBlocks > 0 && len(want) == 0 {
				t.Fatal("the reference emitted nothing; the case is vacuous")
			}
			if tc.wantCold && !cold {
				t.Fatal("no burst started at the stream region's last block; the wrap case is vacuous")
			}
			if tc.io.BurstsPerMCycle >= 1e6 && uint64(len(want)) != tc.horizon {
				t.Fatalf("a rate >= 1 emitted %d blocks in %d cycles, want one per cycle", len(want), tc.horizon)
			}
		})
	}
}

// TestIOAgentNeverFires: an agent that cannot emit (a zero or negative
// rate, or bursts of no blocks) plans no cycle, so NextEvent is
// ^uint64(0) and Next stays silent.
func TestIOAgentNeverFires(t *testing.T) {
	p := MediaStreaming()
	for _, mutate := range []func(*IOProfile){
		func(io *IOProfile) { io.BurstsPerMCycle = 0 },
		func(io *IOProfile) { io.BurstsPerMCycle = -5 },
		func(io *IOProfile) { io.BurstBlocks = 0 },
	} {
		io := p.IO
		mutate(&io)
		a := NewIOAgent(io, NewLayout(p), 1, 3)
		if got := a.NextEvent(0); got != math.MaxUint64 {
			t.Fatalf("%+v: NextEvent = %d, want never", io, got)
		}
		for now := uint64(0); now < 10_000; now++ {
			if _, ok, _ := a.Next(now); ok {
				t.Fatalf("%+v: emitted at cycle %d", io, now)
			}
		}
	}
}
