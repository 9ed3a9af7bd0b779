package core

import (
	"fmt"

	"cloudmc/internal/cpu"
	"cloudmc/internal/engine"
)

// This file is the event-kernel execution mode of the System, the
// default (Config.FastForward): every timing source registers its next
// wake-up and the hot loop only touches components that are due. The
// produced Metrics are bit-identical to the naive per-cycle loop
// (FastForward off); kernel_test.go and the fast-forward equivalence
// suite enforce it.
//
// Two wake-up structures split the sources by shape:
//
//   - Cores live in coreWake, a dense per-core wake-time array: a core
//     with coreWake <= now ticks this cycle, a finite future value is
//     a timed stall (the tick would provably be a no-op; the value
//     feeds the jump bound), and Never means blocked on the memory
//     system until a fill or store drain calls wakeCore. Waking
//     settles the blocked window's stall statistics in bulk with
//     cpu.Core.Advance, so counters stay bit-identical. The dense
//     array costs one sequential compare per core per stepped cycle,
//     which beats any queue discipline for sources that wake this
//     often.
//   - The fill path and the channel controllers — few sources with
//     irregular, often-far horizons — are engine.Queue sources
//     (calendar ring + indexed min-heap, deterministic (time, rank)
//     pops). A controller parks at memctrl.Controller.NextEvent after
//     an idle tick; an enqueue into a parked controller re-activates
//     it (or re-arms it earlier, when a forwarded read merely
//     schedules a completion).
//
// stepKernel maintains nextWake — the earliest future cycle any core,
// active controller or retry queue can act — incrementally while it
// runs the phases, so advanceKernel's jump decision is one compare
// plus the queue's O(1) NextTime instead of a component rescan.
// Writeback/DMA retry queues keep the system stepping while non-empty
// (they retry every cycle, exactly like the per-cycle loop), and IO
// agents negotiate jumps through Scan/Skip (negotiateIOJump), so their
// per-cycle injection draws replay bit-exactly.

// kernelState holds the event-kernel bookkeeping; embedded in System
// and initialised only when the kernel mode is selected.
type kernelState struct {
	q       *engine.Queue
	fillSrc engine.ID
	ctrlSrc []engine.ID

	// coreWake is the per-core wake time: <= now runnable, finite
	// future = timed stall, Never = blocked until wakeCore. For a
	// blocked core, coreIdleFrom records where its idle window began so
	// the skipped stall statistics can be applied in bulk.
	coreWake     []uint64
	coreIdleFrom []uint64

	ctrlActive []bool

	// nextWake is the earliest cycle at which any component outside
	// the wake-up queue can act: stalled cores, active controllers,
	// and non-empty retry queues. stepKernel rebuilds it every stepped
	// cycle — it already visits exactly those components — so the jump
	// decision in advanceKernel is a single compare. Queue-parked
	// sources are covered by q.NextTime(), and IO agents by the Scan
	// negotiation at jump time.
	nextWake uint64

	dueBuf []engine.ID
}

// kernelOn reports whether this System executes on the event kernel.
func (s *System) kernelOn() bool { return s.q != nil }

// initKernel registers the queue-backed timing sources in the fixed
// rank order that fixes deterministic tie-breaking: fill path, then
// channel controllers. Everything starts runnable; the first stepped
// cycles park whatever is quiescent.
func (s *System) initKernel() {
	s.q = engine.New()
	s.fillSrc = s.q.Register("fill")
	s.ctrlSrc = make([]engine.ID, len(s.ctrls))
	for i := range s.ctrls {
		s.ctrlSrc[i] = s.q.Register(fmt.Sprintf("mc%d", i))
	}
	s.coreWake = make([]uint64, len(s.cores))
	s.coreIdleFrom = make([]uint64, len(s.cores))
	s.ctrlActive = make([]bool, len(s.ctrls))
	for i := range s.ctrlActive {
		s.ctrlActive[i] = true
	}
}

// wakeCore makes a blocked core runnable at cycle now, first applying
// the skipped idle window's stall statistics in bulk (bit-identical to
// the per-cycle ticks, per the cpu.Core.Advance contract). Callers
// must wake a core before delivering the fill or drain that ends its
// wait. No-op for cores that are not blocked (a fill arriving during a
// timed stall changes nothing until the stall ends, exactly like the
// per-cycle loop) or when the kernel is off.
func (s *System) wakeCore(i int, now uint64) {
	if s.q == nil || s.coreWake[i] != cpu.Never {
		return
	}
	s.cores[i].Advance(s.coreIdleFrom[i], now)
	s.coreWake[i] = now
}

// settleCores applies the stall statistics of every blocked core's
// idle window up to the current cycle. Advance calls it before
// returning so Metrics reads (and the warmup-boundary stats reset)
// always see fully settled counters; the windows are additive, so
// settling early never changes the totals.
func (s *System) settleCores() {
	for i, w := range s.coreWake {
		if w == cpu.Never {
			s.cores[i].Advance(s.coreIdleFrom[i], s.cycle)
			s.coreIdleFrom[i] = s.cycle
		}
	}
}

// notifyCtrl re-evaluates a parked controller's horizon after the
// System pushed work into it at cycle now. Wake-ups are
// bank-granular: an enqueue whose command cannot issue yet only
// lowers the controller's established horizon to that one bank's
// earliest-issue cycle (memctrl.Controller.noteEnqueue, an O(1)
// re-arm against the per-bank horizon cache), so NextEvent usually
// stays in the future and the controller remains parked — the queue
// source is simply re-armed earlier instead of ticking this cycle. A
// mode change (drain watermark, empty-read-queue transition) or a
// pending page-policy close resets the horizon to "unknown" and
// activates the controller as before; a forwarded read schedules a
// completion (re-arm earlier); a coalesced write changes nothing (the
// armed wake-up already covers it).
func (s *System) notifyCtrl(ch int, now uint64) {
	if s.q == nil || s.ctrlActive[ch] {
		return
	}
	if w := s.ctrls[ch].NextEvent(now); w <= now {
		s.ctrlActive[ch] = true
		s.q.Disarm(s.ctrlSrc[ch])
	} else {
		s.q.Arm(s.ctrlSrc[ch], w)
	}
}

// armFill keeps the fill source armed at the head of the fill queue.
// A head already due is armed for the next cycle: deliveries happen at
// the top of a stepped cycle, so a fill scheduled mid-cycle (by a
// controller completion) lands exactly where the per-cycle loop would
// have delivered it.
func (s *System) armFill() {
	if s.q == nil {
		return
	}
	if len(s.fillq) == 0 {
		s.q.Disarm(s.fillSrc)
		return
	}
	t := s.fillq[0].at
	if t <= s.q.Now() {
		t = s.q.Now() + 1
	}
	s.q.Arm(s.fillSrc, t)
}

// stepKernel advances the system one cycle, touching only components
// that are due: it wakes queue sources whose armed cycle arrived, then
// runs the same phases in the same order as the per-cycle loop (fills,
// IO injection, writeback drain, cores, controllers), skipping parked
// components whose ticks would provably be no-ops. Along the way it
// rebuilds nextWake for the caller's jump decision.
func (s *System) stepKernel() {
	now := s.cycle
	if s.q.Now() < now {
		// One behind after a regular step (jumps re-sync eagerly); a
		// single-cycle advance can never pass an armed wake-up.
		s.q.Step()
	}

	if s.q.HasDue() {
		s.dueBuf = s.q.PopDue(s.dueBuf[:0])
		for _, id := range s.dueBuf {
			if id == s.fillSrc {
				continue // delivery handled below; re-armed by armFill
			}
			s.ctrlActive[int(id)-int(s.ctrlSrc[0])] = true
		}
	}

	if len(s.fillq) > 0 && s.fillq[0].at <= now {
		s.deliverFills(now)
		s.armFill()
	}
	if len(s.ios) > 0 || len(s.ioq) > 0 {
		s.tickIO(now)
	}
	if len(s.wbq) > 0 {
		s.drainWritebacks(now)
	}

	next := uint64(cpu.Never)
	for i, w := range s.coreWake {
		if w > now {
			// Timed stall (or blocked at Never, which never wins the
			// min): the tick would be a no-op.
			if w < next {
				next = w
			}
			continue
		}
		c := s.cores[i]
		c.Tick(now, s)
		if w := c.NextEvent(now + 1); w > now+1 {
			s.coreWake[i] = w
			if w == cpu.Never {
				s.coreIdleFrom[i] = now + 1
			} else if w < next {
				next = w
			}
		} else {
			next = now + 1
		}
	}

	for i, ctl := range s.ctrls {
		if !s.ctrlActive[i] {
			continue
		}
		ctl.Tick(now)
		if w := ctl.NextEvent(now + 1); w > now+1 {
			s.ctrlActive[i] = false
			s.q.Arm(s.ctrlSrc[i], w)
		} else {
			next = now + 1
		}
	}

	// Retry queues poll every cycle while non-empty; a fill that became
	// due mid-cycle (zero on-chip path latency) is delivered next cycle
	// by the armed fill source, so it needs no entry here.
	if len(s.wbq) > 0 || len(s.ioq) > 0 {
		next = now + 1
	}
	s.nextWake = next
	s.cycle++
}

// advanceKernel runs the event-kernel loop to cycle `end`: step while
// anything is due, jump straight to the next wake-up — the earlier of
// nextWake (cores, active controllers, retries) and the queue's
// earliest armed source — when nothing needs the current cycle. Jumps
// negotiate with the IO agents (Scan/Skip) so their per-cycle
// injection draws replay exactly, and never pass a wake-up, which is
// what makes every skipped cycle provably inert.
func (s *System) advanceKernel(end uint64) {
	for s.cycle < end {
		if s.nextWake > s.cycle {
			h := s.nextWake
			if t := s.q.NextTime(); t < h {
				h = t
			}
			if h > end {
				h = end
			}
			if h > s.cycle {
				if n := s.negotiateIOJump(h - s.cycle); n > 0 {
					s.cycle += n
					s.q.AdvanceTo(s.cycle)
					continue
				}
			}
		}
		s.stepKernel()
	}
	s.settleCores()
}
