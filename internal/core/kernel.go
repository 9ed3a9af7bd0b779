package core

import "cloudmc/internal/cpu"

// This file is the event-kernel execution mode of the System, the
// default (Config.FastForward): each stepped cycle ticks only the
// components that can act, and when none can, the loop jumps straight
// to the earliest cycle one of them can. The produced Metrics are
// bit-identical to the naive per-cycle loop (FastForward off);
// kernel_test.go and the fast-forward equivalence suite enforce it.
//
// Every source's next wake-up is read where it already lives:
//
//   - Cores live in coreWake, a dense per-core wake-time array: a core
//     with coreWake <= now ticks this cycle, a finite future value is
//     a timed stall (the tick would provably be a no-op; the value
//     feeds the jump bound), and Never means blocked on the memory
//     system until a fill or store drain calls wakeCore. Waking
//     settles the blocked window's stall statistics in bulk with
//     cpu.Core.Advance, so counters stay bit-identical. The dense
//     array costs one sequential compare per core per stepped cycle.
//   - A channel controller is its own wake-up record:
//     memctrl.Controller.NextEvent is its established event horizon
//     or its next in-flight completion. A controller whose
//     NextEvent(now) lies past now would return from Tick at once, so
//     the step only folds that value into the jump bound; every other
//     controller ticks. Enqueues happen earlier in the cycle (the
//     fill, IO, writeback and core phases), and a queued request
//     resets its controller's horizon, so a parked controller that
//     received one ticks in full this cycle and parks again.
//   - The fill path's wake-up is the fill queue's head, read after the
//     controller phase, whose completions schedule fills.
//   - A DMA agent plans each gap between its bursts ahead, making the
//     per-cycle loop's injection draws in the same order, so
//     workload.IOAgent.NextEvent is the cycle of its next block.
//
// stepKernel rebuilds nextWake — the earliest future cycle any core,
// controller, pending fill, DMA agent or retry queue can act — while
// it runs the phases, so advanceKernel's jump decision is a single
// compare. Writeback/DMA retry queues keep the system stepping while
// non-empty (they retry every cycle, exactly like the per-cycle loop).

// kernelState holds the event-kernel bookkeeping; embedded in System
// and initialised only when the kernel mode is selected.
type kernelState struct {
	// coreWake is the per-core wake time: <= now runnable, finite
	// future = timed stall, Never = blocked until wakeCore. For a
	// blocked core, coreIdleFrom records where its idle window began so
	// the skipped stall statistics can be applied in bulk.
	coreWake     []uint64
	coreIdleFrom []uint64

	// nextWake is the earliest cycle at which any component can act:
	// stalled cores, controllers, the fill-queue head, DMA agents and
	// non-empty retry queues. stepKernel rebuilds it every stepped
	// cycle — it already visits exactly those components — so the jump
	// decision in advanceKernel is a single compare.
	nextWake uint64
}

// kernelOn reports whether this System executes on the event kernel.
func (s *System) kernelOn() bool { return s.coreWake != nil }

// initKernel sizes the per-core wake-up arrays. Every core starts
// runnable and nextWake starts at zero, so the first cycle steps and
// parks whatever is quiescent.
func (s *System) initKernel() {
	s.coreWake = make([]uint64, len(s.cores))
	s.coreIdleFrom = make([]uint64, len(s.cores))
}

// wakeCore makes a blocked core runnable at cycle now, first applying
// the skipped idle window's stall statistics in bulk (bit-identical to
// the per-cycle ticks, per the cpu.Core.Advance contract). Callers
// must wake a core before delivering the fill or drain that ends its
// wait. No-op for cores that are not blocked (a fill arriving during a
// timed stall changes nothing until the stall ends, exactly like the
// per-cycle loop) or when the kernel is off.
func (s *System) wakeCore(i int, now uint64) {
	if !s.kernelOn() || s.coreWake[i] != cpu.Never {
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

// stepKernel advances the system one cycle, touching only components
// that can act: it runs the same phases in the same order as the
// per-cycle loop (fills, IO injection, writeback drain, cores,
// controllers), skipping components whose ticks would provably be
// no-ops. Along the way it rebuilds nextWake for the caller's jump
// decision.
//
//mclint:hotpath
func (s *System) stepKernel() {
	now := s.cycle
	if len(s.fillq) > 0 && s.fillq[0].at <= now {
		s.deliverFills(now)
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

	for _, ctl := range s.ctrls {
		// Past now, NextEvent is inside the controller's horizon with
		// no completion due: its Tick would return at once.
		w := ctl.NextEvent(now)
		if w <= now {
			ctl.Tick(now)
			w = ctl.NextEvent(now + 1)
		}
		if w < next {
			next = w
		}
	}

	// A fill scheduled this cycle for this cycle (zero on-chip path
	// latency) is delivered at the top of the next one, exactly where
	// the per-cycle loop delivers it. A DMA agent's next block lies
	// past now, since tickIO emitted any block due. Retry queues poll
	// every cycle while non-empty.
	if len(s.fillq) > 0 {
		if t := max(s.fillq[0].at, now+1); t < next {
			next = t
		}
	}
	for _, a := range s.ios {
		if t := a.NextEvent(now + 1); t < next {
			next = t
		}
	}
	if len(s.wbq) > 0 || len(s.ioq) > 0 {
		next = now + 1
	}
	s.nextWake = next
	s.cycle++
}

// advanceKernel runs the event-kernel loop to cycle `end`: step while
// anything is due, and jump straight to nextWake (capped at end) when
// nothing needs the current cycle. A jump never passes a wake-up,
// which is what makes every skipped cycle provably inert.
//
//mclint:hotpath
func (s *System) advanceKernel(end uint64) {
	for s.cycle < end {
		if h := min(s.nextWake, end); h > s.cycle {
			s.cycle = h
			continue
		}
		s.stepKernel()
	}
	s.settleCores()
}
