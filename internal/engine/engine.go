// Package engine is the simulator's event kernel: a monotonic clock
// plus an indexed wake-up queue over a fixed set of registered event
// sources (cores, controllers, the fill path, ...). Components arm a
// wake-up when they know the next cycle they can change state; the
// simulation loop pops due sources in deterministic order and jumps
// the clock straight to the earliest armed wake-up when nothing is
// active, with O(1)/O(log n) queue operations instead of an O(n) scan
// of every component's horizon.
//
// Determinism: pops are ordered by (wake time, registration rank), so
// two runs that arm the same times in the same order observe the same
// wake-up sequence regardless of queue internals. Registration rank is
// the order of Register calls, which the assembling System fixes by
// construction (the fill path first, then the channel controllers in
// channel order; cores are deliberately not queue sources — they wake
// too often, so the System schedules them through a dense per-core
// wake-time array instead, see core/kernel.go).
//
// The queue is a two-level calendar: wake-ups within ringSlots cycles
// of the clock land in a 64-slot ring (O(1) arm/pop, one occupancy
// bit per slot, the common case — pipeline stalls of a few cycles),
// and farther wake-ups land in an indexed binary min-heap (O(log n),
// the rare case — DRAM timing windows, scheduler quanta). Entries
// never migrate: the heap minimum is consulted alongside the ring, so
// a far wake-up simply becomes due where it sits.
package engine

import (
	"fmt"
	"math/bits"
)

// Never is the "no wake-up armed" sentinel; a source armed at Never is
// detached and only external events (another component's action) can
// make it runnable again.
const Never = ^uint64(0)

// ringSlots is the span of the near calendar window in cycles. 64
// matches one occupancy word: finding the next armed slot is a single
// rotate + trailing-zeros.
const ringSlots = 64

// ID names one registered event source; it doubles as the
// deterministic tie-break rank (lower ID wins at equal wake times).
type ID int32

// Queue is the event kernel. The zero value is not usable; call New.
type Queue struct {
	now uint64

	// at is the armed wake time per source (Never = detached). It is
	// the single source of truth; ring and heap are just indexes.
	at    []uint64
	names []string

	// Near window: ring[t%ringSlots] lists sources armed for cycle t,
	// for t within [now, now+ringSlots). occ has bit (t%ringSlots) set
	// iff that slot is non-empty.
	ring [ringSlots][]ID
	occ  uint64

	// Far window: indexed min-heap ordered by (at, ID); pos maps a
	// source to its heap index (-1 when not in the heap).
	heap []ID
	pos  []int32
}

// New returns an empty kernel with the clock at zero.
func New() *Queue { return &Queue{} }

// Register adds an event source and returns its ID. Registration
// order fixes the deterministic tie-break rank, so callers must
// register sources in the order they want equal-time wake-ups
// delivered. New sources start detached (armed at Never).
func (q *Queue) Register(name string) ID {
	id := ID(len(q.at))
	q.at = append(q.at, Never)
	q.names = append(q.names, name)
	q.pos = append(q.pos, -1)
	return id
}

// Len returns the number of registered sources.
func (q *Queue) Len() int { return len(q.at) }

// Name returns the label a source was registered with.
func (q *Queue) Name(id ID) string { return q.names[id] }

// Now returns the kernel clock.
func (q *Queue) Now() uint64 { return q.now }

// Armed returns the source's current wake time (Never when detached).
func (q *Queue) Armed(id ID) uint64 { return q.at[id] }

// Arm schedules (or re-schedules) a source's wake-up for cycle at.
// Never detaches the source. Arming in the past or present is a bug in
// the caller — a wake-up for the current cycle must be handled
// directly, not queued — and panics.
//
//mclint:hotpath
func (q *Queue) Arm(id ID, at uint64) {
	if at == q.at[id] {
		return
	}
	if at != Never && at <= q.now {
		panic(fmt.Sprintf("engine: arming %s at %d, clock already at %d", q.names[id], at, q.now))
	}
	q.detach(id)
	q.at[id] = at
	if at == Never {
		return
	}
	if at-q.now < ringSlots {
		s := at % ringSlots
		q.ring[s] = append(q.ring[s], id)
		q.occ |= 1 << s
	} else {
		q.heapPush(id)
	}
}

// Disarm detaches a source's wake-up, if any.
func (q *Queue) Disarm(id ID) { q.Arm(id, Never) }

// NextTime returns the earliest armed wake time (Never when nothing is
// armed). It never returns a time before the clock.
//
//mclint:hotpath
func (q *Queue) NextTime() uint64 {
	t := Never
	if q.occ != 0 {
		// Rotate so bit k of r corresponds to slot (now+k)%ringSlots;
		// the first set bit is the offset to the next armed slot.
		r := bits.RotateLeft64(q.occ, -int(q.now%ringSlots))
		t = q.now + uint64(bits.TrailingZeros64(r))
	}
	if len(q.heap) > 0 && q.at[q.heap[0]] < t {
		t = q.at[q.heap[0]]
	}
	return t
}

// Step advances the clock by one cycle. A single-cycle advance can
// reach, but never pass, an armed wake-up (arms are strictly in the
// future), so no event-loss check is needed — this is the hot-path
// complement to AdvanceTo.
//
//mclint:hotpath
func (q *Queue) Step() { q.now++ }

// HasDue reports whether any armed wake-up is due at the current
// clock; the O(1) guard callers use before PopDue.
//
//mclint:hotpath
func (q *Queue) HasDue() bool {
	return q.occ&(1<<(q.now%ringSlots)) != 0 ||
		(len(q.heap) > 0 && q.at[q.heap[0]] <= q.now)
}

// AdvanceTo moves the clock forward to cycle t. The clock is
// monotonic, and may not jump past an armed wake-up: callers jump to
// min(NextTime, bound). Both violations panic — they would silently
// lose events.
//
//mclint:hotpath
func (q *Queue) AdvanceTo(t uint64) {
	if t == q.now {
		return
	}
	if t < q.now {
		panic(fmt.Sprintf("engine: clock regression %d -> %d", q.now, t))
	}
	if nt := q.NextTime(); t > nt {
		panic(fmt.Sprintf("engine: advancing clock to %d past armed wake-up at %d", t, nt))
	}
	q.now = t
}

// PopDue detaches and returns every source whose wake time has arrived
// (at <= Now()), in (time, ID) order, appended to buf. Because the
// clock never passes an armed wake-up, all due sources share the
// current cycle as their wake time and the order reduces to ascending
// ID — the fixed component rank.
//
//mclint:hotpath
func (q *Queue) PopDue(buf []ID) []ID {
	out := buf
	s := q.now % ringSlots
	if q.occ&(1<<s) != 0 {
		slot := q.ring[s]
		for _, id := range slot {
			if q.at[id] == q.now {
				q.at[id] = Never
				out = append(out, id)
			}
		}
		q.ring[s] = slot[:0]
		q.occ &^= 1 << s
	}
	for len(q.heap) > 0 && q.at[q.heap[0]] <= q.now {
		id := q.heapPop()
		q.at[id] = Never
		out = append(out, id)
	}
	// All due wake times equal q.now, so (time, ID) order is ID order.
	// The slices are tiny (the cycle's due sources); insertion sort
	// avoids the sort package's interface overhead on the hot path.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// detach removes id from whichever index currently holds it. The at
// entry is left to the caller (Arm overwrites it).
func (q *Queue) detach(id ID) {
	if q.pos[id] >= 0 {
		q.heapRemove(id)
		return
	}
	at := q.at[id]
	if at == Never || at-q.now >= ringSlots {
		return
	}
	s := at % ringSlots
	slot := q.ring[s]
	for i, x := range slot {
		if x == id {
			q.ring[s] = append(slot[:i], slot[i+1:]...) //mclint:alloc-ok -- compaction within the slot's existing backing array: len shrinks by one, capacity always suffices, so append never grows
			break
		}
	}
	if len(q.ring[s]) == 0 {
		q.occ &^= 1 << s
	}
}

// less orders the heap by (wake time, registration rank).
func (q *Queue) less(a, b ID) bool {
	if q.at[a] != q.at[b] {
		return q.at[a] < q.at[b]
	}
	return a < b
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[q.heap[i]] = int32(i)
	q.pos[q.heap[j]] = int32(j)
}

func (q *Queue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(q.heap[i], q.heap[p]) {
			return
		}
		q.swap(i, p)
		i = p
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.less(q.heap[r], q.heap[l]) {
			m = r
		}
		if !q.less(q.heap[m], q.heap[i]) {
			return
		}
		q.swap(i, m)
		i = m
	}
}

func (q *Queue) heapPush(id ID) {
	q.pos[id] = int32(len(q.heap))
	q.heap = append(q.heap, id)
	q.up(len(q.heap) - 1)
}

func (q *Queue) heapRemove(id ID) {
	i := int(q.pos[id])
	q.pos[id] = -1
	last := len(q.heap) - 1
	if i != last {
		q.heap[i] = q.heap[last]
		q.pos[q.heap[i]] = int32(i)
	}
	q.heap = q.heap[:last]
	if i < last {
		q.down(i)
		q.up(i)
	}
}

func (q *Queue) heapPop() ID {
	id := q.heap[0]
	q.heapRemove(id)
	return id
}
