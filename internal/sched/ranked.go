package sched

import "cloudmc/internal/memctrl"

// pickRanked is the bounded rank-ordered scan ATLAS and QoS share:
// walk the queued reads in (rank, age) order and issue the first legal
// command found among the top len(top) of them, idling otherwise.
//
// rank is the tracker's per-slot rank (0 = highest priority); its last
// slot takes traffic whose Core (or Tenant, when byTenant) is out of
// range. top is caller-owned scratch sized to the scan depth. It holds
// (rank, queue index) keys, best first, so the top-depth selection is
// one pass over v.ReadQueue with one rank lookup per request. The queue
// is ID-ascending, so queue-index order is age order and the keys sort
// exactly as (rank, ID) does.
func pickRanked(v *memctrl.View, rank []int, byTenant bool, top []uint64) int {
	q := v.ReadQueue
	extra := len(rank) - 1
	n := 0
	for i, r := range q {
		s := r.Core
		if byTenant {
			s = r.Tenant
		}
		key := uint64(rank[coreSlot(s, extra)])<<32 | uint64(i)
		if n == len(top) {
			if key > top[n-1] {
				continue
			}
			n--
		}
		j := n
		for j > 0 && top[j-1] > key {
			top[j] = top[j-1]
			j--
		}
		top[j] = key
		n++
		// A full window of rank-0 requests is final: every later
		// request is younger and ranks no better.
		if n == len(top) && top[n-1]>>32 == 0 {
			break
		}
	}
	for _, key := range top[:n] {
		req := q[uint32(key)]
		for i := range v.Options {
			if v.Options[i].Req == req {
				return i
			}
		}
	}
	return -1
}

// scanDepth returns the configured scan depth, or def when unset.
func scanDepth(depth, def int) int {
	if depth <= 0 {
		return def
	}
	return depth
}
