package sched

import (
	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
)

// PARBSConfig holds the PAR-BS parameters (paper Table 3).
type PARBSConfig struct {
	// BatchingCap is the maximum number of requests per (core, bank)
	// pair marked into a batch.
	BatchingCap int
}

// DefaultPARBSConfig returns the paper's configuration: batching cap 5.
func DefaultPARBSConfig() PARBSConfig { return PARBSConfig{BatchingCap: 5} }

// PARBSPolicy implements Parallelism-Aware Batch Scheduling (Mutlu &
// Moscibroda, §2.1). Requests are grouped into batches — up to
// BatchingCap oldest requests per core per bank — that are prioritized
// over everything else until the batch drains. Within a batch, cores
// are ranked shortest-job-first (a core's job length is its maximum
// number of marked requests to any single bank), which preserves
// bank-level parallelism of light cores. Full priority order:
// batched > row-hit > core rank > age.
type PARBSPolicy struct {
	cfg   PARBSConfig
	cores int

	// remaining counts unserved marked requests in the current batch.
	remaining int
	// rank[slot] is the core's batch rank; lower ranks first.
	rank []int
	// loads[slot] counts a slot's marked requests per bank (keyed
	// rank<<8|bank); loads and jobs are formBatch's scratch, allocated
	// once and reset per batch.
	loads []map[int]int
	jobs  []coreJob
}

// coreJob is one slot's job length in a batch: its maximum and total
// marked requests over banks.
type coreJob struct {
	slot, maxLoad, total int
}

// NewPARBS returns a PAR-BS policy for a system with the given core
// count.
func NewPARBS(cfg PARBSConfig, cores int) *PARBSPolicy {
	if cfg.BatchingCap <= 0 {
		cfg.BatchingCap = 5
	}
	loads := make([]map[int]int, cores+1)
	for i := range loads {
		loads[i] = make(map[int]int)
	}
	return &PARBSPolicy{
		cfg: cfg, cores: cores, rank: make([]int, cores+1),
		loads: loads, jobs: make([]coreJob, 0, cores+1),
	}
}

// Name implements memctrl.Policy.
func (*PARBSPolicy) Name() string { return "PAR-BS" }

// OnComplete implements memctrl.Policy: a served batched request
// shrinks the batch.
func (p *PARBSPolicy) OnComplete(r *memctrl.Request, _ uint64) {
	if r.Batched {
		r.Batched = false
		if p.remaining > 0 {
			p.remaining--
		}
	}
}

// Tick implements memctrl.Policy.
func (*PARBSPolicy) Tick(uint64) {}

// OnIssue implements memctrl.Policy.
func (*PARBSPolicy) OnIssue(*memctrl.View, int, dram.Command, uint64) {}

// formBatch marks up to BatchingCap oldest requests per (core, bank)
// from the read queue and ranks cores shortest-job-first.
func (p *PARBSPolicy) formBatch(v *memctrl.View) {
	loads := p.loads
	for _, l := range loads {
		clear(l)
	}
	marked := 0
	// The read queue is in arrival order, so scanning forward marks
	// the oldest first.
	for _, r := range v.ReadQueue {
		slot := coreSlot(r.Core, p.cores)
		bank := r.Loc.Rank<<8 | r.Loc.Bank
		if loads[slot][bank] >= p.cfg.BatchingCap {
			continue
		}
		loads[slot][bank]++
		r.Batched = true
		marked++
	}
	p.remaining = marked

	// Shortest job first: a core's job length is its max per-bank
	// marked count; rank 0 is the shortest.
	jobs := p.jobs[:0]
	for slot, l := range loads {
		j := coreJob{slot: slot}
		//mclint:order-insensitive -- max and sum over the values; both reductions are commutative
		for _, n := range l {
			j.total += n
			if n > j.maxLoad {
				j.maxLoad = n
			}
		}
		jobs = append(jobs, j)
	}
	// Insertion sort by (maxLoad, total); the slice is at most
	// cores+1 long.
	for i := 1; i < len(jobs); i++ {
		j := jobs[i]
		k := i - 1
		for k >= 0 && (jobs[k].maxLoad > j.maxLoad ||
			(jobs[k].maxLoad == j.maxLoad && jobs[k].total > j.total)) {
			jobs[k+1] = jobs[k]
			k--
		}
		jobs[k+1] = j
	}
	for rank, j := range jobs {
		p.rank[j.slot] = rank
	}
}

// Pick implements memctrl.Policy.
func (p *PARBSPolicy) Pick(v *memctrl.View) int {
	if v.WriteMode {
		// Writes drain with FR-FCFS rules; PAR-BS batches demand
		// reads only.
		return pickFRFCFS(v)
	}
	if p.remaining == 0 && len(v.ReadQueue) > 0 {
		p.formBatch(v)
	}
	best := -1
	var bestKey [4]int // batched, rowhit, -rank, age — encoded for comparison
	for i := range v.Options {
		opt := &v.Options[i]
		key := p.priorityKey(opt)
		if best == -1 || less(key, bestKey) {
			best = i
			bestKey = key
		}
	}
	return best
}

// priorityKey encodes PAR-BS priority; lexicographically smaller wins.
func (p *PARBSPolicy) priorityKey(opt *memctrl.Option) [4]int {
	batched := 1
	if opt.Req.Batched {
		batched = 0
	}
	hit := 1
	if opt.RowHit {
		hit = 0
	}
	rank := p.rank[coreSlot(opt.Req.Core, p.cores)]
	return [4]int{batched, hit, rank, int(opt.Req.ID)}
}

func less(a, b [4]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
