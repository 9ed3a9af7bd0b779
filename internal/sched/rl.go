package sched

import (
	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
)

// RLConfig holds the reinforcement-learning scheduler parameters
// (paper Table 3).
type RLConfig struct {
	// Tables is the number of CMAC-style Q-value tables (32).
	Tables int
	// TableSize is the number of Q-values per table (256).
	TableSize int
	// Alpha is the learning rate (0.1).
	Alpha float64
	// Gamma is the discount rate (0.95).
	Gamma float64
	// Epsilon is the random-action probability (0.05).
	Epsilon float64
	// StarvationThreshold is the request age (cycles) beyond which the
	// oldest request is served unconditionally (10K).
	StarvationThreshold uint64
}

// DefaultRLConfig returns the paper's configuration.
func DefaultRLConfig() RLConfig {
	return RLConfig{
		Tables:              32,
		TableSize:           256,
		Alpha:               0.1,
		Gamma:               0.95,
		Epsilon:             0.05,
		StarvationThreshold: 10_000,
	}
}

// RLPolicy is the self-optimizing scheduler of Ipek et al. (§2.1)
// re-implemented with the paper's Table 3 parameters. The scheduler
// treats command selection as a continuing SARSA problem: the state is
// summarized by queue-occupancy and locality attributes, the actions
// are the legal DRAM commands this cycle (plus no-op), Q-values live
// in hashed coarse-coded tables, and the reward is 1 whenever a
// command moves data on the bus. Writes are first-class actions, which
// is why RL runs with lower write-queue occupancy than the drain-mode
// policies (paper §4.1.3).
type RLPolicy struct {
	cfg    RLConfig
	tables [][]float64
	rng    uint64

	// SARSA bookkeeping for the previous decision.
	havePrev   bool
	prevIdx    []int
	prevQ      float64
	reward     float64
	pickedThis bool

	// scratch
	idxBuf []int
}

// NewRL returns an RL scheduling policy with its own Q-tables and a
// deterministic exploration stream derived from seed.
func NewRL(cfg RLConfig, seed uint64) *RLPolicy {
	if cfg.Tables <= 0 || cfg.TableSize <= 0 {
		panic("sched: RL config must have positive table dimensions")
	}
	t := make([][]float64, cfg.Tables)
	for i := range t {
		t[i] = make([]float64, cfg.TableSize)
	}
	if seed == 0 {
		seed = 0x2545f4914f6cdd1d
	}
	return &RLPolicy{
		cfg:     cfg,
		tables:  t,
		rng:     seed,
		prevIdx: make([]int, cfg.Tables),
		idxBuf:  make([]int, cfg.Tables),
	}
}

// Name implements memctrl.Policy.
func (*RLPolicy) Name() string { return "RL" }

// ConsidersWrites implements memctrl.WriteAware: RL sees read and
// write options together every cycle.
func (*RLPolicy) ConsidersWrites() bool { return true }

// OnComplete implements memctrl.Policy.
func (*RLPolicy) OnComplete(*memctrl.Request, uint64) {}

// Tick implements memctrl.Policy.
func (*RLPolicy) Tick(uint64) {}

// OnIssue implements memctrl.Policy: data-moving commands earn reward.
func (p *RLPolicy) OnIssue(_ *memctrl.View, picked int, issued dram.Command, _ uint64) {
	if !p.pickedThis {
		return
	}
	p.pickedThis = false
	if issued.Kind.IsColumn() {
		p.reward = 1
	} else {
		p.reward = 0
	}
}

// nextRand advances the xorshift64* PRNG.
func (p *RLPolicy) nextRand() uint64 {
	x := p.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	p.rng = x
	return x * 0x2545f4914f6cdd1d
}

// randFloat returns a uniform float64 in [0, 1).
func (p *RLPolicy) randFloat() float64 {
	return float64(p.nextRand()>>11) / (1 << 53)
}

// stateFeatures summarizes the controller state into small integers.
type stateFeatures struct {
	reads, writes, hits int
}

func bucket(v, max int) int {
	if v > max {
		return max
	}
	return v
}

func extractState(v *memctrl.View) stateFeatures {
	return stateFeatures{
		reads:  bucket(v.ReadQLen/2, 15),
		writes: bucket(v.WriteQLen/4, 15),
		hits:   bucket(v.PendingRowHits, 15),
	}
}

// actionFeatures summarizes one candidate command.
type actionFeatures struct {
	kind     int // dram.CommandKind
	rowHit   int
	isWrite  int
	ageLog2  int
	loadRead int // demand read vs other traffic
}

func extractAction(v *memctrl.View, i int) actionFeatures {
	if i < 0 {
		return actionFeatures{} // no-op
	}
	opt := &v.Options[i]
	var a actionFeatures
	a.kind = int(opt.Cmd.Kind)
	if opt.RowHit {
		a.rowHit = 1
	}
	if opt.Req.Kind.IsWrite() {
		a.isWrite = 1
	}
	if opt.Req.Kind == memctrl.ReadDemand {
		a.loadRead = 1
	}
	age := opt.Req.Age(v.Now)
	for age > 0 && a.ageLog2 < 15 {
		age >>= 2
		a.ageLog2++
	}
	return a
}

// mix64 is the splitmix64 finalizer, used as the table hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// qIndices computes, into dst, the per-table entry index for the
// state-action pair. Each table hashes the pair with a different seed,
// giving the coarse-coded overlap CMAC relies on.
func (p *RLPolicy) qIndices(dst []int, s stateFeatures, a actionFeatures) {
	key := uint64(s.reads)<<40 | uint64(s.writes)<<32 | uint64(s.hits)<<24 |
		uint64(a.kind)<<20 | uint64(a.rowHit)<<19 | uint64(a.isWrite)<<18 |
		uint64(a.loadRead)<<17 | uint64(a.ageLog2)<<8
	for t := range dst {
		dst[t] = int(mix64(key+uint64(t)*0x9e3779b97f4a7c15) % uint64(p.cfg.TableSize))
	}
}

// qValue sums the per-table entries for the indices.
func (p *RLPolicy) qValue(idx []int) float64 {
	var q float64
	for t, i := range idx {
		q += p.tables[t][i]
	}
	return q
}

// Pick implements memctrl.Policy: SARSA over the legal command set.
func (p *RLPolicy) Pick(v *memctrl.View) int {
	s := extractState(v)

	// Candidate selection: starvation override, else epsilon-greedy
	// over options plus the no-op action.
	chosen := -2 // -2 = not decided; -1 = no-op
	oldest := -1
	for i := range v.Options {
		opt := &v.Options[i]
		if opt.Req.Age(v.Now) >= p.cfg.StarvationThreshold {
			if oldest == -1 || opt.Req.ID < v.Options[oldest].Req.ID {
				oldest = i
			}
		}
	}
	if oldest >= 0 {
		chosen = oldest
	} else if p.randFloat() < p.cfg.Epsilon {
		// Explore: uniform over options and no-op.
		n := len(v.Options) + 1
		chosen = int(p.nextRand()%uint64(n)) - 1
	} else {
		// Exploit: argmax Q over options and no-op.
		bestQ := 0.0
		first := true
		for i := -1; i < len(v.Options); i++ {
			p.qIndices(p.idxBuf, s, extractAction(v, i))
			q := p.qValue(p.idxBuf)
			if first || q > bestQ {
				bestQ = q
				chosen = i
				first = false
			}
		}
	}

	// Q-indices and value of the chosen action.
	p.qIndices(p.idxBuf, s, extractAction(v, chosen))
	q := p.qValue(p.idxBuf)

	// SARSA update of the previous decision toward reward + gamma*q.
	if p.havePrev {
		target := p.reward + p.cfg.Gamma*q
		delta := p.cfg.Alpha * (target - p.prevQ) / float64(p.cfg.Tables)
		for t, i := range p.prevIdx {
			p.tables[t][i] += delta
		}
	}
	copy(p.prevIdx, p.idxBuf)
	p.prevQ = q
	p.havePrev = true
	p.reward = 0
	p.pickedThis = true
	return chosen
}
