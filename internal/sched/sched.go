// Package sched implements the memory scheduling algorithms the paper
// evaluates (§2.1, §4.1): FCFS_Banks, FR-FCFS, PAR-BS, ATLAS, and the
// reinforcement-learning (RL) scheduler. All satisfy memctrl.Policy.
//
// Multi-channel systems need one policy instance per controller, but
// ATLAS ranks cores by service attained across *all* controllers; use
// NewFactory to build per-channel instances that share the required
// state.
package sched

import (
	"fmt"
	"strings"

	"cloudmc/internal/memctrl"
)

// Kind enumerates the studied algorithms.
type Kind uint8

const (
	// FCFSBanks services each bank's requests strictly in arrival
	// order, exploiting bank-level parallelism only.
	FCFSBanks Kind = iota
	// FRFCFS is the baseline first-ready first-come-first-served
	// algorithm: row hits first, then oldest.
	FRFCFS
	// PARBS is parallelism-aware batch scheduling.
	PARBS
	// ATLAS is adaptive per-thread least-attained-service scheduling.
	ATLAS
	// RL is the reinforcement-learning self-optimizing scheduler.
	RL
	// QoS is the SLO-targeting scheduler for multi-tenant systems: it
	// monitors per-tenant attained service and memory latency against
	// a max-slowdown SLO and boosts tenants projected to violate it
	// (package-level doc in qos.go). It is not part of the paper's
	// figure grids (Kinds).
	QoS
)

// Kinds lists the algorithms in the order the paper's figures plot
// them.
var Kinds = []Kind{FRFCFS, FCFSBanks, PARBS, ATLAS, RL}

var kindNames = map[Kind]string{
	FCFSBanks: "FCFS_Banks",
	FRFCFS:    "FR-FCFS",
	PARBS:     "PAR-BS",
	ATLAS:     "ATLAS",
	RL:        "RL",
	QoS:       "QoS",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// allKinds lists every parseable algorithm in declaration order: the
// paper's figure order (Kinds) plus QoS. Matching and the valid-name
// error text both walk this list, never the kindNames map, so
// ParseKind's behavior — in particular its error message — is
// identical from run to run.
var allKinds = append(append([]Kind{}, Kinds...), QoS)

// ParseKind converts an algorithm name (as printed by String) back to
// its Kind, case-insensitively. Unknown names produce an error that
// lists every valid name, so a typo in a CLI flag is self-explaining.
func ParseKind(name string) (Kind, error) {
	for _, k := range allKinds {
		if strings.EqualFold(kindNames[k], name) {
			return k, nil
		}
	}
	valid := make([]string, 0, len(allKinds))
	for _, k := range allKinds {
		valid = append(valid, kindNames[k])
	}
	return 0, fmt.Errorf("sched: unknown scheduling algorithm %q (valid: %s)", name, strings.Join(valid, ", "))
}

// Factory builds one policy instance per memory channel. Instances
// returned by the same Factory share cross-channel state where the
// algorithm requires it: ATLAS ranks requesters by service attained
// across all controllers and QoS tracks slowdowns the same way, so
// their instances close over one shared tracker.
type Factory func(channel int) memctrl.Policy

// Opts parameterizes policy construction. Zero-valued sub-configs
// select the paper's Table 3 defaults.
type Opts struct {
	// Cores is the number of cores in the system (requests from DMA
	// agents with core ID -1 are folded into an extra slot).
	Cores int
	// Tenants, when positive, switches ATLAS to tenant-granularity
	// accounting: attained service is tracked and ranked per tenant
	// (VM) rather than per core, the arbitration unit a multi-tenant
	// cloud actually sells. Zero keeps the paper's per-core (per
	// hardware thread) accounting.
	Tenants int
	// Seed feeds the RL scheduler's exploration stream.
	Seed uint64
	// ATLAS, PARBS, RL and QoS override algorithm parameters. The
	// paper's ATLAS quantum is 10M cycles against multi-billion-cycle
	// samples; studies with compressed measurement windows must scale
	// QuantumCycles and StarvationThreshold accordingly (the QoS
	// quantum too).
	ATLAS ATLASConfig
	PARBS PARBSConfig
	RL    RLConfig
	QoS   QoSConfig
}

func (o Opts) atlas() ATLASConfig {
	if o.ATLAS.QuantumCycles == 0 {
		return DefaultATLASConfig()
	}
	return o.ATLAS
}

func (o Opts) parbs() PARBSConfig {
	if o.PARBS.BatchingCap == 0 {
		return DefaultPARBSConfig()
	}
	return o.PARBS
}

func (o Opts) rl() RLConfig {
	if o.RL.Tables == 0 {
		return DefaultRLConfig()
	}
	return o.RL
}

func (o Opts) qos() QoSConfig {
	if o.QoS.QuantumCycles == 0 {
		return DefaultQoSConfig()
	}
	return o.QoS
}

// NewFactory returns a Factory for the given algorithm with default
// parameters.
func NewFactory(kind Kind, cores int, seed uint64) Factory {
	return NewFactoryOpts(kind, Opts{Cores: cores, Seed: seed})
}

// NewFactoryOpts returns a Factory with explicit parameters.
func NewFactoryOpts(kind Kind, opts Opts) Factory {
	switch kind {
	case FCFSBanks:
		return func(int) memctrl.Policy { return NewFCFSBanks() }
	case FRFCFS:
		return func(int) memctrl.Policy { return NewFRFCFS() }
	case PARBS:
		return func(int) memctrl.Policy { return NewPARBS(opts.parbs(), opts.Cores) }
	case ATLAS:
		if opts.Tenants > 0 {
			tracker := NewServiceTracker(opts.Tenants, opts.atlas())
			return func(int) memctrl.Policy { return NewATLASTenants(opts.atlas(), tracker) }
		}
		tracker := NewServiceTracker(opts.Cores, opts.atlas())
		return func(int) memctrl.Policy { return NewATLAS(opts.atlas(), tracker) }
	case RL:
		return func(channel int) memctrl.Policy {
			return NewRL(opts.rl(), opts.Seed+uint64(channel)*0x9e3779b97f4a7c15)
		}
	case QoS:
		slots, byTenant := opts.Cores, false
		if opts.Tenants > 0 {
			slots, byTenant = opts.Tenants, true
		}
		tracker := NewQoSTracker(slots, opts.qos())
		return func(int) memctrl.Policy { return NewQoS(opts.qos(), tracker, byTenant) }
	default:
		panic(fmt.Sprintf("sched: unknown kind %d", uint8(kind)))
	}
}

// coreSlot maps a request's core ID into a dense slot index, folding
// DMA traffic (core -1) into the last slot.
func coreSlot(core, cores int) int {
	if core < 0 || core >= cores {
		return cores
	}
	return core
}

// noHooks provides no-op hook implementations for policies without
// completion or clock state.
type noHooks struct{}

// OnComplete implements memctrl.Policy.
func (noHooks) OnComplete(*memctrl.Request, uint64) {}

// Tick implements memctrl.Policy.
func (noHooks) Tick(uint64) {}
