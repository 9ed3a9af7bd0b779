// Package workload synthesizes the memory behaviour of the paper's
// twelve server workloads (Table 1). The real study executed CloudSuite,
// SPECweb99, TPC-C and TPC-H binaries under full-system simulation;
// those binaries and traces are unavailable, so each workload is
// replaced by a stochastic instruction/address stream calibrated to the
// characterization the paper itself reports:
//
//   - memory intensity (L2 MPKI, Figure 4),
//   - row-buffer locality (hit rate, Figure 2),
//   - activation reuse (single-access fraction, Figure 8),
//   - memory-level parallelism (§4.1.2),
//   - per-core intensity imbalance (§4.1.1's ATLAS discussion), and
//   - DMA/IO traffic growth with channel count (§4.3, Web Frontend).
//
// Streams are mixtures of three components: hot references that stay
// cache-resident, cold references scattered over a footprint far larger
// than the LLC (single-access row activations), and sequential bursts
// that produce row-buffer hits. The mixture weights are derived
// analytically from the calibration targets; see Profile.Derived.
package workload

import (
	"fmt"
	"math"
)

// OpKind classifies one instruction of the synthetic stream.
type OpKind uint8

const (
	// OpNonMem is a non-memory instruction.
	OpNonMem OpKind = iota
	// OpLoad reads memory.
	OpLoad
	// OpStore writes memory.
	OpStore
)

// Op is one instruction.
type Op struct {
	Kind OpKind
	Addr uint64
}

// Category groups workloads the way the paper does.
type Category uint8

const (
	// SCOW is the scale-out (CloudSuite) category.
	SCOW Category = iota
	// TRSW is the traditional transactional server category.
	TRSW
	// DSPW is the decision-support category.
	DSPW
	// ADVW is the synthetic-adversary category (colocation studies);
	// these profiles are not part of the paper's Table 1 and are
	// excluded from All().
	ADVW
)

var categoryNames = [...]string{SCOW: "SCO", TRSW: "TRS", DSPW: "DSP", ADVW: "ADV"}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// IOProfile describes the DMA/IO agent traffic of a workload. The
// paper observes (§4.3) that Web Frontend's total memory accesses grow
// 11%/25% on 2-/4-channel systems from DMA and atomic traffic; the
// agent reproduces that by scaling its injection rate with the number
// of channels when ScalesWithChannels is set.
type IOProfile struct {
	// Enabled turns the agent on.
	Enabled bool
	// BurstsPerMCycle is the expected number of DMA bursts per million
	// cycles on a 1-channel system.
	BurstsPerMCycle float64
	// ScalesWithChannels multiplies the rate by the channel count.
	ScalesWithChannels bool
	// BurstBlocks is the number of sequential blocks per burst
	// (row-hitting traffic).
	BurstBlocks int
	// WriteFraction is the fraction of DMA bursts that are writes.
	WriteFraction float64
}

// Profile describes one workload.
type Profile struct {
	// Name and Acronym follow the paper's Table 1.
	Name    string
	Acronym string
	// Category is the paper's grouping.
	Category Category
	// Cores is the number of active cores (Web Frontend uses 8; the
	// paper's other workloads use all 16).
	Cores int

	// MemRefsPerKiloInstr is the L1 reference rate (loads+stores per
	// 1000 instructions).
	MemRefsPerKiloInstr float64
	// StoreFraction is the fraction of memory references that are
	// stores.
	StoreFraction float64
	// BaseCPI is the average cycles per instruction absent memory
	// stalls; it folds in the fetch stalls, branch penalties and
	// dependency bubbles the paper's in-order cores suffer (Ferdman et
	// al. report large frontend stalls for scale-out workloads).
	BaseCPI float64

	// TargetMPKI is the calibration target for L2 misses per kilo
	// instruction (paper Figure 4).
	TargetMPKI float64
	// TargetRowHit is the calibration target for the FR-FCFS/OAPM
	// row-buffer hit rate (paper Figure 2), as a fraction.
	TargetRowHit float64
	// TargetSingleAccess is the calibration target for the fraction of
	// activations receiving exactly one access (paper Figure 8).
	TargetSingleAccess float64

	// MLPLimit is the per-core outstanding-load-miss limit, the
	// simulator's model of memory-level parallelism (§4.1.2).
	MLPLimit int
	// BurstGapInstr is the number of non-memory instructions between
	// consecutive blocks of a sequential burst.
	BurstGapInstr int
	// BurstStoreFraction is the store fraction *within* sequential
	// bursts (buffer fills, copies, logging are store-heavy). Stores
	// are non-blocking, so store-dominated bursts reach the memory
	// controller back-to-back — the row locality FR-FCFS exploits.
	// Zero keeps StoreFraction.
	BurstStoreFraction float64

	// CoreIntensity scales MemRefsPerKiloInstr per core; the pattern
	// cycles over cores. Imbalanced patterns (MapReduce, Web Frontend,
	// SPECweb99) are what expose ATLAS's long-quantum unfairness.
	CoreIntensity []float64

	// HitCalib and AccCalib override the default timing-interference
	// compensation applied to TargetRowHit (multiplicative) and
	// TargetSingleAccess (additive) when deriving the mixture. Zero
	// selects the defaults (1.5 and -0.04). High-intensity workloads
	// need more compensation, low-intensity ones less; the values were
	// fitted with cmd/mccalibrate.
	HitCalib float64
	AccCalib float64

	// HotBytesPerCore, StreamBytes and ColdBytes size the address
	// regions. Cold and stream regions must be far larger than the LLC.
	HotBytesPerCore uint64
	StreamBytes     uint64
	ColdBytes       uint64

	// IO configures the DMA agent.
	IO IOProfile
}

// Validate reports an error for a profile the generator cannot run.
// Each float check states the accepted range, so NaN fails it.
func (p Profile) Validate() error {
	if p.Cores <= 0 {
		return fmt.Errorf("workload %s: Cores must be positive", p.Acronym)
	}
	if r := p.MemRefsPerKiloInstr; !(r > 0 && r <= 1000) {
		return fmt.Errorf("workload %s: MemRefsPerKiloInstr %.1f out of (0,1000]", p.Acronym, r)
	}
	if f := p.StoreFraction; !(f >= 0 && f <= 1) {
		return fmt.Errorf("workload %s: StoreFraction %v out of [0,1]", p.Acronym, f)
	}
	if f := p.BurstStoreFraction; !(f >= 0 && f <= 1) {
		return fmt.Errorf("workload %s: BurstStoreFraction %v out of [0,1] (0 keeps StoreFraction)", p.Acronym, f)
	}
	if c := p.BaseCPI; !(c >= 1) || math.IsInf(c, 1) {
		return fmt.Errorf("workload %s: BaseCPI %.2f must be finite and >= 1", p.Acronym, c)
	}
	if m := p.TargetMPKI; !(m > 0 && m <= p.MemRefsPerKiloInstr) {
		return fmt.Errorf("workload %s: TargetMPKI %.1f out of (0, MemRefs]", p.Acronym, m)
	}
	if h := p.TargetRowHit; !(h >= 0 && h < 1) {
		return fmt.Errorf("workload %s: TargetRowHit %v out of [0,1)", p.Acronym, h)
	}
	if a := p.TargetSingleAccess; !(a > 0 && a < 1) {
		return fmt.Errorf("workload %s: TargetSingleAccess %v out of (0,1)", p.Acronym, a)
	}
	if c := p.HitCalib; !(c >= 0) || math.IsInf(c, 1) {
		return fmt.Errorf("workload %s: HitCalib %v must be finite and >= 0 (0 selects the default)", p.Acronym, c)
	}
	if c := p.AccCalib; math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("workload %s: AccCalib %v must be finite (0 selects the default)", p.Acronym, c)
	}
	if p.MLPLimit <= 0 {
		return fmt.Errorf("workload %s: MLPLimit must be positive", p.Acronym)
	}
	if len(p.CoreIntensity) == 0 {
		return fmt.Errorf("workload %s: CoreIntensity must be non-empty", p.Acronym)
	}
	for i, x := range p.CoreIntensity {
		if !(x >= 0) || math.IsInf(x, 1) {
			return fmt.Errorf("workload %s: CoreIntensity[%d] %v must be finite and >= 0", p.Acronym, i, x)
		}
	}
	if p.HotBytesPerCore == 0 || p.StreamBytes == 0 || p.ColdBytes == 0 {
		return fmt.Errorf("workload %s: all region sizes must be non-zero", p.Acronym)
	}
	if io := p.IO; io.Enabled {
		if r := io.BurstsPerMCycle; math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			return fmt.Errorf("workload %s: IO.BurstsPerMCycle %v must be finite and positive", p.Acronym, r)
		}
		if io.BurstBlocks <= 0 {
			return fmt.Errorf("workload %s: IO.BurstBlocks must be positive", p.Acronym)
		}
		if w := io.WriteFraction; math.IsNaN(w) || w < 0 || w > 1 {
			return fmt.Errorf("workload %s: IO.WriteFraction %v out of [0,1]", p.Acronym, w)
		}
	}
	return nil
}

// Derived holds the mixture parameters computed from the calibration
// targets.
type Derived struct {
	// PCold is the per-instruction probability of a cold (random,
	// LLC-missing) reference.
	PCold float64
	// PBurstStart is the per-instruction probability of starting a
	// sequential burst.
	PBurstStart float64
	// BurstLen is the expected burst length in blocks.
	BurstLen float64
	// PHot is the per-instruction probability of a cache-resident
	// reference.
	PHot float64
}

// Derived computes the mixture parameters. With
//
//	H = target row-hit rate, A = target single-access fraction,
//
// the fraction of LLC misses that belong to sequential bursts is
// fs = 1 − A·(1 − H), and the burst length satisfies
// L = A·fs / ((1 − fs)(1 − A)): bursts of length L produce one
// activation and L−1 hits, cold references produce single-access
// activations, which yields exactly the target pair (H, A) in the
// absence of timing interference. (Interference shifts both; the
// targets are hit to within a few points in practice, which is all the
// study's normalized comparisons need.)
func (p Profile) Derived() Derived {
	// Timing interference (write drains, bank conflicts, adaptive
	// page closure) splits bursts, so the realized hit rate runs at
	// roughly 2/3 of the mixture's analytic value and the realized
	// single-access fraction a few points high. Compensate here so the
	// *measured* baseline lands on the paper's targets; the constants
	// were fitted against the FR-FCFS/OAPM baseline (cmd/mccalibrate).
	hitCalib, accCalib := p.HitCalib, p.AccCalib
	if hitCalib == 0 {
		hitCalib = 1.5
	}
	if accCalib == 0 {
		accCalib = -0.04
	}
	h := p.TargetRowHit * hitCalib
	if h > 0.92 {
		h = 0.92
	}
	a := p.TargetSingleAccess + accCalib
	if a < 0.50 {
		a = 0.50
	}
	if a > 0.92 {
		a = 0.92
	}
	fs := 1 - a*(1-h)
	l := a * fs / ((1 - fs) * (1 - a))
	if l < 1 {
		l = 1
	}
	missPerInstr := p.TargetMPKI / 1000
	memPerInstr := p.MemRefsPerKiloInstr / 1000
	d := Derived{
		PCold:       missPerInstr * (1 - fs),
		PBurstStart: missPerInstr * fs / l,
		BurstLen:    l,
		PHot:        memPerInstr - missPerInstr,
	}
	if d.PHot < 0 {
		d.PHot = 0
	}
	return d
}
