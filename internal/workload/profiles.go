package workload

import (
	"fmt"
	"strings"
)

// Calibration targets are read off the paper's figures: TargetMPKI
// from Figure 4, TargetRowHit from Figure 2 (FR-FCFS, open-adaptive),
// TargetSingleAccess from Figure 8. MLPLimit and BaseCPI encode the
// qualitative characterization of §4.1.2 (scale-out: low MLP, heavy
// frontend stalls; decision support: some MLP, higher intensity).
// CoreIntensity patterns encode §4.1.1's per-core imbalance notes
// (MapReduce, Web Frontend and SPECweb99 show large IPC disparity
// under ATLAS, so their memory intensity must be skewed across cores).

const (
	kib = 1 << 10
	mib = 1 << 20
	gib = 1 << 30
)

var balanced = []float64{1}

// DataServing models the CloudSuite Cassandra-based data store.
func DataServing() Profile {
	return Profile{
		Name: "Data Serving", Acronym: "DS", Category: SCOW, Cores: 16,
		MemRefsPerKiloInstr: 300, StoreFraction: 0.30, BaseCPI: 2.0,
		TargetMPKI: 4, TargetRowHit: 0.30, TargetSingleAccess: 0.88,
		MLPLimit: 2, BurstGapInstr: 48, BurstStoreFraction: 0.3,
		CoreIntensity: balanced,
		HitCalib:      2.4, AccCalib: 0.04,
		HotBytesPerCore: 48 * kib, StreamBytes: 256 * mib, ColdBytes: 2 * gib,
	}
}

// MapReduce models the CloudSuite Hadoop analytics job. Its mapper/
// reducer split gives it the strongest per-core intensity imbalance,
// which is what exposes ATLAS's long-quantum unfairness (§4.1.1
// reports 52% degradation and a 7.78x latency blow-up).
func MapReduce() Profile {
	return Profile{
		Name: "MapReduce", Acronym: "MR", Category: SCOW, Cores: 16,
		MemRefsPerKiloInstr: 300, StoreFraction: 0.35, BaseCPI: 2.5,
		TargetMPKI: 6, TargetRowHit: 0.30, TargetSingleAccess: 0.88,
		MLPLimit: 2, BurstGapInstr: 48, BurstStoreFraction: 0.3,
		CoreIntensity: []float64{2.6, 2.6, 2.6, 2.6, 0.35, 0.35, 0.35, 0.35},
		HitCalib:      2.6, AccCalib: 0.04,
		HotBytesPerCore: 48 * kib, StreamBytes: 512 * mib, ColdBytes: 2 * gib,
	}
}

// SATSolver models the CloudSuite Klee symbolic-execution workload.
func SATSolver() Profile {
	return Profile{
		Name: "SAT Solver", Acronym: "SS", Category: SCOW, Cores: 16,
		MemRefsPerKiloInstr: 310, StoreFraction: 0.25, BaseCPI: 2.4,
		TargetMPKI: 8, TargetRowHit: 0.30, TargetSingleAccess: 0.85,
		MLPLimit: 2, BurstGapInstr: 48, BurstStoreFraction: 0.3,
		CoreIntensity: balanced,
		HitCalib:      2.2, AccCalib: 0.05,
		HotBytesPerCore: 48 * kib, StreamBytes: 256 * mib, ColdBytes: 2 * gib,
	}
}

// WebFrontend models the CloudSuite web-serving tier. It runs on 8
// cores (the configuration available to the authors), has the highest
// row-buffer locality of the scale-out suite, and carries DMA/atomic
// IO traffic that grows with available channel concurrency (§4.3
// reports +11%/+25% accesses on 2/4 channels and a ~10% IPC drop).
func WebFrontend() Profile {
	return Profile{
		Name: "Web Frontend", Acronym: "WF", Category: SCOW, Cores: 8,
		MemRefsPerKiloInstr: 290, StoreFraction: 0.30, BaseCPI: 2.1,
		TargetMPKI: 3, TargetRowHit: 0.55, TargetSingleAccess: 0.86,
		MLPLimit: 1, BurstGapInstr: 48, BurstStoreFraction: 0.3,
		CoreIntensity: []float64{1.9, 1.9, 1.9, 0.45, 0.45, 0.45, 0.45, 0.45},
		HitCalib:      1.7, AccCalib: 0.04,
		HotBytesPerCore: 48 * kib, StreamBytes: 256 * mib, ColdBytes: 1 * gib,
		IO: IOProfile{
			Enabled: true, BurstsPerMCycle: 60, ScalesWithChannels: true,
			BurstBlocks: 16, WriteFraction: 0.5,
		},
	}
}

// WebSearch models the CloudSuite Nutch index-serving node; it has the
// lowest off-chip intensity of the suite.
func WebSearch() Profile {
	return Profile{
		Name: "Web Search", Acronym: "WS", Category: SCOW, Cores: 16,
		MemRefsPerKiloInstr: 280, StoreFraction: 0.20, BaseCPI: 2.2,
		TargetMPKI: 2, TargetRowHit: 0.35, TargetSingleAccess: 0.85,
		MLPLimit: 1, BurstGapInstr: 48, BurstStoreFraction: 0.3,
		CoreIntensity: balanced,
		HitCalib:      2.2, AccCalib: 0.05,
		HotBytesPerCore: 48 * kib, StreamBytes: 256 * mib, ColdBytes: 1 * gib,
	}
}

// MediaStreaming models the CloudSuite Darwin streaming server: most
// activations are single-access, but the minority that stream buffers
// collect many hits (§4.2.1 reports 76% single-access yet a high hit
// rate), plus steady DMA traffic for the media buffers.
func MediaStreaming() Profile {
	return Profile{
		Name: "Media Streaming", Acronym: "MS", Category: SCOW, Cores: 16,
		MemRefsPerKiloInstr: 290, StoreFraction: 0.25, BaseCPI: 2.0,
		TargetMPKI: 5, TargetRowHit: 0.50, TargetSingleAccess: 0.76,
		MLPLimit: 3, BurstGapInstr: 48, BurstStoreFraction: 0.3,
		CoreIntensity: balanced,
		HitCalib:      2.0, AccCalib: 0.10,
		HotBytesPerCore: 48 * kib, StreamBytes: 1 * gib, ColdBytes: 1 * gib,
		IO: IOProfile{
			Enabled: true, BurstsPerMCycle: 40, ScalesWithChannels: false,
			BurstBlocks: 32, WriteFraction: 0.5,
		},
	}
}

// SPECweb99 models the traditional web-serving benchmark; its mix of
// static and dynamic request handlers skews per-core intensity (§4.1.1
// reports a 33% ATLAS loss from IPC disparity).
func SPECweb99() Profile {
	return Profile{
		Name: "SPECweb99", Acronym: "WSPEC99", Category: TRSW, Cores: 16,
		MemRefsPerKiloInstr: 300, StoreFraction: 0.30, BaseCPI: 3.0,
		TargetMPKI: 6, TargetRowHit: 0.35, TargetSingleAccess: 0.85,
		MLPLimit: 2, BurstGapInstr: 48, BurstStoreFraction: 0.3,
		CoreIntensity: []float64{2.2, 2.2, 2.2, 2.2, 0.4, 0.4, 0.4, 0.4},
		HitCalib:      2.6, AccCalib: 0.07,
		HotBytesPerCore: 48 * kib, StreamBytes: 256 * mib, ColdBytes: 1 * gib,
	}
}

// TPCC1 models TPC-C on commercial DBMS vendor A.
func TPCC1() Profile {
	return Profile{
		Name: "TPC-C1 (vendor A)", Acronym: "TPC-C1", Category: TRSW, Cores: 16,
		MemRefsPerKiloInstr: 320, StoreFraction: 0.35, BaseCPI: 4.5,
		TargetMPKI: 9, TargetRowHit: 0.33, TargetSingleAccess: 0.82,
		MLPLimit: 2, BurstGapInstr: 5, BurstStoreFraction: 0.3,
		CoreIntensity: balanced,
		HitCalib:      1.7, AccCalib: 0.06,
		HotBytesPerCore: 56 * kib, StreamBytes: 512 * mib, ColdBytes: 4 * gib,
	}
}

// TPCC2 models TPC-C on commercial DBMS vendor B; the paper finds it
// the least scheduler-sensitive workload.
func TPCC2() Profile {
	return Profile{
		Name: "TPC-C2 (vendor B)", Acronym: "TPC-C2", Category: TRSW, Cores: 16,
		MemRefsPerKiloInstr: 320, StoreFraction: 0.35, BaseCPI: 4.8,
		TargetMPKI: 10, TargetRowHit: 0.30, TargetSingleAccess: 0.80,
		MLPLimit: 3, BurstGapInstr: 5, BurstStoreFraction: 0.3,
		CoreIntensity: balanced,
		HitCalib:      1.55, AccCalib: 0.0,
		HotBytesPerCore: 56 * kib, StreamBytes: 512 * mib, ColdBytes: 4 * gib,
	}
}

// TPCHQ2 models TPC-H query 2 (select-intensive).
func TPCHQ2() Profile {
	return Profile{
		Name: "TPC-H Q2", Acronym: "TPCH-Q2", Category: DSPW, Cores: 16,
		MemRefsPerKiloInstr: 330, StoreFraction: 0.20, BaseCPI: 4.0,
		TargetMPKI: 16, TargetRowHit: 0.28, TargetSingleAccess: 0.78,
		MLPLimit: 1, BurstGapInstr: 5, BurstStoreFraction: 0.3,
		CoreIntensity: balanced,
		HitCalib:      2.0, AccCalib: -0.02,
		HotBytesPerCore: 56 * kib, StreamBytes: 1 * gib, ColdBytes: 4 * gib,
	}
}

// TPCHQ6 models TPC-H query 6 (scan-heavy).
func TPCHQ6() Profile {
	return Profile{
		Name: "TPC-H Q6", Acronym: "TPCH-Q6", Category: DSPW, Cores: 16,
		MemRefsPerKiloInstr: 330, StoreFraction: 0.15, BaseCPI: 4.0,
		TargetMPKI: 18, TargetRowHit: 0.27, TargetSingleAccess: 0.78,
		MLPLimit: 1, BurstGapInstr: 5, BurstStoreFraction: 0.3,
		CoreIntensity: balanced,
		HitCalib:      1.9, AccCalib: -0.02,
		HotBytesPerCore: 56 * kib, StreamBytes: 2 * gib, ColdBytes: 4 * gib,
	}
}

// TPCHQ17 models TPC-H query 17 (join-heavy).
func TPCHQ17() Profile {
	return Profile{
		Name: "TPC-H Q17", Acronym: "TPCH-Q17", Category: DSPW, Cores: 16,
		MemRefsPerKiloInstr: 330, StoreFraction: 0.20, BaseCPI: 3.8,
		TargetMPKI: 20, TargetRowHit: 0.28, TargetSingleAccess: 0.77,
		MLPLimit: 1, BurstGapInstr: 5, BurstStoreFraction: 0.3,
		CoreIntensity: balanced,
		HitCalib:      1.8, AccCalib: -0.02,
		HotBytesPerCore: 56 * kib, StreamBytes: 1 * gib, ColdBytes: 4 * gib,
	}
}

// MemoryHog is a synthetic adversary profile for colocation studies,
// modeled on the bank/row-conflict attacker of Zhang et al. (Memory
// DoS Attacks in Multi-tenant Clouds): every core floods the memory
// system with cache-missing references scattered over a large region,
// so almost every access activates a fresh row and conflicts with
// whatever its neighbors keep open. Low BaseCPI and a deep MLP window
// make the flood as dense as the in-order pipeline allows. It is not
// part of the paper's Table 1 and is excluded from All().
func MemoryHog() Profile {
	return Profile{
		Name: "Memory Hog", Acronym: "HOG", Category: ADVW, Cores: 16,
		MemRefsPerKiloInstr: 500, StoreFraction: 0.50, BaseCPI: 1.0,
		TargetMPKI: 60, TargetRowHit: 0.05, TargetSingleAccess: 0.90,
		MLPLimit: 8, BurstGapInstr: 0, BurstStoreFraction: 0.5,
		CoreIntensity: balanced,
		HitCalib:      1.0, AccCalib: 0.01,
		HotBytesPerCore: 4 * kib, StreamBytes: 64 * mib, ColdBytes: 2 * gib,
	}
}

// WithCores returns a copy of p resized to n cores, with the acronym
// re-labelled ("DS" becomes "DS-256c") so study cells and benchmark
// names stay self-describing. It is the constructor behind the
// large-machine scaling profiles: the 256-1024-core multi-channel
// configs. Per-core regions (hot bytes, intensity pattern) keep
// their per-core meaning; the intensity pattern tiles across the
// larger core count exactly as the generator already tiles it.
func (p Profile) WithCores(n int) Profile {
	out := p
	out.Cores = n
	out.Acronym = fmt.Sprintf("%s-%dc", p.Acronym, n)
	out.Name = fmt.Sprintf("%s (%d cores)", p.Name, n)
	return out
}

// DataServing256 is the 256-core scaling profile: the Table 1 data
// store resized to the ROADMAP's large-machine regime. Pair it with
// an 8-channel Config — 32 cores per channel, the same pressure ratio
// as the paper's 16-core/1-channel baseline — for the large-machine
// benchmarks.
func DataServing256() Profile {
	return DataServing().WithCores(256)
}

// table1 and lookup are built once; the per-call constructors above
// stay the source of truth. Profiles are treated as immutable by every
// caller (their slice fields are shared, as `balanced` already is).
var (
	table1 = []Profile{
		DataServing(), MapReduce(), SATSolver(), WebFrontend(), WebSearch(), MediaStreaming(),
		SPECweb99(), TPCC1(), TPCC2(),
		TPCHQ2(), TPCHQ6(), TPCHQ17(),
	}
	// lookup extends Table 1 with the synthetic profiles resolvable by
	// acronym but excluded from the paper's grids.
	lookup = append(append([]Profile{}, table1...), MemoryHog())
)

// All returns the twelve workloads in the paper's Table 1 order.
func All() []Profile {
	return append([]Profile(nil), table1...)
}

// ByCategory returns the workloads of one category, in table order.
func ByCategory(c Category) []Profile {
	var out []Profile
	for _, p := range table1 {
		if p.Category == c {
			out = append(out, p)
		}
	}
	return out
}

// ByAcronym finds a workload by its acronym (Table 1 plus the
// synthetic colocation profiles), matching case-insensitively.
func ByAcronym(acr string) (Profile, error) {
	for _, p := range lookup {
		if strings.EqualFold(p.Acronym, acr) {
			return p, nil
		}
	}
	valid := make([]string, len(lookup))
	for i, p := range lookup {
		valid[i] = p.Acronym
	}
	return Profile{}, fmt.Errorf("workload: unknown acronym %q (valid: %s)",
		acr, strings.Join(valid, ", "))
}
