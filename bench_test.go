// Package cloudmc_test hosts the benchmark harness: one benchmark per
// table and figure in the paper's evaluation (§4), plus ablation
// benches for the simulator's modeling choices. Each BenchmarkFigureNN
// regenerates its artifact at a reduced scale; cmd/mcfigures produces
// the full-scale figures.
//
// Run a single figure with e.g.:
//
//	go test -bench BenchmarkFigure01 -benchtime 1x
package cloudmc_test

import (
	"io"
	"sync"
	"testing"

	"cloudmc/internal/core"
	"cloudmc/internal/dram"
	"cloudmc/internal/experiment"
	"cloudmc/internal/memctrl"
	"cloudmc/internal/obs"
	"cloudmc/internal/pagepolicy"
	"cloudmc/internal/sched"
	"cloudmc/internal/workload"
)

// benchConfig is smaller than experiment.Quick so the whole harness
// stays minutes, not hours, on a laptop.
func benchConfig() experiment.Config {
	return experiment.Config{
		MeasureCycles: 60_000,
		WarmupCycles:  15_000,
		Seed:          1,
	}
}

// sharedStudy memoizes simulations across benchmarks in one `go test`
// invocation: Figures 1-7 share the scheduler grid, 9-11 the page
// grid, 12-14 and Table 4 the channel grid.
var (
	studyOnce sync.Once
	study     *experiment.Study
)

func sharedStudyInstance() *experiment.Study {
	studyOnce.Do(func() { study = experiment.NewStudy(benchConfig()) })
	return study
}

// tableSink prevents dead-code elimination of table construction.
var tableSink *experiment.Table

func benchTable(b *testing.B, build func(*experiment.Study) *experiment.Table) {
	b.Helper()
	s := sharedStudyInstance()
	for i := 0; i < b.N; i++ {
		tableSink = build(s)
	}
	if tableSink == nil || len(tableSink.Rows) == 0 {
		b.Fatal("empty table")
	}
}

// BenchmarkFigure01UserIPC regenerates Figure 1 (user IPC by
// scheduler, normalized to FR-FCFS).
func BenchmarkFigure01UserIPC(b *testing.B) {
	benchTable(b, func(s *experiment.Study) *experiment.Table { return s.Figure01() })
}

// BenchmarkFigure02RowHitRate regenerates Figure 2 (row-buffer hit
// rate by scheduler).
func BenchmarkFigure02RowHitRate(b *testing.B) {
	benchTable(b, func(s *experiment.Study) *experiment.Table { return s.Figure02() })
}

// BenchmarkFigure03MemLatency regenerates Figure 3 (normalized average
// memory access latency by scheduler).
func BenchmarkFigure03MemLatency(b *testing.B) {
	benchTable(b, func(s *experiment.Study) *experiment.Table { return s.Figure03() })
}

// BenchmarkFigure04MPKI regenerates Figure 4 (L2 MPKI by scheduler).
func BenchmarkFigure04MPKI(b *testing.B) {
	benchTable(b, func(s *experiment.Study) *experiment.Table { return s.Figure04() })
}

// BenchmarkFigure05ReadQueue regenerates Figure 5 (average read queue
// length).
func BenchmarkFigure05ReadQueue(b *testing.B) {
	benchTable(b, func(s *experiment.Study) *experiment.Table { return s.Figure05() })
}

// BenchmarkFigure06WriteQueue regenerates Figure 6 (average write
// queue length).
func BenchmarkFigure06WriteQueue(b *testing.B) {
	benchTable(b, func(s *experiment.Study) *experiment.Table { return s.Figure06() })
}

// BenchmarkFigure07Bandwidth regenerates Figure 7 (memory bandwidth
// utilization).
func BenchmarkFigure07Bandwidth(b *testing.B) {
	benchTable(b, func(s *experiment.Study) *experiment.Table { return s.Figure07() })
}

// BenchmarkFigure08SingleAccess regenerates Figure 8 (single-access
// row-buffer activation percentage under OAPM).
func BenchmarkFigure08SingleAccess(b *testing.B) {
	benchTable(b, func(s *experiment.Study) *experiment.Table { return s.Figure08() })
}

// BenchmarkFigure09PagePolicyHits regenerates Figure 9 (row-buffer hit
// rate by page policy, normalized to OAPM).
func BenchmarkFigure09PagePolicyHits(b *testing.B) {
	benchTable(b, func(s *experiment.Study) *experiment.Table { return s.Figure09() })
}

// BenchmarkFigure10PagePolicyLatency regenerates Figure 10 (memory
// latency by page policy).
func BenchmarkFigure10PagePolicyLatency(b *testing.B) {
	benchTable(b, func(s *experiment.Study) *experiment.Table { return s.Figure10() })
}

// BenchmarkFigure11PagePolicyIPC regenerates Figure 11 (user IPC by
// page policy).
func BenchmarkFigure11PagePolicyIPC(b *testing.B) {
	benchTable(b, func(s *experiment.Study) *experiment.Table { return s.Figure11() })
}

// BenchmarkFigure12Channels regenerates Figure 12 (user IPC vs channel
// count, best mapping per workload).
func BenchmarkFigure12Channels(b *testing.B) {
	benchTable(b, func(s *experiment.Study) *experiment.Table { return s.Figure12() })
}

// BenchmarkFigure13ChannelHits regenerates Figure 13 (row-buffer hit
// rate vs channel count).
func BenchmarkFigure13ChannelHits(b *testing.B) {
	benchTable(b, func(s *experiment.Study) *experiment.Table { return s.Figure13() })
}

// BenchmarkFigure14ChannelLatency regenerates Figure 14 (memory access
// latency vs channel count).
func BenchmarkFigure14ChannelLatency(b *testing.B) {
	benchTable(b, func(s *experiment.Study) *experiment.Table { return s.Figure14() })
}

// BenchmarkTable04AddressMapping regenerates Table 4 (best mapping
// scheme per workload at 2 and 4 channels).
func BenchmarkTable04AddressMapping(b *testing.B) {
	benchTable(b, func(s *experiment.Study) *experiment.Table { return s.Table4() })
}

// --- Ablation benches: the modeling choices behind the figures ----

// metricsSink keeps ablation results alive.
var metricsSink core.Metrics

func runOnce(b *testing.B, mutate func(*core.Config)) core.Metrics {
	b.Helper()
	cfg := core.DefaultConfig(workload.TPCHQ6())
	cfg.MeasureCycles = 80_000
	cfg.WarmupCycles = 20_000
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys.Run()
}

// BenchmarkAblationWriteDrain sweeps the write-drain watermarks — the
// mechanism behind Figure 6's scheduler differences.
func BenchmarkAblationWriteDrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, hi := range []int{16, 32, 48} {
			hi := hi
			m := runOnce(b, func(c *core.Config) {
				c.MC.WriteHi = hi
				c.MC.WriteLo = hi / 4
			})
			metricsSink = m
			b.ReportMetric(m.UserIPC, "ipc_hi"+itoa(hi))
		}
	}
}

// BenchmarkAblationQueueCapacity sweeps the read-queue capacity,
// supporting §4.1.3's finding that short queues suffice.
func BenchmarkAblationQueueCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cap := range []int{8, 16, 64} {
			cap := cap
			m := runOnce(b, func(c *core.Config) { c.MC.ReadQueueCap = cap })
			metricsSink = m
			b.ReportMetric(m.UserIPC, "ipc_rq"+itoa(cap))
		}
	}
}

// BenchmarkAblationMLP sweeps the per-core MLP limit on a
// decision-support profile, supporting §4.1.2's latency-sensitivity
// argument.
func BenchmarkAblationMLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mlp := range []int{1, 3, 6} {
			mlp := mlp
			m := runOnce(b, func(c *core.Config) { c.Profile.MLPLimit = mlp })
			metricsSink = m
			b.ReportMetric(m.UserIPC, "ipc_mlp"+itoa(mlp))
		}
	}
}

// BenchmarkAblationBatchCap sweeps PAR-BS's batching cap (Table 3).
func BenchmarkAblationBatchCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cap := range []int{1, 5, 16} {
			cap := cap
			m := runOnce(b, func(c *core.Config) {
				c.Scheduler = sched.PARBS
				c.SchedOpts.PARBS = sched.PARBSConfig{BatchingCap: cap}
			})
			metricsSink = m
			b.ReportMetric(m.UserIPC, "ipc_cap"+itoa(cap))
		}
	}
}

// BenchmarkAblationATLASScanDepth sweeps the ATLAS scan window, one of
// the ATLAS settings the study compresses to its short measurement
// windows (experiment.Study.applyStudyConfig).
func BenchmarkAblationATLASScanDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, depth := range []int{1, 2, 8} {
			depth := depth
			cfg := core.DefaultConfig(workload.MapReduce())
			cfg.MeasureCycles = 80_000
			cfg.WarmupCycles = 20_000
			cfg.Scheduler = sched.ATLAS
			cfg.SchedOpts.ATLAS = sched.ATLASConfig{
				QuantumCycles: 8_000, Alpha: 0.875,
				StarvationThreshold: 1_000, ScanDepth: depth,
			}
			sys, err := core.NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			m := sys.Run()
			metricsSink = m
			b.ReportMetric(m.UserIPC, "ipc_scan"+itoa(depth))
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (ns per
// simulated cycle) per workload under the two execution modes: ff=off
// (naive per-cycle loop) and ff=on (the event kernel, the default).
// The 64-core profile is the regime the kernel exists for, where most
// cores and controllers sit parked on any given cycle. WH
// (write-heavy) and BC (high bank-conflict) pin the park-heavy regime
// the controller park horizons optimize: drain shadows and
// precharge/tFAW stalls, where controllers spend most cycles parked
// and each enqueue wakes one for a full tick that parks it again.
func BenchmarkSimulatorThroughput(b *testing.B) {
	ds64 := workload.DataServing()
	ds64.Cores = 64
	ds64.Acronym = "DS-64c"
	wh := workload.MapReduce()
	wh.StoreFraction = 0.6
	wh.BurstStoreFraction = 0.7
	wh.Acronym = "WH"
	bc := workload.DataServing()
	bc.TargetRowHit = 0.05 // nearly every access conflicts: ACT/PRE bound
	bc.MLPLimit = 4
	bc.Acronym = "BC"
	profiles := []workload.Profile{
		workload.DataServing(),
		workload.SATSolver(),
		workload.WebSearch(),
		workload.TPCHQ6(),
		ds64,
		wh,
		bc,
	}
	modes := []struct {
		name        string
		fastForward bool
	}{
		{"ff=off", false},
		{"ff=on", true},
	}
	for _, p := range profiles {
		for _, mode := range modes {
			b.Run(p.Acronym+"/"+mode.name, func(b *testing.B) {
				cfg := core.DefaultConfig(p)
				cfg.FastForward = mode.fastForward
				sys, err := core.NewSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				sys.FunctionalWarmup(0)
				b.ResetTimer()
				sys.Advance(uint64(b.N))
			})
		}
	}

	// Deep-queue variant: the 256-core 8-channel profile with the MSHR
	// cap lifted far above the default and the per-controller queues
	// widened to match, so the controllers actually run with long
	// resident queues instead of convoying on miss slots. This is the
	// regime the incremental candidate-group index exists for — the
	// per-tick option build used to be O(queue) here — and the profile
	// the bench gate watches for the O(changes) claim at system level.
	deep := workload.DataServing256()
	deep.Acronym = "DS-256c-deep"
	b.Run(deep.Acronym+"/ch8", func(b *testing.B) {
		cfg := core.DefaultConfig(deep)
		cfg.Channels = 8
		cfg.MSHRCap = 1024
		cfg.MC.ReadQueueCap = 256
		cfg.MC.WriteQueueCap = 256
		sys, err := core.NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sys.FunctionalWarmup(0)
		b.ResetTimer()
		sys.Advance(uint64(b.N))
	})
}

// BenchmarkObsOverhead measures the cost of the observability stack
// on the default event-kernel loop: obs=off is the baseline one-nil-
// check fast path, obs=rec attaches an interval recorder with a JSONL
// sink, and obs=rec+trace adds per-command tracing (the worst case:
// one callback per DRAM command issued). The off/rec ratio is the
// number the "zero overhead when off" claim is judged by; the CI
// bench gate only watches BenchmarkSimulatorThroughput, so this
// benchmark reports without gating.
func BenchmarkObsOverhead(b *testing.B) {
	variants := []struct {
		name     string
		recorder bool
		trace    bool
	}{
		{"obs=off", false, false},
		{"obs=rec", true, false},
		{"obs=rec+trace", true, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := core.DefaultConfig(workload.DataServing())
			sys, err := core.NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if v.recorder {
				sys.AttachRecorder(obs.NewRecorder("bench", 10_000, obs.NewJSONLSink(io.Discard)))
			}
			if v.trace {
				sys.AttachTrace(obs.NewTraceWriter(io.Discard, "bench"))
			}
			sys.FunctionalWarmup(0)
			b.ResetTimer()
			sys.Advance(uint64(b.N))
		})
	}
}

// BenchmarkControllerParkReArm times the enqueue into a parked
// controller and the wake tick that parks it again, without the
// core/cache simulation that dominates the system benchmarks: a
// controller parked mid-write-drain (the next precharge is in the tWR
// shadow, a ~20-cycle window with a known future horizon) receives a
// burst of read enqueues, each followed by the tick the kernel step
// would run. Each enqueue files its request into its candidate group,
// at O(groups in its bank), and ends the park; the full tick builds no
// option (reads wait out the drain) and re-parks through idleHorizon.
// Each timed op is one enqueue plus that tick. It is the one 0
// allocs/op pin on idleHorizon, since BenchmarkBuildOptions never
// parks.
func BenchmarkControllerParkReArm(b *testing.B) {
	geo := dram.Geometry{Channels: 1, Ranks: 2, Banks: 8, Rows: 1 << 12, Columns: 64, BlockBytes: 64}
	src := memctrl.Source{Core: 1, Tenant: -1}
	// build returns a controller parked inside a drain shadow: 42
	// same-bank conflicting writes engage drain mode, and after the
	// first column access the next precharge must wait out tWR.
	build := func() (*memctrl.Controller, uint64) {
		ch := dram.NewChannel(0, geo, dram.DDR3_1600())
		pol := sched.NewFactoryOpts(sched.FRFCFS, sched.Opts{Cores: 16})(0)
		ctl, err := memctrl.New(memctrl.DefaultConfig(), ch, pol, pagepolicy.NewOpenAdaptive())
		if err != nil {
			b.Fatal(err)
		}
		ctl.SetFastForward(true)
		for i := 0; i < 42; i++ {
			loc := dram.Location{Channel: 0, Rank: 0, Bank: i % 2, Row: i, Column: 3}
			ctl.EnqueueWrite(0, src, uint64(1)<<40|uint64(i)<<8, loc, nil)
		}
		for now := uint64(0); ; now++ {
			if w := ctl.NextEvent(now); w > now+1 {
				return ctl, now
			}
			ctl.Tick(now)
		}
	}
	// One controller serves every burst: between bursts (untimed) the
	// queues drain so every request recycles through the free list,
	// then the same 42-write pattern re-engages the drain shadow. After
	// the priming cycle below, the timed enqueues pop recycled requests
	// instead of minting them — the steady state the CI alloc gate pins
	// at exactly 0 allocs/op.
	b.StopTimer()
	ctl, now := build()
	repark := func(now uint64) uint64 {
		for ctl.Pending() > 0 {
			ctl.Tick(now)
			now++
		}
		for i := 0; i < 42; i++ {
			loc := dram.Location{Channel: 0, Rank: 0, Bank: i % 2, Row: i, Column: 3}
			ctl.EnqueueWrite(now, src, uint64(1)<<40|uint64(i)<<8, loc, nil)
		}
		for {
			if w := ctl.NextEvent(now); w > now+1 {
				return now
			}
			ctl.Tick(now)
			now++
		}
	}
	// Prime the free list with one full untimed burst-and-drain cycle.
	for j := 0; j < 48; j++ {
		loc := dram.Location{Channel: 0, Rank: 1, Bank: j % 8, Row: 100 + j, Column: 1}
		ctl.EnqueueRead(now, src, uint64(3)<<40|uint64(j)<<8, loc, memctrl.ReadDemand, nil)
	}
	now = repark(now)
	i := 0
	for i < b.N {
		b.StartTimer()
		// Up to 48 read enqueues land in the parked cycle (well under
		// the read-queue cap); reads are invisible during the drain, so
		// each wake tick parks again at the same horizon.
		for j := 0; j < 48 && i < b.N; j, i = j+1, i+1 {
			loc := dram.Location{Channel: 0, Rank: 1, Bank: j % 8, Row: 100 + j, Column: 1}
			ctl.EnqueueRead(now, src, uint64(2)<<40|uint64(i)<<8, loc, memctrl.ReadDemand, nil)
			if w := ctl.NextEvent(now); w <= now {
				ctl.Tick(now)
			}
		}
		b.StopTimer()
		now = repark(now)
	}
	b.StartTimer()
}

// BenchmarkBuildOptions isolates the busy-path option builder: a
// controller with a standing read queue ticks, issuing one command per
// cycle while enqueues keep the queue at a fixed depth — the
// steady-state busy regime where the per-tick candidate grouping
// dominates. q48 fits the default queue caps; q224 is the deep-queue
// (hyperscale) variant: the build walks every live candidate group,
// though the queue changes by one dequeue plus one enqueue per tick
// and most groups skip on their earliest-issue memo. Both run FR-FCFS. atlas-q48 and qos-q48 run the
// rank-ordered schedulers instead, per core and per tenant, with
// requests spread over 16 cores and 4 tenants and a short quantum, so
// every pick scans the queue under ranks that change as service
// accrues. Requests spread over every bank with a few rows per bank,
// so the option set holds a realistic mix of activates, row hits and
// conflicts. drain-q224 is q224's write-drain twin: a standing write
// queue of 224 filled to WriteHi and held above WriteLo, so every tick
// builds in write mode. rl-q48 runs the RL scheduler, which sees reads
// and writes together, over a standing 24 reads and 24 writes, so
// every tick builds in the mixed mode. fcfs-q48 runs FCFS_Banks over
// q48's standing 48 reads, so every pick checks its options' requests
// against the read queue for an older request to the same bank.
// allocs/op is reported: the steady-state busy path, scheduler
// included, is expected to run allocation-free.
func BenchmarkBuildOptions(b *testing.B) {
	geo := dram.Geometry{Channels: 1, Ranks: 4, Banks: 8, Rows: 1 << 14, Columns: 64, BlockBytes: 64}
	atlas := sched.DefaultATLASConfig()
	atlas.QuantumCycles = 5_000
	qos := sched.DefaultQoSConfig()
	qos.QuantumCycles = 5_000
	for _, bc := range []struct {
		name   string
		depth  int
		kind   sched.Kind
		opts   sched.Opts
		spread bool // sources vary over cores and tenants
		writes int  // how many of the standing requests are writes
	}{
		{"q48", 48, sched.FRFCFS, sched.Opts{Cores: 16}, false, 0},
		{"q224", 224, sched.FRFCFS, sched.Opts{Cores: 16}, false, 0},
		{"atlas-q48", 48, sched.ATLAS, sched.Opts{Cores: 16, ATLAS: atlas}, true, 0},
		{"qos-q48", 48, sched.QoS, sched.Opts{Cores: 16, Tenants: 4, QoS: qos}, true, 0},
		{"drain-q224", 224, sched.FRFCFS, sched.Opts{Cores: 16}, false, 224},
		{"rl-q48", 48, sched.RL, sched.Opts{Cores: 16}, false, 24},
		{"fcfs-q48", 48, sched.FCFSBanks, sched.Opts{Cores: 16}, false, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			depth := bc.depth
			cfg := memctrl.DefaultConfig()
			cfg.ReadQueueCap = depth + 16
			cfg.WriteQueueCap = depth + 16
			cfg.WriteHi = depth
			cfg.WriteLo = depth / 4
			ch := dram.NewChannel(0, geo, dram.DDR3_1600())
			pol := sched.NewFactoryOpts(bc.kind, bc.opts)(0)
			ctl, err := memctrl.New(cfg, ch, pol, pagepolicy.NewOpenAdaptive())
			if err != nil {
				b.Fatal(err)
			}
			ctl.SetFastForward(true)
			banks := geo.Ranks * geo.Banks
			seq := 0
			enq := func(now uint64, write bool) bool {
				src := memctrl.Source{Core: 1, Tenant: -1}
				if bc.spread {
					src = memctrl.Source{Core: seq % 16, Tenant: seq % 4}
				}
				loc := dram.Location{
					Channel: 0,
					Rank:    (seq % banks) / geo.Banks,
					Bank:    seq % geo.Banks,
					Row:     (seq / banks) % 4,
					Column:  seq % geo.Columns,
				}
				var ok bool
				if write {
					ok = ctl.EnqueueWrite(now, src, uint64(seq)<<6, loc, nil)
				} else {
					ok = ctl.EnqueueRead(now, src, uint64(seq)<<6, loc, memctrl.ReadDemand, nil)
				}
				if ok {
					seq++
				}
				return ok
			}
			// fill tops both queues up to their standing depths, and
			// reports whether they got there.
			fill := func(now uint64) bool {
				for {
					r, w := ctl.QueueLens()
					switch {
					case w < bc.writes:
						if !enq(now, true) {
							return false
						}
					case r < depth-bc.writes:
						if !enq(now, false) {
							return false
						}
					default:
						return true
					}
				}
			}
			now := uint64(0)
			if !fill(now) {
				b.Fatal("could not pre-fill the queue")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctl.Tick(now)
				now++
				fill(now)
			}
		})
	}
}

// BenchmarkControllerTick measures one controller decision cycle under
// a standing queue.
func BenchmarkControllerTick(b *testing.B) {
	cfg := core.DefaultConfig(workload.TPCHQ17())
	sys, err := core.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys.FunctionalWarmup(0)
	for i := 0; i < 50_000; i++ {
		sys.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
