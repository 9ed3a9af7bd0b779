package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"cloudmc/internal/addrmap"
	"cloudmc/internal/cache"
	"cloudmc/internal/core"
	"cloudmc/internal/dram"
	"cloudmc/internal/memctrl"
	"cloudmc/internal/pagepolicy"
	"cloudmc/internal/sched"
	"cloudmc/internal/tenant"
	"cloudmc/internal/workload"
)

// span is one timed interval of the traced pass, as spans.jsonl holds it.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for the workload's root span
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// Count is the number of calls, commands or cycles the span covers.
	Count  int   `json:"count"`
	SelfNs int64 `json:"self_ns"`
}

// tracer keeps the traced pass's spans in memory. Every method is a
// no-op on a nil tracer, so the untraced path calls them unconditionally.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int // indices of begun, not yet ended spans, innermost last
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span as a child of the innermost open span and returns
// its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.parent(), Workload: t.workload, Name: name, StartNs: t.at(time.Now())})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the innermost open span h and returns its duration.
func (t *tracer) end(h, count int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[h]
	s.EndNs = t.at(time.Now())
	s.Count = count
	t.open = t.open[:len(t.open)-1]
	return time.Duration(s.EndNs - s.StartNs)
}

// record adds a closed span as a child of the innermost open span.
func (t *tracer) record(name string, start, end time.Time, count int) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.parent(), Workload: t.workload, Name: name,
		StartNs: t.at(start), EndNs: t.at(end), Count: count})
}

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return 0
	}
	return t.spans[t.open[len(t.open)-1]].ID
}

func (t *tracer) at(now time.Time) int64 { return now.Sub(t.epoch).Nanoseconds() }

// finish sets each span's self time, its duration minus the part its
// children cover, and returns the spans. Children of one span never
// overlap: the benchmark runs one call at a time.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.EndNs - s.StartNs
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNs = s.EndNs - s.StartNs - covered[s.ID]
	}
	return t.spans
}

// traced runs the traced pass: the timed jobs again, each with spans
// and a CPU profile of its measure window, then the per-call layer
// probes.
func (r *runner) traced(def workloadDef, cfg core.Config, untraced []jobResult, chk checkResult, tr *tracer) {
	layers := map[string]float64{}
	r.res.Layers = layers
	var jobs []jobResult
	for i := 0; i < reps; i++ {
		r.op("traced job", func() error {
			j, err := runJob(cfg, tr)
			if err != nil {
				return err
			}
			if len(untraced) == 0 || j.fingerprint != untraced[0].fingerprint {
				return errors.New("the traced job's metrics differ from the untraced jobs'")
			}
			jobs = append(jobs, j)
			r.res.profiles = append(r.res.profiles, j.profile)
			return nil
		})
	}
	r.op("profile fold", func() error {
		if len(jobs) == 0 || len(untraced) == 0 {
			return errors.New("no traced and untraced jobs to compare")
		}
		fold := profileFold{ns: map[string]int64{}}
		var cpu, cycles float64
		for _, j := range jobs {
			if err := fold.add(j.profile); err != nil {
				return err
			}
			cpu += float64(j.cpu.Nanoseconds())
			cycles += float64(j.cycles)
		}
		for _, l := range profileLayers {
			layers[l+".self_frac"] = fold.frac(l)
		}
		// The OS may deliver fewer samples than asked for, so only the
		// shares are trusted; the windows' measured CPU time scales them.
		for _, l := range nsLayers {
			layers[l+".self_ns_per_cycle"] = fold.frac(l) * cpu / cycles
		}
		// Both passes combine their jobs the same way (see reps).
		withTrace := map[string]float64{}
		jobMetrics(jobs, withTrace)
		layers["trace_overhead_frac"] = 1 - withTrace["sim_cycles_per_s"]/r.res.Metrics["sim_cycles_per_s"]
		// A short run's handful of samples says nothing about the fold.
		if other := fold.frac("other"); other > 0.05 && fold.samples >= 1000 {
			return fmt.Errorf("%.1f%% of %d profile samples fell outside every layer (limit 5%%)", 100*other, fold.samples)
		}
		return nil
	})
	if chk.kernel > 0 && chk.naive > 0 {
		layers["engine.ff_speedup"] = chk.naive.Seconds() / chk.kernel.Seconds()
	}
	if len(chk.cmds) > 0 && chk.dramReplay > 0 {
		layers["dram.issue_ns"] = perCall(chk.dramReplay, len(chk.cmds))
	}
	r.op("front-end probes", func() error { return probeFrontEnd(cfg, tr, layers) })
	r.op("controller probe", func() error { return probeController(def.checkConfig(cfg.Seed), chk.cmds, tr, layers) })
}

// frontEndOps is the number of instructions each tenant's generator
// emits for the front-end probes.
const frontEndOps = 1_000_000

// decodeSink keeps the decode loop from being optimised away.
var decodeSink int

// probeFrontEnd times the front end's public calls, each batch as one
// span of tr (which must not be nil), on the workload's own instruction
// stream: Generator.Next for each tenant's profile, that stream's
// memory references through a fresh L1 (Access, then Install on a
// miss), the L1 misses through a fresh shared L2 the same way, and
// Mapper.Decode of the L2 misses.
func probeFrontEnd(cfg core.Config, tr *tracer, out map[string]float64) error {
	specs := cfg.Tenants
	if len(specs) == 0 {
		specs = []tenant.Spec{{Profile: cfg.Profile}}
	}
	type ref struct {
		addr  uint64
		write bool
	}
	block := uint64(cfg.L1.BlockBytes)
	l2 := cache.New(cfg.L2)
	var l2Misses []uint64
	var nextT, l1T, l2T time.Duration
	var nextN, l1N, l2N int
	var base uint64
	for _, sp := range specs {
		p := sp.Adjusted()
		layout := workload.NewLayout(p).Shift(base)
		// Tenants sit 1 MiB-aligned one after another, as in core.NewSystem.
		base = (layout.Limit + 1<<20 - 1) &^ (1<<20 - 1)
		gen := workload.NewGenerator(p, layout, 0, cfg.Seed)
		ops := make([]workload.Op, frontEndOps)
		h := tr.begin("layer.workload.next")
		for i := range ops {
			ops[i] = gen.Next()
		}
		nextT += tr.end(h, len(ops))
		nextN += len(ops)

		var refs []ref
		for _, op := range ops {
			if op.Kind != workload.OpNonMem {
				refs = append(refs, ref{op.Addr &^ (block - 1), op.Kind == workload.OpStore})
			}
		}
		l1 := cache.New(cfg.L1)
		l1Misses := make([]uint64, 0, len(refs))
		h = tr.begin("layer.cache.l1_access")
		for _, a := range refs {
			if !l1.Access(a.addr, a.write) {
				l1.Install(a.addr, a.write)
				l1Misses = append(l1Misses, a.addr)
			}
		}
		l1T += tr.end(h, len(refs))
		l1N += len(refs)

		misses := make([]uint64, 0, len(l1Misses))
		h = tr.begin("layer.cache.l2_access")
		for _, a := range l1Misses {
			if !l2.Access(a, false) {
				l2.Install(a, false)
				misses = append(misses, a)
			}
		}
		l2T += tr.end(h, len(l1Misses))
		l2N += len(l1Misses)
		l2Misses = append(l2Misses, misses...)
	}

	mapper, err := addrmap.New(cfg.Mapping, cfg.Geometry.WithChannels(cfg.Channels))
	if err != nil {
		return err
	}
	h := tr.begin("layer.addrmap.decode")
	rows := 0
	for _, a := range l2Misses {
		rows += mapper.Decode(a).Row
	}
	decodeT := tr.end(h, len(l2Misses))
	decodeSink = rows
	if len(l2Misses) == 0 {
		return errors.New("the instruction stream never missed in the L2")
	}
	out["workload.next_ns"] = perCall(nextT, nextN)
	out["cache.l1_access_ns"] = perCall(l1T, l1N)
	out["cache.l2_access_ns"] = perCall(l2T, l2N)
	out["addrmap.decode_ns"] = perCall(decodeT, len(l2Misses))
	return nil
}

// replayReq is one captured column command turned back into a request.
type replayReq struct {
	at    uint64
	write bool
	src   memctrl.Source
	addr  uint64
	loc   dram.Location
}

// drainLimit bounds how long after the last arrival the replay may take
// to serve everything.
const drainLimit = 1_000_000

// probeController replays the captured column commands as requests into
// fresh controllers with the workload's scheduler and page policy: each
// RD or WR is enqueued at its recorded cycle, and the controllers are
// ticked, skipping the cycles they report idle, until every request is
// served. Each batch of enqueues and each Tick is timed, less the cost of
// the clock read itself.
func probeController(cfg core.Config, cmds []tracedCmd, tr *tracer, out map[string]float64) error {
	if len(cmds) == 0 {
		return errors.New("no captured commands to replay")
	}
	geo := cfg.Geometry.WithChannels(cfg.Channels)
	tim := cfg.BusTiming.ScaleFrom(cfg.ClockNum, cfg.ClockDen)
	mapper, err := addrmap.New(cfg.Mapping, geo)
	if err != nil {
		return err
	}
	opts := cfg.SchedOpts
	opts.Seed = cfg.Seed
	opts.Cores = cfg.Profile.Cores
	if len(cfg.Tenants) > 0 {
		opts.Cores = tenant.Mix{Tenants: cfg.Tenants}.TotalCores()
		opts.Tenants = len(cfg.Tenants)
	}
	factory := sched.NewFactoryOpts(cfg.Scheduler, opts)
	ctls := make([]*memctrl.Controller, geo.Channels)
	for ch := range ctls {
		page, ok := pagepolicy.ByName(cfg.PagePolicy)
		if !ok {
			return fmt.Errorf("unknown page policy %q", cfg.PagePolicy)
		}
		ctl, err := memctrl.New(cfg.MC, dram.NewChannel(ch, geo, tim), factory(ch), page)
		if err != nil {
			return err
		}
		ctl.SetFastForward(true)
		if len(cfg.Tenants) > 0 {
			ctl.TrackTenants(len(cfg.Tenants))
		}
		ctls[ch] = ctl
	}
	queues := make([][]replayReq, geo.Channels)
	for _, c := range cmds {
		if c.cmd.Kind.IsColumn() {
			ch := c.cmd.Loc.Channel
			queues[ch] = append(queues[ch], replayReq{
				at: c.at, write: c.cmd.Kind == dram.CmdWrite, loc: c.cmd.Loc,
				src: memctrl.Source{Core: -1, Tenant: c.tenant}, addr: mapper.Encode(c.cmd.Loc),
			})
		}
	}

	clock := clockCost()
	next := make([]int, len(ctls))
	now := cmds[0].at
	limit := cmds[len(cmds)-1].at + drainLimit
	var ticks, enqueues, rejects int
	var tickT, enqT time.Duration
	h := tr.begin("layer.memctrl.replay")
	for {
		wake := uint64(math.MaxUint64)
		for ch, ctl := range ctls {
			q := queues[ch]
			if next[ch] < len(q) && q[next[ch]].at <= now {
				t0 := time.Now()
				for next[ch] < len(q) && q[next[ch]].at <= now {
					enqueues++
					if !enqueue(ctl, q[next[ch]], now) {
						rejects++ // retried next cycle, keeping arrival order
						break
					}
					next[ch]++
				}
				enqT += time.Since(t0) - clock
			}
			if ctl.NextEvent(now) <= now {
				t0 := time.Now()
				ctl.Tick(now)
				tickT += time.Since(t0) - clock
				ticks++
			}
			if next[ch] == len(q) && ctl.Pending() == 0 {
				continue
			}
			w := ctl.NextEvent(now + 1)
			if next[ch] < len(q) {
				w = min(w, max(q[next[ch]].at, now+1))
			}
			wake = min(wake, w)
		}
		if wake == math.MaxUint64 {
			break
		}
		if wake > limit {
			tr.end(h, ticks+enqueues)
			return fmt.Errorf("the replayed requests were not served by cycle %d", limit)
		}
		now = wake
	}
	tr.end(h, ticks+enqueues)
	out["memctrl.tick_ns"] = perCall(tickT, ticks)
	out["memctrl.enqueue_ns"] = perCall(enqT, enqueues)
	out["memctrl.replay_rejects"] = float64(rejects)
	return nil
}

func enqueue(ctl *memctrl.Controller, r replayReq, now uint64) bool {
	if r.write {
		return ctl.EnqueueWrite(now, r.src, r.addr, r.loc, nil)
	}
	return ctl.EnqueueRead(now, r.src, r.addr, r.loc, memctrl.ReadDemand, nil)
}

// clockCost is the median host time of an empty timed span: what a
// timed call pays for reading the clock.
func clockCost() time.Duration {
	d := make([]float64, 1001)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(quantile(d, 0.5))
}

// perCall returns host ns per call.
func perCall(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
