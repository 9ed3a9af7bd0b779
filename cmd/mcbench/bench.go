package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"cloudmc/internal/core"
	"cloudmc/internal/obs"
)

// reps is the number of identical timed jobs one run makes. Each chunk
// of the measure window is timed once per job and its fastest time
// kept, and wall_s is the fastest job: host interference (other tenants
// of the machine) only ever adds time, and it comes in bursts of
// seconds that rarely cover the same chunk in every job. setup_s is the
// median over the jobs.
const reps = 7

// profileHz is the traced pass's CPU sampling rate.
const profileHz = 1000

// workloadResult is everything one run of one workload measured.
type workloadResult struct {
	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// WarmupCycles and MeasureCycles size each timed job.
	WarmupCycles  uint64             `json:"warmup_cycles"`
	MeasureCycles uint64             `json:"measure_cycles"`
	Metrics       map[string]float64 `json:"metrics"`
	Layers        map[string]float64 `json:"layers,omitempty"`
	Counters      map[string]float64 `json:"counters"`
	// Fingerprint hashes the timed jobs' exact core.Metrics and Golden
	// the seed-1 check window's; both repeat exactly for the same code.
	Fingerprint string `json:"fingerprint"`
	Golden      string `json:"golden"`
	// spans and profiles are the traced pass's trace, written by
	// -trace-dir.
	spans    []span
	profiles [][]byte
}

// runner counts one workload's operations: a timed job, an output check
// or a layer probe. An operation that returns an error or panics
// counts as failed.
type runner struct {
	res workloadResult
}

// op runs f as one operation and reports whether it succeeded.
func (r *runner) op(name string, f func() error) bool {
	r.res.Attempted++
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return f()
	}()
	if err != nil {
		r.res.Failed++
		r.res.Failures = append(r.res.Failures, name+": "+err.Error())
		return false
	}
	return true
}

// runWorkload measures one workload: reps untraced timed jobs, then the
// output checks, and with trace the traced pass and the layer probes.
func runWorkload(def workloadDef, seed uint64, seconds float64, trace bool) workloadResult {
	cfg := def.runConfig(seed, seconds)
	r := &runner{res: workloadResult{
		Name:          def.name,
		WarmupCycles:  cfg.WarmupCycles,
		MeasureCycles: cfg.MeasureCycles,
		Metrics:       map[string]float64{},
	}}

	var jobs []jobResult
	for i := 0; i < reps; i++ {
		r.op("timed job", func() error {
			j, err := runJob(cfg, nil)
			if err != nil {
				return err
			}
			if len(jobs) > 0 && j.fingerprint != jobs[0].fingerprint {
				return errors.New("the job's metrics differ from the first job's")
			}
			jobs = append(jobs, j)
			return nil
		})
	}
	if len(jobs) > 0 {
		// Read before the checks run: Maxrss is a high-water mark.
		r.res.Metrics["peak_rss_mib"] = peakRSSMiB()
		jobMetrics(jobs, r.res.Metrics)
		r.res.Counters = jobs[0].counters
		r.res.Fingerprint = jobs[0].fingerprint
	}

	var tr *tracer
	if trace {
		tr = newTracer(def.name)
	}
	root := tr.begin("workload")
	chk := r.checks(def, seed, tr)
	if trace {
		r.traced(def, cfg, jobs, chk, tr)
	}
	tr.end(root, 1)
	r.res.spans = tr.finish()
	return r.res
}

// jobResult is one timed job of a workload.
type jobResult struct {
	cycles uint64
	setup  time.Duration // NewSystem + FunctionalWarmup
	wall   time.Duration // NewSystem through the end of the measure window
	cpu    time.Duration // process user+sys CPU in the measure window
	// chunkNs and chunkCPU are each chunk's host wall and CPU time.
	chunkNs, chunkCPU []float64
	allocBytes        uint64
	counters          map[string]float64
	fingerprint       string
	// profile is the CPU profile of the measure window (traced jobs).
	profile []byte
}

// jobMetrics stores the end-to-end metrics of a run's jobs in dst (see
// reps for how the jobs are combined).
func jobMetrics(jobs []jobResult, dst map[string]float64) {
	cycles := float64(jobs[0].cycles)
	chunkCycles := cycles / chunks
	var wall, cpu float64
	perCycle := make([]float64, chunks)
	for i := range perCycle {
		w, c := jobs[0].chunkNs[i], jobs[0].chunkCPU[i]
		for _, j := range jobs[1:] {
			w, c = min(w, j.chunkNs[i]), min(c, j.chunkCPU[i])
		}
		wall += w
		cpu += c
		perCycle[i] = w / chunkCycles
	}
	var setups, walls, allocs []float64
	for _, j := range jobs {
		setups = append(setups, j.setup.Seconds())
		walls = append(walls, j.wall.Seconds())
		allocs = append(allocs, float64(j.allocBytes))
	}
	dst["sim_cycles_per_s"] = cycles / (wall / 1e9)
	dst["ns_per_cycle_p50"] = quantile(perCycle, 0.50)
	dst["ns_per_cycle_p95"] = quantile(perCycle, 0.95)
	dst["cpu_ns_per_cycle"] = cpu / cycles
	dst["wall_s"] = slices.Min(walls)
	dst["setup_s"] = median(setups)
	dst["alloc_bytes_per_kcycle"] = median(allocs) / (cycles / 1000)
}

// runJob builds, warms and runs one system the way a user's run does
// (NewSystem, FunctionalWarmup, the timed warmup, then Run for the
// measure window), timing the window in equal chunks. With a tracer it
// also records spans and a CPU profile of the measure window.
func runJob(cfg core.Config, tr *tracer) (jobResult, error) {
	j := jobResult{cycles: cfg.MeasureCycles}
	start := time.Now()
	sp := tr.begin("setup.new_system")
	sys, err := core.NewSystem(cfg)
	tr.end(sp, 1)
	if err != nil {
		return j, err
	}
	sp = tr.begin("setup.functional_warmup")
	sys.FunctionalWarmup(cfg.WarmupInstrPerCore)
	tr.end(sp, 1)
	j.setup = time.Since(start)
	sp = tr.begin("run.warmup")
	sys.Advance(cfg.WarmupCycles)
	tr.end(sp, 1)

	// Run resets the statistics at the warmup boundary and advances the
	// measure window chunk by chunk, stopping at each of the recorder's
	// interval boundaries; the clock sink timestamps every one.
	// Chunked advances are bit-identical to one long advance.
	clock := &chunkClock{tr: tr, wall: make([]float64, 0, chunks), cpu: make([]float64, 0, chunks)}
	rec := obs.NewRecorder("mcbench", cfg.MeasureCycles/chunks, clock)
	sys.AttachRecorder(rec)
	var prof bytes.Buffer
	if tr != nil {
		// StartCPUProfile samples at 100 Hz, too coarse for the small
		// layers. A rate set first wins; the runtime then prints one
		// "cannot set cpu profile rate" warning to stderr.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return j, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp = tr.begin("run.measure")
	cpu0 := cpuTime()
	clock.last, clock.lastCPU = time.Now(), cpu0
	m := sys.Run()
	j.wall = time.Since(start)
	tr.end(sp, chunks)
	j.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	if tr != nil {
		pprof.StopCPUProfile()
		j.profile = prof.Bytes()
	}
	j.chunkNs, j.chunkCPU = clock.wall, clock.cpu
	j.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if len(j.chunkNs) != chunks {
		return j, fmt.Errorf("timed %d chunks, want %d", len(j.chunkNs), chunks)
	}
	if m.Cycles != cfg.MeasureCycles || m.Retired == 0 || m.ReadsServed == 0 {
		return j, errors.New("the measure window retired no instructions or served no reads")
	}
	j.counters = counters(sys, m, rec.Samples())
	j.fingerprint = fingerprint(flatten(m))
	return j, nil
}

// chunkClock is the recorder sink that times the measure window: the
// system hands it a sample at every chunk boundary.
type chunkClock struct {
	tr        *tracer
	last      time.Time
	lastCPU   time.Duration
	wall, cpu []float64 // each chunk's host wall and CPU ns
}

// Emit implements obs.Sink.
func (c *chunkClock) Emit(s *obs.Sample) error {
	now, cpu := time.Now(), cpuTime()
	c.wall = append(c.wall, float64(now.Sub(c.last).Nanoseconds()))
	c.cpu = append(c.cpu, float64((cpu - c.lastCPU).Nanoseconds()))
	c.tr.record("run.measure.chunk", c.last, now, int(s.Cycles))
	c.last, c.lastCPU = now, cpu
	return nil
}

// Flush implements obs.Sink.
func (c *chunkClock) Flush() error { return nil }

// counters derives the simulated per-layer statistics of a finished
// run's measure window.
func counters(sys *core.System, m core.Metrics, samples []obs.Sample) map[string]float64 {
	var stallLoad, stallStore uint64
	var mshr float64
	for _, s := range samples {
		stallLoad += s.StallLoad
		stallStore += s.StallStore
		mshr += float64(s.MSHR)
	}
	var parks, wakes, failures, p99 uint64
	for _, ctl := range sys.Controllers() {
		st := &ctl.Stats
		parks += st.Parks
		wakes += st.Wakes
		failures += st.EnqueueFailures
		p99 = max(p99, st.ReadLatency.Quantile(0.99))
	}
	kcycles := float64(m.Cycles) / 1000
	coreCycles := float64(m.Cycles) * float64(len(m.PerCoreIPC))
	return map[string]float64{
		"cpu.ipc":                             m.UserIPC,
		"cpu.stall_load_frac":                 float64(stallLoad) / coreCycles,
		"cpu.stall_store_frac":                float64(stallStore) / coreCycles,
		"cache.l2_mpki":                       m.MPKI,
		"core.mshr_mean":                      mshr / float64(len(samples)),
		"memctrl.read_latency_mean":           m.AvgReadLatency,
		"memctrl.read_latency_p99":            float64(p99),
		"memctrl.read_q_mean":                 m.AvgReadQ,
		"memctrl.write_q_mean":                m.AvgWriteQ,
		"memctrl.parks_per_kcycle":            float64(parks) / kcycles,
		"memctrl.wakes_per_kcycle":            float64(wakes) / kcycles,
		"memctrl.enqueue_failures_per_kcycle": float64(failures) / kcycles,
		"memctrl.forwarded_frac":              ratio(m.ForwardedReads, m.ReadsServed),
		"pagepolicy.policy_close_frac":        ratio(m.PolicyCloses, m.PolicyCloses+m.ConflictCloses),
		"dram.row_hit_rate":                   m.RowHitRate,
		"dram.single_access_frac":             m.SingleAccessFrac,
		"dram.bw_util":                        m.BandwidthUtil,
		"dram.activates_per_kcycle":           float64(m.Activates) / kcycles,
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median returns the middle value, or the mean of the two middle ones.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad argument fails, and these are fixed
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad argument fails, and these are fixed
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
