// Command mcsim runs a single simulation of the study's system and
// prints its metrics — the low-level tool behind the figure harness.
//
// Usage:
//
//	mcsim [-workload DS] [-sched FR-FCFS] [-page OpenAdaptive]
//	      [-channels 1] [-map RoRaBaCoCh] [-cycles N] [-warm N]
//	      [-seed N] [-percore] [-ff=false]
//	      [-obs out.jsonl] [-obs-csv out.csv] [-obs-interval N]
//	      [-trace trace.jsonl] [-status :8080]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The observability flags attach the internal/obs stack: -obs and
// -obs-csv stream interval samples (every -obs-interval simulated
// cycles) as JSONL or CSV, -trace streams every DRAM command as
// JSONL, and -status serves live progress plus /debug/pprof over
// HTTP. None of them change simulation results.
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudmc/cmd/internal/monitor"
	"cloudmc/internal/addrmap"
	"cloudmc/internal/core"
	"cloudmc/internal/experiment"
	"cloudmc/internal/obs"
	"cloudmc/internal/sched"
	"cloudmc/internal/workload"
)

func main() {
	wl := flag.String("workload", "DS", "workload acronym (Table 1)")
	schedName := flag.String("sched", "FR-FCFS", "scheduler: FR-FCFS, FCFS_Banks, PAR-BS, ATLAS, RL, QoS")
	page := flag.String("page", "OpenAdaptive", "page policy: Open, Close, OpenAdaptive, CloseAdaptive, RBPP, ABPP")
	channels := flag.Int("channels", 1, "memory channels (1, 2 or 4)")
	mapping := flag.String("map", "RoRaBaCoCh", "address mapping scheme")
	cycles := flag.Uint64("cycles", 1_000_000, "measured cycles")
	warm := flag.Uint64("warm", 100_000, "timed warmup cycles")
	seed := flag.Uint64("seed", 1, "simulation seed")
	perCore := flag.Bool("percore", false, "print per-core IPC")
	ff := flag.Bool("ff", true, "event-horizon fast-forward (off = naive per-cycle loop; metrics are bit-identical)")
	obsPath := flag.String("obs", "", "write interval samples as JSONL to this file")
	obsCSV := flag.String("obs-csv", "", "write interval samples as CSV to this file")
	obsInterval := flag.Uint64("obs-interval", 10_000, "sampling interval in simulated cycles")
	tracePath := flag.String("trace", "", "write per-command DRAM trace as JSONL to this file")
	statusAddr := flag.String("status", "", "serve live /status JSON and /debug/pprof on this address (e.g. :8080)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *obsInterval == 0 {
		die(fmt.Errorf("mcsim: -obs-interval %d must be positive", *obsInterval))
	}
	prof, err := workload.ByAcronym(*wl)
	if err != nil {
		die(err)
	}
	kind, err := sched.ParseKind(*schedName)
	if err != nil {
		die(err)
	}
	scheme, err := addrmap.ParseScheme(*mapping)
	if err != nil {
		die(err)
	}

	cfg := core.DefaultConfig(prof)
	cfg.Scheduler = kind
	cfg.PagePolicy = *page
	cfg.Channels = *channels
	cfg.Mapping = scheme
	cfg.MeasureCycles = *cycles
	cfg.WarmupCycles = *warm
	cfg.Seed = *seed
	cfg.FastForward = *ff
	// Compress the ATLAS and QoS quanta to the measurement window,
	// exactly as the study does.
	experiment.ScaleQuanta(&cfg)

	sys, err := core.NewSystem(cfg)
	if err != nil {
		die(err)
	}

	stopProfiles, err := monitor.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		die(err)
	}

	// Interval recorder: sinks stream samples as they are recorded,
	// so a watcher can tail the files (or hit -status) mid-run. The
	// -status endpoint needs a recorder for progress even when no
	// sample file was requested.
	var rec *obs.Recorder
	var obsFiles []*os.File
	if *obsPath != "" || *obsCSV != "" || *statusAddr != "" {
		var sinks []obs.Sink
		for _, fs := range []struct {
			path string
			mk   func(*os.File) obs.Sink
		}{
			{*obsPath, func(f *os.File) obs.Sink { return obs.NewJSONLSink(f) }},
			{*obsCSV, func(f *os.File) obs.Sink { return obs.NewCSVSink(f) }},
		} {
			if fs.path == "" {
				continue
			}
			f, err := os.Create(fs.path)
			if err != nil {
				die(err)
			}
			obsFiles = append(obsFiles, f)
			sinks = append(sinks, fs.mk(f))
		}
		rec = obs.NewRecorder(prof.Acronym, *obsInterval, sinks...)
		sys.AttachRecorder(rec)
	}

	var tw *obs.TraceWriter
	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			die(err)
		}
		tw = obs.NewTraceWriter(traceFile, prof.Acronym)
		sys.AttachTrace(tw)
	}

	if *statusAddr != "" {
		total := *warm + *cycles
		srv, err := monitor.Start(*statusAddr, func() monitor.Status {
			st := monitor.Status{
				Run:         prof.Acronym,
				Cycle:       rec.LastCycle(),
				TotalCycles: total,
			}
			if s, ok := rec.Latest(); ok {
				st.Sample = &s
			}
			return st
		})
		if err != nil {
			die(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "status: http://%s/status\n", srv.Addr())
	}

	m := sys.Run()

	if rec != nil {
		if err := rec.Flush(); err != nil {
			die(err)
		}
		if err := rec.Err(); err != nil {
			die(err)
		}
	}
	if tw != nil {
		if err := tw.Flush(); err != nil {
			die(err)
		}
		if err := tw.Err(); err != nil {
			die(err)
		}
		if err := traceFile.Close(); err != nil {
			die(err)
		}
	}
	for _, f := range obsFiles {
		if err := f.Close(); err != nil {
			die(err)
		}
	}
	if err := stopProfiles(); err != nil {
		die(err)
	}

	fmt.Printf("workload=%s sched=%s page=%s channels=%d map=%s cycles=%d\n",
		prof.Acronym, kind, cfg.PagePolicy, cfg.Channels, scheme, m.Cycles)
	fmt.Printf("  user IPC:          %.4f\n", m.UserIPC)
	fmt.Printf("  mem latency:       %.1f cycles\n", m.AvgReadLatency)
	fmt.Printf("  row hit rate:      %.1f%% (hits %d, misses %d, conflicts %d)\n",
		100*m.RowHitRate, m.RowHits, m.RowMisses, m.RowConflicts)
	fmt.Printf("  L2 MPKI:           %.2f\n", m.MPKI)
	fmt.Printf("  read/write queue:  %.2f / %.2f\n", m.AvgReadQ, m.AvgWriteQ)
	fmt.Printf("  bandwidth:         %.1f%%\n", 100*m.BandwidthUtil)
	fmt.Printf("  1-access rows:     %.1f%%\n", 100*m.SingleAccessFrac)
	fmt.Printf("  reads/writes:      %d / %d (forwarded %d)\n",
		m.ReadsServed, m.WritesServed, m.ForwardedReads)
	fmt.Printf("  activates:         %d (policy closes %d, conflict closes %d)\n",
		m.Activates, m.PolicyCloses, m.ConflictCloses)
	fmt.Printf("  fairness:          %.2f (min/max per-core IPC)\n", m.IPCDisparity())
	if *perCore {
		for i, v := range m.PerCoreIPC {
			fmt.Printf("  core %2d IPC: %.4f\n", i, v)
		}
	}
}
