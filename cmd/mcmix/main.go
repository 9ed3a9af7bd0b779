// Command mcmix sweeps multi-tenant colocation mixes across memory
// schedulers, channel counts and isolation modes and prints the
// fairness study: per-tenant slowdown versus running alone, weighted
// speedup, harmonic speedup, and maximum slowdown. Solo baselines are
// memoized and shared across mixes and isolation cells, so a full
// sweep costs far fewer simulations than mixes x tenants x cells.
//
// Usage:
//
//	mcmix [-mixes all|NAME,...] [-gen N] [-mixsize K]
//	      [-scheds FR-FCFS,ATLAS] [-channels 1]
//	      [-isolation none|banks|ways|banks+ways,...] [-slo 2.0]
//	      [-cycles N] [-warm N] [-seed N] [-list] [-detail]
//	      [-progress] [-obs out.jsonl] [-obs-csv out.csv]
//	      [-obs-interval N] [-trace trace.jsonl] [-status :8080]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -progress streams per-cell start/finish lines (with cells done /
// total and per-cell wall time) to stderr while the sweep runs. The
// observability flags attach the internal/obs stack to every
// simulated cell: interval samples and DRAM command traces from all
// cells stream into the shared output files, each row tagged with the
// cell's run label; -status serves live sweep progress, the latest
// interval sample and /debug/pprof over HTTP. None of them change
// simulation results.
//
// Custom mixes can be given as core-count-annotated acronym lists,
// e.g. -mixes "DS:8+HOG:8,WS:4+MR:4+SS:8". -gen N samples N seeded
// mixes of -mixsize total cores from the full Table 1 profile
// cross-product (tenant.GenerateMixes) — the way to sweep 32- and
// 64-core machines without hand-writing mix lists; the generated
// mixes replace the canonical list unless -mixes names more. The
// isolation axis selects the mitigation mechanisms: bank partitioning
// in the address map, LLC way-partitioning, or both; the QoS
// scheduler (-scheds QoS) targets the -slo max-slowdown budget.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudmc/cmd/internal/monitor"
	"cloudmc/internal/core"
	"cloudmc/internal/experiment"
	"cloudmc/internal/obs"
	"cloudmc/internal/sched"
	"cloudmc/internal/tenant"
	"cloudmc/internal/workload"
)

func main() {
	mixesFlag := flag.String("mixes", "all", "comma-separated mix list (all = canonical study mixes; custom: DS:8+HOG:8,...)")
	gen := flag.Int("gen", 0, "generate N seeded mixes from the Table 1 profile cross-product (replaces the canonical list; explicit -mixes are kept)")
	mixsize := flag.Int("mixsize", 32, "total cores per generated mix, split evenly among 2-4 tenants (with -gen)")
	schedsFlag := flag.String("scheds", "FR-FCFS,ATLAS", "comma-separated schedulers to sweep")
	channelsFlag := flag.String("channels", "1", "comma-separated channel counts to sweep")
	isolationFlag := flag.String("isolation", "none", "comma-separated isolation modes to sweep (none, banks, ways, banks+ways, or all)")
	slo := flag.Float64("slo", 0, "QoS scheduler max-slowdown SLO (0 = scheduler default)")
	cycles := flag.Uint64("cycles", 300_000, "measured cycles per simulation")
	warm := flag.Uint64("warm", 50_000, "timed warmup cycles")
	seed := flag.Uint64("seed", 1, "simulation seed")
	list := flag.Bool("list", false, "list the canonical mixes and exit")
	detail := flag.Bool("detail", false, "print the per-tenant breakdown of every cell")
	progress := flag.Bool("progress", false, "stream per-cell start/finish lines to stderr")
	obsPath := flag.String("obs", "", "write interval samples from every cell as JSONL to this file")
	obsCSV := flag.String("obs-csv", "", "write interval samples from every cell as CSV to this file")
	obsInterval := flag.Uint64("obs-interval", 10_000, "sampling interval in simulated cycles")
	tracePath := flag.String("trace", "", "write per-command DRAM traces from every cell as JSONL to this file")
	statusAddr := flag.String("status", "", "serve live /status JSON and /debug/pprof on this address (e.g. :8080)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *list {
		for _, m := range tenant.StudyMixes() {
			fmt.Printf("%-28s %2d cores, footprint %.1f GB\n",
				m.Name, m.TotalCores(), float64(m.Footprint())/(1<<30))
		}
		return
	}

	var mixes []tenant.Mix
	var err error
	// -gen replaces the implicit canonical list; an explicit -mixes
	// selection is kept alongside the generated mixes.
	if *gen == 0 || (*mixesFlag != "all" && *mixesFlag != "") {
		if mixes, err = parseMixes(*mixesFlag); err != nil {
			die(err)
		}
	}
	if *gen < 0 {
		die(fmt.Errorf("mcmix: -gen %d must be positive", *gen))
	}
	if s := *slo; math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
		die(fmt.Errorf("mcmix: -slo %v must be finite and non-negative (0 = scheduler default)", s))
	}
	if *obsInterval == 0 {
		die(fmt.Errorf("mcmix: -obs-interval %d must be positive", *obsInterval))
	}
	if *cycles == 0 {
		die(fmt.Errorf("mcmix: -cycles %d must be positive", *cycles))
	}
	if *gen > 0 {
		generated, err := tenant.GenerateMixes(*seed, *gen, *mixsize)
		if err != nil {
			die(fmt.Errorf("mcmix: %w", err))
		}
		seen := map[string]bool{}
		for _, m := range mixes {
			seen[m.Name] = true
		}
		for _, m := range generated {
			if seen[m.Name] {
				// A mix name fully determines its spec, so a generated
				// duplicate of an explicitly listed mix is the same
				// scenario; keep the explicit one.
				continue
			}
			mixes = append(mixes, m)
		}
	}
	scheds, err := parseScheds(*schedsFlag)
	if err != nil {
		die(err)
	}
	channels, err := parseInts(*channelsFlag)
	if err != nil {
		die(err)
	}
	isolations, err := parseIsolations(*isolationFlag)
	if err != nil {
		die(err)
	}

	cfg := experiment.Config{
		MeasureCycles:  *cycles,
		WarmupCycles:   *warm,
		Seed:           *seed,
		MaxSlowdownSLO: *slo,
	}

	stopProfiles, err := monitor.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		die(err)
	}

	// Observability: every simulated cell gets its own recorder and
	// trace writer, all streaming into shared output files. The sinks
	// are mutex-wrapped (cells run in parallel) and every row carries
	// the cell's run label, so the streams demultiplex by the "run"
	// column.
	var obsMu sync.Mutex
	var recs []*obs.Recorder
	var tws []*obs.TraceWriter
	var latestRec *obs.Recorder
	var obsFiles []*os.File
	var traceFile *os.File
	if *obsPath != "" || *obsCSV != "" || *tracePath != "" || *statusAddr != "" {
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
			sinks = append(sinks, obs.SyncSink(fs.mk(f)))
		}
		if *tracePath != "" {
			if traceFile, err = os.Create(*tracePath); err != nil {
				die(err)
			}
		}
		cfg.Instrument = func(label string, sys *core.System) {
			rec := obs.NewRecorder(label, *obsInterval, sinks...)
			sys.AttachRecorder(rec)
			var tw *obs.TraceWriter
			if traceFile != nil {
				// TraceWriter flushes whole lines in a single Write,
				// so concurrent cells can share one file.
				tw = obs.NewTraceWriter(traceFile, label)
				sys.AttachTrace(tw)
			}
			obsMu.Lock()
			recs = append(recs, rec)
			latestRec = rec
			if tw != nil {
				tws = append(tws, tw)
			}
			obsMu.Unlock()
		}
	}

	// Per-cell progress to stderr, and done/total counters for the
	// status endpoint. Progress invocations are serialized by the
	// study, so the start-time map needs no lock of its own.
	var cellsDone, cellsTotal atomic.Int64
	if *progress || *statusAddr != "" {
		starts := map[int]time.Time{}
		cfg.Progress = func(ev experiment.CellEvent) {
			cellsDone.Store(int64(ev.Done))
			cellsTotal.Store(int64(ev.Total))
			if ev.Start {
				starts[ev.Index] = time.Now()
				if *progress {
					fmt.Fprintf(os.Stderr, "[%d/%d] start %s\n", ev.Done, ev.Total, ev.Label)
				}
				return
			}
			elapsed := time.Since(starts[ev.Index])
			delete(starts, ev.Index)
			if *progress {
				fmt.Fprintf(os.Stderr, "[%d/%d] done  %s (%.2fs)\n", ev.Done, ev.Total, ev.Label, elapsed.Seconds())
			}
		}
	}

	ms := experiment.NewMixStudy(cfg, mixes, scheds, channels, isolations)

	if *statusAddr != "" {
		srv, err := monitor.Start(*statusAddr, func() monitor.Status {
			st := monitor.Status{
				Run:         "mcmix",
				CellsDone:   int(cellsDone.Load()),
				CellsTotal:  int(cellsTotal.Load()),
				Simulations: ms.Study().Simulations(),
			}
			obsMu.Lock()
			rec := latestRec
			obsMu.Unlock()
			if rec != nil {
				st.Run = rec.Run()
				st.Cycle = rec.LastCycle()
				st.TotalCycles = *warm + *cycles
				if s, ok := rec.Latest(); ok {
					st.Sample = &s
				}
			}
			return st
		})
		if err != nil {
			die(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "status: http://%s/status\n", srv.Addr())
	}

	results := ms.Results()

	for _, rec := range recs {
		if err := rec.Flush(); err != nil {
			die(err)
		}
		if err := rec.Err(); err != nil {
			die(err)
		}
	}
	for _, tw := range tws {
		if err := tw.Flush(); err != nil {
			die(err)
		}
		if err := tw.Err(); err != nil {
			die(err)
		}
	}
	if traceFile != nil {
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

	for _, ch := range channels {
		fmt.Printf("=== %d channel(s), %d cycles measured ===\n\n", ch, *cycles)
		for _, m := range mixes {
			for _, iso := range isolations {
				fmt.Printf("%s [%s]\n", m.Name, iso)
				for _, k := range scheds {
					r, ok := find(results, m.Name, k, ch, iso)
					if !ok {
						continue
					}
					fmt.Printf("  %-10s WS=%.3f HS=%.3f MaxSlow=%.3f  slowdowns:", k, r.Fairness.WeightedSpeedup, r.Fairness.HarmonicSpeedup, r.Fairness.MaxSlowdown)
					for i, t := range r.Shared.Tenants {
						fmt.Printf(" %s=%.3f", t.Name, r.Fairness.Slowdowns[i])
					}
					fmt.Println()
					if *detail {
						for i, t := range r.Shared.Tenants {
							fmt.Printf("    %-10s ipc=%.4f (solo %.4f) lat=%.1f hit=%.3f mpki=%.2f\n",
								t.Name, t.IPC, r.SoloIPC[i], t.AvgReadLatency, t.RowHitRate, t.MPKI)
						}
					}
				}
				fmt.Println()
			}
		}
	}
	fmt.Print(ms.FairnessTable(results).Render())
	fmt.Printf("\n%d simulations for %d cells (solo baselines shared via run cache)\n",
		ms.Study().Simulations(), len(results))
}

func find(results []experiment.MixResult, mix string, k sched.Kind, ch int, iso core.Isolation) (experiment.MixResult, bool) {
	for _, r := range results {
		if r.Mix.Name == mix && r.Scheduler == k && r.Channels == ch && r.Isolation == iso {
			return r, true
		}
	}
	return experiment.MixResult{}, false
}

// parseMixes resolves "all", canonical mix names, or custom specs of
// the form "DS:8+HOG:8" (acronym:cores joined by '+'). Unknown tokens
// are rejected with an error that lists the canonical mix names and
// the custom syntax, so a typo never silently shrinks the sweep.
func parseMixes(s string) ([]tenant.Mix, error) {
	if s == "all" || s == "" {
		return tenant.StudyMixes(), nil
	}
	canonical := map[string]tenant.Mix{}
	var names []string
	for _, m := range tenant.StudyMixes() {
		canonical[m.Name] = m
		names = append(names, m.Name)
	}
	var out []tenant.Mix
	seen := map[string]bool{}
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		m, ok := canonical[name]
		if !ok {
			var err error
			if m, err = parseCustomMix(name); err != nil {
				return nil, fmt.Errorf("mcmix: unknown mix %q: %w\n(canonical mixes: %s; custom syntax: ACR:cores+ACR:cores)",
					name, err, strings.Join(names, ", "))
			}
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("mcmix: mix %q listed twice", m.Name)
		}
		seen[m.Name] = true
		out = append(out, m)
	}
	return out, nil
}

func parseCustomMix(s string) (tenant.Mix, error) {
	var specs []tenant.Spec
	for _, part := range strings.Split(s, "+") {
		acr, coresStr, hasCores := strings.Cut(part, ":")
		p, err := workload.ByAcronym(strings.TrimSpace(acr))
		if err != nil {
			return tenant.Mix{}, err
		}
		cores := 8
		if hasCores {
			cores, err = strconv.Atoi(coresStr)
			if err != nil || cores <= 0 {
				return tenant.Mix{}, fmt.Errorf("mcmix: bad core count in %q (want a positive integer)", part)
			}
		}
		specs = append(specs, tenant.Spec{Profile: p, Cores: cores})
	}
	if len(specs) < 2 {
		return tenant.Mix{}, fmt.Errorf("mcmix: mix %q needs at least two tenants (acronym:cores joined by '+')", s)
	}
	return tenant.NewMix("", specs...), nil
}

// parseScheds resolves scheduler names case-insensitively; unknown
// names are rejected by sched.ParseKind with the list of valid ones.
func parseScheds(s string) ([]sched.Kind, error) {
	var out []sched.Kind
	for _, name := range strings.Split(s, ",") {
		k, err := sched.ParseKind(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// parseIsolations resolves the isolation axis ("all" sweeps every
// mode); unknown names are rejected with the valid vocabulary.
func parseIsolations(s string) ([]core.Isolation, error) {
	if s == "all" {
		return append([]core.Isolation(nil), core.Isolations...), nil
	}
	var out []core.Isolation
	seen := map[string]bool{}
	for _, name := range strings.Split(s, ",") {
		iso, err := core.ParseIsolation(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		if seen[iso.String()] {
			return nil, fmt.Errorf("mcmix: isolation mode %q listed twice", iso)
		}
		seen[iso.String()] = true
		out = append(out, iso)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, v := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			return nil, fmt.Errorf("mcmix: bad channel count %q (want a positive integer)", strings.TrimSpace(v))
		}
		if n <= 0 || n&(n-1) != 0 {
			return nil, fmt.Errorf("mcmix: channel count %d must be a positive power of two", n)
		}
		out = append(out, n)
	}
	return out, nil
}
