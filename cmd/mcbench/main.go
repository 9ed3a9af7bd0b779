// Command mcbench is the repository's benchmark: it measures how fast
// the simulator runs, end to end and per layer, on four workloads that
// each load a different layer, and checks that the simulated results
// are right while it does.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash cmd/mcbench/run.sh -seed 1 -json out.json    # all four workloads
//	bash cmd/mcbench/run.sh --workload ds16-baseline --seed 3 --seconds 10 --trace 0
//	bash cmd/mcbench/run.sh -trace 1 -trace-dir trace  # adds the traced pass
//	bash cmd/mcbench/run.sh -compare 'a-*.json' 'b-*.json'
//	bash cmd/mcbench/run.sh -update-golden cmd/mcbench/testdata/golden.json
//
// Every metric prints as "<workload> <metric> <value> <unit>". With
// -workload the last line is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (or, with -trace 1, the per-layer
// metrics). Without it, each workload runs in a child process of its
// own, one at a time. The exit code is non-zero if any operation
// failed. README.md defines every metric and workload.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	jsonOut  string
	child    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the simulated workloads")
	fs.Float64Var(&o.seconds, "seconds", 10, "run length: a workload's timed jobs together measure about 0.8x this many seconds on the reference host")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", "", "with -trace 1, write spans.jsonl, <workload>.job<N>.cpu.pprof and layers.json to this directory")
	fs.StringVar(&o.jsonOut, "json", "", "write the full result (host, metrics, counters, fingerprints) to this file")
	fs.BoolVar(&o.child, "child", false, "print the workload's full result as the last line (how the all-workloads run reads its children)")
	compare := fs.Bool("compare", false, "compare two sets of -json results: -compare 'A*.json' 'B*.json'")
	updateGolden := fs.String("update-golden", "", "rewrite the golden fingerprints file at this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "mcbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "mcbench: -seconds must be positive")
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "mcbench: -compare takes two file patterns")
			return 2
		}
		return compareResults(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *updateGolden != "":
		return writeGolden(*updateGolden, stderr)
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "mcbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case o.workload == "":
		return runAll(o, stdout, stderr)
	}
	def, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "mcbench: unknown workload %q (valid: %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res := runWorkload(def, o.seed, o.seconds, o.trace)
	report(stdout, res, o.trace)
	for _, f := range res.Failures {
		fmt.Fprintf(stderr, "mcbench: %s: %s\n", res.Name, f)
	}
	if err := writeTrace(o, res); err != nil {
		fmt.Fprintln(stderr, "mcbench:", err)
		return 1
	}
	if o.jsonOut != "" {
		if err := writeResult(o, []workloadResult{res}); err != nil {
			fmt.Fprintln(stderr, "mcbench:", err)
			return 1
		}
	}
	switch {
	case o.child:
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "mcbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	default:
		if err := printSummary(stdout, res, o.trace); err != nil {
			fmt.Fprintln(stderr, "mcbench:", err)
			return 1
		}
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// report prints one line per metric of a workload result: the
// end-to-end metrics and failed_frac, and with trace the per-layer ones.
func report(w io.Writer, res workloadResult, trace bool) {
	printMetrics(w, res.Name, endToEnd, res.Metrics)
	fmt.Fprintf(w, "%s failed_frac %s ratio\n", res.Name, strconv.FormatFloat(failedFrac(res), 'g', -1, 64))
	if trace {
		printMetrics(w, res.Name, perLayer, layerMetrics(res))
	}
}

func failedFrac(res workloadResult) float64 {
	if res.Attempted == 0 {
		return 1
	}
	return float64(res.Failed) / float64(res.Attempted)
}

// layerMetrics merges a result's per-layer measurements and counters.
func layerMetrics(res workloadResult) map[string]float64 {
	out := make(map[string]float64, len(res.Layers)+len(res.Counters))
	for k, v := range res.Layers {
		out[k] = v
	}
	for k, v := range res.Counters {
		out[k] = v
	}
	return out
}

// printSummary prints the single-workload result line: correct,
// attempted, failed, and the end-to-end (or, traced, per-layer) metrics.
func printSummary(w io.Writer, res workloadResult, trace bool) error {
	defs, vals := endToEnd, res.Metrics
	if trace {
		defs, vals = perLayer, layerMetrics(res)
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		if v, ok := vals[d.name]; ok {
			metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0 && len(metrics) == len(defs), res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload in a child process of this binary, one at
// a time, so each has its own heap, GC pacing and peak RSS.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "mcbench:", err)
		return 1
	}
	if o.traceDir != "" {
		// Children append their spans; start from an empty file.
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "mcbench:", err)
			return 1
		}
		if err := os.WriteFile(filepath.Join(o.traceDir, "spans.jsonl"), nil, 0o644); err != nil {
			fmt.Fprintln(stderr, "mcbench:", err)
			return 1
		}
	}
	var results []workloadResult
	failed := 0
	for _, def := range workloads {
		trace := "0"
		if o.trace {
			trace = "1"
		}
		args := []string{"-workload", def.name, "-child", "-trace", trace,
			"-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
		if o.traceDir != "" {
			args = append(args, "-trace-dir", o.traceDir)
		}
		res, err := runChild(exe, args, stdout, stderr)
		if err != nil {
			res = workloadResult{Name: def.name, Attempted: 1, Failed: 1, Failures: []string{err.Error()}}
			fmt.Fprintf(stderr, "mcbench: %s: %v\n", def.name, err)
		}
		failed += res.Failed
		results = append(results, res)
	}
	if o.traceDir != "" {
		if err := writeLayers(o.traceDir, results); err != nil {
			fmt.Fprintln(stderr, "mcbench:", err)
			return 1
		}
	}
	if o.jsonOut != "" {
		if err := writeResult(o, results); err != nil {
			fmt.Fprintln(stderr, "mcbench:", err)
			return 1
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "mcbench: %d operation(s) failed\n", failed)
		return 1
	}
	return 0
}

// runChild runs one workload's child process, copies its metric lines
// to stdout, and decodes the full result from its last line.
func runChild(exe string, args []string, stdout, stderr io.Writer) (workloadResult, error) {
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var lines []string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		return workloadResult{}, fmt.Errorf("child printed nothing (%v)", runErr)
	}
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, l)
	}
	var res workloadResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return workloadResult{}, fmt.Errorf("child result: %w (exit: %v)", err, runErr)
	}
	return res, nil
}

// hostInfo records where a result was measured.
type hostInfo struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// resultFile is the -json output, and the input of -compare.
type resultFile struct {
	Host      hostInfo         `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadResult `json:"workloads"`
}

func writeResult(o options, results []workloadResult) error {
	f := resultFile{
		Host: hostInfo{
			Commit:     gitCommit(),
			Go:         runtime.Version(),
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Seed:      o.seed,
		Seconds:   o.seconds,
		Trace:     o.trace,
		Workloads: results,
	}
	return writeJSON(o.jsonOut, f)
}

// gitCommit returns the checked-out commit, or "unknown" outside a git
// work tree.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeTrace writes a traced single-workload run's spans (appended to
// spans.jsonl) and CPU profile to -trace-dir, and, unless a parent
// collects the results, layers.json.
func writeTrace(o options, res workloadResult) error {
	if o.traceDir == "" || !o.trace {
		return nil
	}
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if o.child {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(filepath.Join(o.traceDir, "spans.jsonl"), flags, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range res.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for i, p := range res.profiles {
		if err := os.WriteFile(filepath.Join(o.traceDir, fmt.Sprintf("%s.job%d.cpu.pprof", res.Name, i+1)), p, 0o644); err != nil {
			return err
		}
	}
	if o.child {
		return nil
	}
	return writeLayers(o.traceDir, []workloadResult{res})
}

// writeLayers writes each workload's per-layer metrics to layers.json.
func writeLayers(dir string, results []workloadResult) error {
	layers := map[string]map[string]float64{}
	for _, res := range results {
		layers[res.Name] = layerMetrics(res)
	}
	return writeJSON(filepath.Join(dir, "layers.json"), layers)
}

// writeGolden recomputes every workload's seed-1 check window and
// writes the golden fingerprints file.
func writeGolden(path string, stderr io.Writer) int {
	g, err := goldenFile()
	if err == nil {
		err = writeJSON(path, g)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mcbench:", err)
		return 1
	}
	return 0
}
