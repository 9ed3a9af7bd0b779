package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cloudmc/internal/core"
)

// TestSmoke runs every workload briefly with the traced pass and checks
// the report: every metric BENCHMARK.json names is printed with its
// unit, nothing failed, and the spans are well formed.
func TestSmoke(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w.name, "-seconds", "0.001", "-trace", "1", "-trace-dir", dir}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			printed := map[string]string{}
			for _, l := range lines[:len(lines)-1] {
				f := strings.Fields(l)
				if len(f) != 4 || f[0] != w.name {
					t.Fatalf("malformed metric line %q", l)
				}
				if _, err := strconv.ParseFloat(f[2], 64); err != nil {
					t.Fatalf("metric line %q: %v", l, err)
				}
				printed[f[1]] = f[2] + " " + f[3]
			}
			for _, m := range append(append([]benchMetric{}, spec.EndToEnd...), spec.PerLayer...) {
				got, ok := printed[m.Name]
				if !ok {
					t.Errorf("metric %s not printed", m.Name)
				} else if !strings.HasSuffix(got, " "+m.Unit) {
					t.Errorf("metric %s printed as %q, want unit %s", m.Name, got, m.Unit)
				}
			}
			if got := printed["failed_frac"]; got != "0 ratio" {
				t.Errorf("failed_frac = %q, want 0", got)
			}
			var summary struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatalf("result line: %v", err)
			}
			if !summary.Correct || summary.Failed != 0 || summary.Attempted == 0 || len(summary.Metrics) != len(spec.PerLayer) {
				t.Errorf("result line = %+v", summary)
			}
			checkSpans(t, filepath.Join(dir, "spans.jsonl"))
		})
	}
}

// checkSpans checks that every span has a known parent, ends after it
// starts, and has a non-negative self time, and that the measure
// window was traced in its chunks.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[int]bool{0: true}
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("span %q: %v", sc.Text(), err)
		}
		if !seen[s.Parent] || s.EndNs < s.StartNs || s.SelfNs < 0 || s.Workload == "" {
			t.Errorf("bad span %+v", s)
		}
		seen[s.ID] = true
		names[s.Name]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"setup.new_system", "setup.functional_warmup", "run.warmup", "run.measure",
		"layer.workload.next", "layer.cache.l1_access", "layer.cache.l2_access", "layer.addrmap.decode",
		"layer.dram.issue", "layer.memctrl.replay"} {
		if names[n] == 0 {
			t.Errorf("no %s span", n)
		}
	}
	if names["run.measure.chunk"] != reps*chunks {
		t.Errorf("%d run.measure.chunk spans, want %d", names["run.measure.chunk"], reps*chunks)
	}
}

// TestTimedRunMatchesPlainRun shows the benchmark's timed path (an
// explicit warmup Advance, then Run chunked by the clock recorder)
// simulates exactly what a plain Run does.
func TestTimedRunMatchesPlainRun(t *testing.T) {
	for _, w := range []workloadDef{workloads[0], workloads[3]} {
		cfg := w.config(5, 10_000, 40_000)
		job, err := runJob(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := fingerprint(flatten(sys.Run())); job.fingerprint != want {
			t.Errorf("%s: timed run fingerprint %s, plain Run %s", w.name, job.fingerprint, want)
		}
	}
}

// TestGoldenCheckFires shows the golden check rejects a system that
// differs from the golden one by a single parameter.
func TestGoldenCheckFires(t *testing.T) {
	w := workloads[0]
	cfg := w.checkConfig(1)
	cfg.MemPathLatency++
	m, _, err := checkRun(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGolden(w.name, m); err == nil {
		t.Fatal("golden check passed a perturbed configuration")
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"cloudmc/internal/memctrl.(*Controller).Tick", "cloudmc/internal/core.(*System).stepKernel"}, "memctrl"},
		{[]string{"cloudmc/internal/core.(*System).miss.func1", "cloudmc/internal/memctrl.(*Controller).Tick"}, "core"},
		{[]string{"runtime.mallocgc", "runtime.growslice", "cloudmc/internal/core.(*System).fill"}, "runtime.gc"},
		{[]string{"runtime.memmove", "runtime.growslice", "cloudmc/internal/core.(*System).fill"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm"}, "runtime.other"},
		{[]string{"runtime.memmove", "cloudmc/internal/cache.(*Cache).Install"}, "cache"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2_fast64", "cloudmc/internal/memctrl.(*Controller).EnqueueRead"}, "memctrl"},
		{[]string{"sort.insertionSortCmpFunc[go.shape.int]", "slices.SortFunc[...]", "cloudmc/internal/sched.(*ATLAS).Pick"}, "sched"},
		{[]string{"cloudmc/internal/stats.Median[go.shape.float64]"}, "stats"},
		{[]string{"main.(*chunkClock).Emit", "cloudmc/internal/obs.(*Recorder).Record"}, "other"},
		{[]string{"cloudmc/internal/tenant.Spec.Adjusted"}, "other"},
		{[]string{"time.now", "main.main"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(vs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "wall_s", better: "lower", bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	cases := []struct {
		b    []float64
		want string
	}{
		{[]float64{1.05, 1.04, 1.06, 1.05, 1.05}, "ok"},
		{[]float64{1.20, 1.21, 1.19, 1.20, 1.22}, "worse"},
		{[]float64{0.5, 1.5, 0.9, 1.3, 0.7}, "unresolved"},
		{[]float64{0.50, 0.60, 0.70, 0.80, 0.90}, "ok"}, // wide, but every run better
	}
	for _, c := range cases {
		if got := judge(lower, steady, c.b); got != c.want {
			t.Errorf("judge(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the
// workloads and metrics this package defines.
func TestBenchmarkJSONMatches(t *testing.T) {
	s := loadBenchmarkJSON(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the package %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the package %s: %s", i, s.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []benchMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the package %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the package %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", s.EndToEnd, endToEnd, true)
	same("per_layer", s.PerLayer, perLayer, false)
}
