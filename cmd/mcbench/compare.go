package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
)

// compareResults compares two sets of -json results, A (the parent) and
// B (the change). For every workload and end-to-end metric it prints
// both medians, B's change against A, each side's spread (distance
// between the quartiles, as a share of the median) and a verdict against
// the metric's bound:
//   - ok: B is no worse than A by more than the bound;
//   - worse: B is worse by more than the bound, and both spreads are
//     within it;
//   - unresolved: a spread exceeds the bound and B does not read better
//     than A on every run.
//
// It also requires every run of both sets to report no failed
// operation and identical simulated counters and fingerprints. It
// returns non-zero on any worse metric, failure or mismatch.
func compareResults(patA, patB string, stdout, stderr io.Writer) int {
	a, err := loadResults(patA)
	if err == nil {
		var b []resultFile
		b, err = loadResults(patB)
		if err == nil {
			return compareSets(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "mcbench:", err)
	return 2
}

func compareSets(a, b []resultFile, w io.Writer) int {
	bad := false
	fmt.Fprintf(w, "%d runs in A, %d in B\n", len(a), len(b))
	for _, name := range workloadNames() {
		ra, rb := runsOf(a, name), runsOf(b, name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			va, vb := metricOf(ra, d.name), metricOf(rb, d.name)
			if len(va) != len(ra) || len(vb) != len(rb) {
				fmt.Fprintf(w, "%s %s missing in some runs\n", name, d.name)
				bad = true
				continue
			}
			verdict := judge(d, va, vb)
			if verdict == "worse" {
				bad = true
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(w, "%s %s A=%.6g B=%.6g change=%+.2f%% spreadA=%.2f%% spreadB=%.2f%% bound=%g%% %s\n",
				name, d.name, ma, mb, 100*(mb-ma)/ma, 100*spread(va), 100*spread(vb), 100*d.bound, verdict)
		}
		ref := ra[0]
		exact := "identical"
		for _, r := range append(append([]workloadResult{}, ra...), rb...) {
			switch {
			case r.Failed > 0:
				exact = fmt.Sprintf("a run failed %d operation(s)", r.Failed)
			case r.Fingerprint != ref.Fingerprint || r.Golden != ref.Golden:
				exact = "fingerprints differ"
			case !reflect.DeepEqual(r.Counters, ref.Counters):
				exact = "simulated counters differ"
			}
		}
		if exact != "identical" {
			bad = true
		}
		fmt.Fprintf(w, "%s counters+fingerprints %s\n", name, exact)
	}
	if bad {
		return 1
	}
	return 0
}

// judge returns the verdict on one metric (see compareResults).
func judge(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if d.better == "higher" {
		worse = -worse
	}
	if spread(a) > d.bound || spread(b) > d.bound {
		if allBetter(d, a, b) {
			return "ok"
		}
		return "unresolved"
	}
	if worse > d.bound {
		return "worse"
	}
	return "ok"
}

// allBetter reports whether every run in b reads better than every run
// in a.
func allBetter(d metricDef, a, b []float64) bool {
	if d.better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

func loadResults(pattern string) ([]resultFile, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", pattern)
	}
	var out []resultFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, f)
	}
	return out, nil
}

func runsOf(files []resultFile, name string) []workloadResult {
	var out []workloadResult
	for _, f := range files {
		for _, r := range f.Workloads {
			if r.Name == name {
				out = append(out, r)
			}
		}
	}
	return out
}

func metricOf(runs []workloadResult, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// spread is the distance between the first and third quartiles as a
// share of the median, with quartiles computed like Python's
// statistics.quantiles(vs, n=4) (the "exclusive" method). Fewer than
// two values have no spread.
func spread(vs []float64) float64 {
	s := slices.Sorted(slices.Values(vs))
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / median(s)
}
