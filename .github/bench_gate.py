#!/usr/bin/env python3
"""Benchmark regression gate for CI.

Compares two raw `go test -bench` output files (merge-base vs PR head)
and fails when the geometric mean of the per-benchmark median time
ratios regresses by more than the threshold. Parsing the raw benchmark
lines (a format the Go tool has kept stable for a decade) keeps the
gate independent of benchstat's report layout; benchstat is still run
separately for the human-readable table.

Edge cases are reported, never silently swallowed:
  - benchmarks present only in head (newly added profiles) are listed
    and excluded from the ratio;
  - benchmarks present only in base (dropped from head) are listed as
    a loud warning — a rename shows up as one of each;
  - an empty base file (nothing to gate against, e.g. the benchmark
    was just introduced) SKIPs with an explicit message;
  - a non-empty base with an empty intersection FAILs: the head lost
    every gated benchmark, which must not pass as "no data".

Usage: bench_gate.py base.txt head.txt [threshold]
  threshold: maximum allowed geomean head/base time ratio
             (default 1.10 = 10% slower)

With -benchmem output, an allocs/op column is printed alongside the
gate. It is informational and never affects the verdict: the ns/op
geomean is the gate, but a hot path that starts allocating shows up in
the column before it costs enough wall time to trip it.

Alloc gate: bench_gate.py --alloc-gate REGEX head.txt
  the annotated-hotpath allocation gate: every benchmark whose name
  matches REGEX must report a median of exactly 0 allocs/op. Unlike
  the comparison gate this needs no base file — zero is an absolute
  contract (mirroring the //mclint:hotpath static invariant), not a
  ratio. FAILs when a matching benchmark allocates, when the file has
  no -benchmem data, or when nothing matches the regex (a rename must
  not silently drop the gate).

Self-test: bench_gate.py --self-test
  exercises the parser and every edge case above on synthetic files;
  CI runs it before trusting the gate.
"""

import math
import os
import re
import statistics
import sys
import tempfile

LINE = re.compile(r"^(Benchmark\S+)\s+\d+\s+([0-9.]+(?:e[+-]?\d+)?) ns/op")
# -benchmem appends "B/op" and "allocs/op" columns to the same line.
ALLOCS = re.compile(r"\s([0-9.]+(?:e[+-]?\d+)?) allocs/op")


def medians(path):
    """Parse one bench file into {benchmark name: median ns/op}."""
    samples = {}
    with open(path) as f:
        for line in f:
            m = LINE.match(line)
            if m:
                samples.setdefault(m.group(1), []).append(float(m.group(2)))
    return {name: statistics.median(v) for name, v in samples.items()}


def alloc_medians(path):
    """Parse -benchmem allocs/op into {benchmark name: median allocs/op}.

    Empty when the file was produced without -benchmem; allocations are
    reported, never gated (see allocs_report).
    """
    samples = {}
    with open(path) as f:
        for line in f:
            m = LINE.match(line)
            if not m:
                continue
            a = ALLOCS.search(line)
            if a:
                samples.setdefault(m.group(1), []).append(float(a.group(1)))
    return {name: statistics.median(v) for name, v in samples.items()}


def allocs_report(base, head):
    """Print the allocs/op column for parsed alloc medians.

    Informational only (always returns 0): the ns/op geomean is the
    gate, but a hot path that starts allocating shows up here before it
    costs enough time to trip it. base may be empty (no -benchmem run);
    entries missing on either side print one-sided.
    """
    names = sorted(set(base) | set(head))
    if not names:
        print("\nallocs/op: no -benchmem data found")
        return 0
    print("\nallocs/op (informational, never gated):")
    for name in names:
        if name in base and name in head:
            delta = head[name] - base[name]
            print(f"  {name}: {base[name]:.0f} -> {head[name]:.0f}"
                  f" allocs/op ({delta:+.0f})")
        elif name in head:
            print(f"  {name}: {head[name]:.0f} allocs/op (head only)")
        else:
            print(f"  {name}: {base[name]:.0f} allocs/op (base only)")
    return 0


def alloc_gate(pattern, head_path):
    """Gate matching benchmarks on exactly 0 median allocs/op.

    Returns the process exit code (0 pass, 1 fail). The gate is
    absolute — no base file — because the annotated hot paths promise
    allocation-freedom, not merely no-regression. Missing -benchmem
    data or an empty match set fails loudly: both would otherwise turn
    the gate into a no-op without anyone noticing.
    """
    rx = re.compile(pattern)
    allocs = alloc_medians(head_path)
    if not allocs:
        print(f"FAIL: {head_path} has no -benchmem allocs/op data to gate")
        return 1
    matched = sorted(name for name in allocs if rx.search(name))
    if not matched:
        print(f"FAIL: no benchmark matches alloc-gate pattern {pattern!r} "
              f"(a rename must not silently drop the gate)")
        return 1
    bad = []
    print(f"alloc gate (must be exactly 0 allocs/op): {len(matched)} benchmark(s)")
    for name in matched:
        verdict = "ok" if allocs[name] == 0 else "FAIL"
        print(f"  {name}: {allocs[name]:.0f} allocs/op {verdict}")
        if allocs[name] != 0:
            bad.append(name)
    if bad:
        print(f"FAIL: {len(bad)} hot-path benchmark(s) allocate; "
              f"the //mclint:hotpath contract requires 0 allocs/op")
        return 1
    print("PASS")
    return 0


def gate(base_path, head_path, threshold):
    """Run the gate; returns the process exit code (0 pass/skip, 1 fail)."""
    base = medians(base_path)
    head = medians(head_path)
    allocs_report(alloc_medians(base_path), alloc_medians(head_path))

    head_only = sorted(set(head) - set(base))
    base_only = sorted(set(base) - set(head))
    if head_only:
        print(f"NOTE: {len(head_only)} benchmark(s) only in head (new, not gated):")
        for name in head_only:
            print(f"  {name}")
    if base_only:
        print(f"WARNING: {len(base_only)} benchmark(s) only in base (missing from head):")
        for name in base_only:
            print(f"  {name}")

    if not base:
        print("SKIP: base has no benchmarks to gate against")
        return 0
    common = sorted(set(base) & set(head))
    if not common:
        print("FAIL: base and head share no benchmarks — head lost all gated coverage")
        return 1

    ratios = []
    for name in common:
        if base[name] <= 0 or head[name] <= 0:
            print(f"NOTE: skipping {name}: non-positive median (base {base[name]}, head {head[name]})")
            continue
        r = head[name] / base[name]
        ratios.append(r)
        print(f"{name}: {base[name]:.1f} -> {head[name]:.1f} ns/op ({r - 1:+.1%} vs base)")
    if not ratios:
        print("FAIL: no usable benchmark pairs after filtering non-positive medians")
        return 1
    geomean = math.exp(sum(map(math.log, ratios)) / len(ratios))
    print(f"\ngeomean head/base time ratio: {geomean:.4f} over {len(ratios)} benchmarks")
    if geomean > threshold:
        print(f"FAIL: geomean regression exceeds {threshold - 1:.0%} budget")
        return 1
    print("PASS")
    return 0


def self_test():
    """Exercise the parser and every edge case on synthetic files."""
    def bench_file(lines):
        fd, path = tempfile.mkstemp(suffix=".txt")
        with os.fdopen(fd, "w") as f:
            f.write("\n".join(lines) + "\n")
        return path

    def run(base_lines, head_lines, threshold=1.10):
        base, head = bench_file(base_lines), bench_file(head_lines)
        try:
            return gate(base, head, threshold)
        finally:
            os.unlink(base)
            os.unlink(head)

    failures = []

    def check(name, got, want):
        status = "ok" if got == want else f"FAIL (exit {got}, want {want})"
        print(f"--- self-test: {name}: {status}")
        if got != want:
            failures.append(name)

    b = ["BenchmarkX/a 100 50.0 ns/op", "BenchmarkX/a 100 52.0 ns/op",
         "BenchmarkX/b 100 80.0 ns/op"]

    # 1. Unchanged medians pass.
    check("identical pass", run(b, b), 0)
    # 2. A clear regression fails.
    worse = ["BenchmarkX/a 100 90.0 ns/op", "BenchmarkX/b 100 150.0 ns/op"]
    check("regression fails", run(b, worse), 1)
    # 3. A benchmark only in head (new profile) is excluded, gate still passes.
    head_extra = b + ["BenchmarkX/new 100 10.0 ns/op"]
    check("head-only benchmark tolerated", run(b, head_extra), 0)
    # 4. Empty base (no benchmarks yet) skips, does not crash.
    check("empty base skips", run(["unrelated output"], b), 0)
    # 5. Non-empty base with empty intersection fails, does not pass silently.
    check("empty intersection fails", run(b, ["BenchmarkY/z 100 10.0 ns/op"]), 1)
    # 6. Improvement passes under the threshold.
    better = ["BenchmarkX/a 100 30.0 ns/op", "BenchmarkX/b 100 60.0 ns/op"]
    check("improvement passes", run(b, better), 0)
    # 7. Scientific-notation medians parse.
    sci = ["BenchmarkX/a 1000000 5.1e+01 ns/op", "BenchmarkX/b 100 8.0e+01 ns/op"]
    check("scientific notation parses", run(b, sci), 0)
    # 8. -benchmem columns parse into the allocs report and a large
    # alloc increase never changes the gate verdict — ns/op gates,
    # allocations only report.
    membase = ["BenchmarkX/a 100 50.0 ns/op 128 B/op 0 allocs/op",
               "BenchmarkX/b 100 80.0 ns/op 64 B/op 2 allocs/op"]
    memhead = ["BenchmarkX/a 100 50.0 ns/op 4096 B/op 37 allocs/op",
               "BenchmarkX/b 100 80.0 ns/op 64 B/op 2 allocs/op"]
    check("alloc increase never gates", run(membase, memhead), 0)
    mem_file = bench_file(memhead)
    plain_file = bench_file(b)
    try:
        parsed = alloc_medians(mem_file)
        got = 0 if parsed == {"BenchmarkX/a": 37.0, "BenchmarkX/b": 2.0} else 1
        check("benchmem columns parse", got, 0)
        check("no benchmem data tolerated", 0 if alloc_medians(plain_file) == {} else 1, 0)
        check("allocs report, head only", allocs_report({}, parsed), 0)
        check("allocs report, no data", allocs_report({}, {}), 0)
    finally:
        os.unlink(mem_file)
        os.unlink(plain_file)
    # 9. A benchmem head against a plain base prints one-sided, still
    # gated only on ns/op.
    check("mixed benchmem/plain pair", run(b, memhead), 0)
    # 10. The standalone alloc gate: zero passes, any allocation fails,
    # missing benchmem data fails, and an empty match set fails rather
    # than silently passing.
    zeroed = ["BenchmarkHot/park 100 50.0 ns/op 0 B/op 0 allocs/op",
              "BenchmarkHot/build 100 80.0 ns/op 0 B/op 0 allocs/op",
              "BenchmarkCold/setup 10 900.0 ns/op 4096 B/op 12 allocs/op"]
    leaky = ["BenchmarkHot/park 100 50.0 ns/op 153 B/op 1 allocs/op",
             "BenchmarkHot/build 100 80.0 ns/op 0 B/op 0 allocs/op"]
    zero_file, leak_file, plain_file = bench_file(zeroed), bench_file(leaky), bench_file(b)
    try:
        check("alloc gate: zero passes", alloc_gate(r"BenchmarkHot/", zero_file), 0)
        check("alloc gate: cold benchmarks outside the pattern ignored",
              alloc_gate(r"BenchmarkHot/", zero_file), 0)
        check("alloc gate: allocation fails", alloc_gate(r"BenchmarkHot/", leak_file), 1)
        check("alloc gate: no benchmem data fails", alloc_gate(r"BenchmarkHot/", plain_file), 1)
        check("alloc gate: empty match fails", alloc_gate(r"BenchmarkRenamed/", zero_file), 1)
    finally:
        os.unlink(zero_file)
        os.unlink(leak_file)
        os.unlink(plain_file)

    if failures:
        print(f"self-test FAILED: {', '.join(failures)}")
        return 1
    print("self-test PASSED")
    return 0


def main():
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        sys.exit(self_test())
    if len(sys.argv) == 4 and sys.argv[1] == "--alloc-gate":
        sys.exit(alloc_gate(sys.argv[2], sys.argv[3]))
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    threshold = float(sys.argv[3]) if len(sys.argv) > 3 else 1.10
    sys.exit(gate(sys.argv[1], sys.argv[2], threshold))


if __name__ == "__main__":
    main()
