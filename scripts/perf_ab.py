#!/usr/bin/env python3
"""Paired performance gate: a base build of roofbench against a head build.

Usage: perf_ab.py BASE_BIN HEAD_BIN

BASE_BIN and HEAD_BIN are `roofline_bench` executables built from the
base and the head of a change, each from its own checkout. The script
runs PAIRS pairs of every workload in WORKLOADS: pair i uses seed i on
both sides, and the side that runs first alternates. It then runs
TRACED_RUNS traced `fleet_cold` runs per side, alternating the same way.
It fails (exit 1) when:

* the head's median of an end-to-end metric in BENCHMARK.json is worse
  than the base's by more than that metric's bound, in the direction the
  file gives. The base's spread (quartile distance over median) is
  printed beside each metric; a metric whose spread exceeds its bound is
  labelled `unresolved`, since the pairs cannot tell a change of that
  size from noise;
* a run exits non-zero or prints `"correct": false`, or the head's
  failed/attempted share of a workload is higher than the base's;
* the head's median `simx86.fp_ports.mops` or `simx86.dram_stream.mops`
  is below PROBE_FLOOR times the base's, or its median
  `service.computes_per_tuple` is more than COMPUTE_SLACK above the
  base's.

Exit status: 0 pass, 1 fail, 2 usage or a malformed result line.
"""

import json
import pathlib
import statistics
import subprocess
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Ten pairs is the least the comparison rule in roofbench/README.md
# accepts; more would lengthen the job without changing the rule.
PAIRS = 10

# Each workload runs at least one round whatever the length, so the
# shortest run keeps the job short; the ten pairs, not the run length,
# supply the samples. Both sides use the same value.
SECONDS = 1

# The workloads the retired gates covered: the quick sweep, and the
# service's read and write sides. `kernels_full` is left out: no retired
# gate needs it, and at about 40 s a round it would add about 14 min.
WORKLOADS = ("sweep_quick", "roofd_warm", "fleet_cold")

# Traced runs per side. `fleet_cold` is the only workload whose trace
# counts computes per tuple; every traced run ends with the simulator
# probes, each already a median of five trials.
TRACED_WORKLOAD = "fleet_cold"
TRACED_RUNS = 3

# The simulator probes the retired quick-sweep gate also bounded, and
# the fraction of the base's rate the head must keep.
PROBES = ("simx86.fp_ports.mops", "simx86.dram_stream.mops")
PROBE_FLOOR = 0.75

# Computes per distinct tuple may rise by at most this much: 0.10 means
# one tuple in ten computed twice more than at the base.
COMPUTES = "service.computes_per_tuple"
COMPUTE_SLACK = 0.10


def run_bench(binary, workload, seed, trace):
    """Runs one roofline_bench workload; returns (exit code, stdout)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(int(trace))],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def parse(stdout):
    """The result line, the last line of stdout, as a dict.

    Raises ValueError when it is not a result line."""
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise ValueError(f"no JSON result line ({e})") from None
    if not (isinstance(doc, dict)
            and {"correct", "attempted", "failed", "metrics"} <= doc.keys()
            and isinstance(doc["attempted"], int)
            and isinstance(doc["failed"], int)):
        raise ValueError(f"not a result line: {lines[-1][:80]}")
    return doc


def value(doc, name):
    """One metric's value; raises ValueError when it is missing."""
    try:
        return float(doc["metrics"][name]["value"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"result line has no numeric `{name}`") from None


def spread(samples):
    """Quartile distance over the median."""
    q1, mid, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    if mid:
        return (q3 - q1) / mid
    return 0.0 if q3 == q1 else float("inf")


def worse(better, base, head, bound):
    """Whether `head` is worse than `base` by more than `bound`."""
    if better == "lower":
        return head > base * (1 + bound)
    return head < base * (1 - bound)


def collect(run, bins):
    """Runs every pair and traced run. Returns the result lines as
    {side: {workload: [doc]}} and the failed runs."""
    docs = {side: {} for side in bins}
    failures = []

    def one(side, workload, seed, trace):
        code, stdout = run(bins[side], workload, seed, trace)
        doc = parse(stdout)
        label = f"{side} {workload} seed {seed}" + (" traced" if trace else "")
        if code != 0:
            failures.append(f"{label}: exit {code}")
        if doc["correct"] is not True:
            failures.append(f"{label}: \"correct\": {json.dumps(doc['correct'])}")
        key = workload + (".traced" if trace else "")
        docs[side].setdefault(key, []).append(doc)

    def order(i):
        return ("base", "head") if i % 2 == 0 else ("head", "base")

    for i in range(PAIRS):
        for workload in WORKLOADS:
            for side in order(i):
                one(side, workload, i, False)
    for i in range(TRACED_RUNS):
        for side in order(i):
            one(side, TRACED_WORKLOAD, i, True)
    return docs, failures


def compare(bench, docs):
    """Prints the comparison table; returns the failures it finds."""
    failures = []
    base, head = docs["base"], docs["head"]
    print(f"{'workload':<12} {'metric':<16} {'base':>11} {'head':>11} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in WORKLOADS:
        for m in bench["end_to_end"]:
            name, bound = m["name"], float(m["bound"])
            b = [value(d, name) for d in base[workload]]
            h = [value(d, name) for d in head[workload]]
            bm, hm, s = statistics.median(b), statistics.median(h), spread(b)
            labels = []
            if worse(m["better"], bm, hm, bound):
                labels.append("REGRESSED")
                failures.append(f"{workload} {name}: {bm:.4g} -> {hm:.4g}")
            if s > bound:
                labels.append("unresolved")
            change = f"{hm / bm - 1:+8.1%}" if bm else f"{'-':>8}"
            print(f"{workload:<12} {name:<16} {bm:>11.4g} {hm:>11.4g} "
                  f"{change} {s:>7.1%} {bound:>6.0%}  {' '.join(labels) or 'ok'}")
        shares = []
        for side in (base, head):
            attempted = sum(d["attempted"] for d in side[workload])
            shares.append(sum(d["failed"] for d in side[workload]) / max(attempted, 1))
        print(f"{workload:<12} {'failed share':<16} {shares[0]:>11.4g} {shares[1]:>11.4g}")
        if shares[1] > shares[0]:
            failures.append(f"{workload}: failed share {shares[0]:.4g} -> {shares[1]:.4g}")

    key = TRACED_WORKLOAD + ".traced"
    for name in PROBES + (COMPUTES,):
        bm = statistics.median(value(d, name) for d in base[key])
        hm = statistics.median(value(d, name) for d in head[key])
        if name == COMPUTES:
            limit, bad = f"<= base + {COMPUTE_SLACK}", hm > bm + COMPUTE_SLACK
        else:
            limit, bad = f">= {PROBE_FLOOR} x base", hm < PROBE_FLOOR * bm
        print(f"traced       {name:<28} {bm:>11.4g} {hm:>11.4g}  {limit}  "
              f"{'FAILED' if bad else 'ok'}")
        if bad:
            failures.append(f"traced {name}: {bm:.4g} -> {hm:.4g}, limit {limit}")
    return failures


def main(argv, run=run_bench):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    try:
        docs, failures = collect(run, {"base": argv[0], "head": argv[1]})
        failures += compare(bench, docs)
    except ValueError as e:
        print(f"perf_ab: malformed roofline_bench output: {e}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"perf_ab: FAIL: {failure}", file=sys.stderr)
    print(f"perf_ab: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
