#!/usr/bin/env python3
"""Unit tests for perf_ab.py (run: python3 scripts/test_perf_ab.py).

The script is CI's only performance gate, so each of its rules is pinned
here on synthetic result lines, with a stand-in for roofline_bench.
"""

import contextlib
import io
import json
import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import perf_ab  # noqa: E402

END_TO_END = json.loads(perf_ab.BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
TRACED = perf_ab.PROBES + (perf_ab.COMPUTES,)


def fake(edit=None, code=None):
    """A stand-in for roofline_bench run as BASE and HEAD. Every run is
    correct, fails nothing, and reads 100 on every metric and 1.0 on
    computes per tuple. `edit(side, workload, seed, doc)` may change the
    line before it is printed; `code(side, workload, seed)` sets the exit
    code."""
    calls = []

    def run(binary, workload, seed, trace):
        side = binary.lower()
        calls.append((side, workload, seed, trace))
        names = TRACED if trace else [m["name"] for m in END_TO_END]
        doc = {
            "correct": True,
            "attempted": 10,
            "failed": 0,
            "metrics": {n: {"value": 100.0, "unit": "x"} for n in names},
        }
        if trace:
            doc["metrics"][perf_ab.COMPUTES]["value"] = 1.0
        if edit:
            edit(side, workload if not trace else workload + ".traced", seed, doc)
        return (code(side, workload, seed) if code else 0), json.dumps(doc)

    run.calls = calls
    return run


def set_value(side, workload, name, value):
    """An `edit` that sets one metric on every run of one side and workload."""
    def edit(s, w, _seed, doc):
        if (s, w) == (side, workload):
            doc["metrics"][name]["value"] = value
    return edit


def gate(run):
    """Runs perf_ab with `run`; returns (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = perf_ab.main(["BASE", "HEAD"], run=run)
    return code, out.getvalue(), err.getvalue()


def row(stdout, workload, metric):
    return next(line for line in stdout.splitlines()
                if line.split()[:2] == [workload, metric])


class PerfAbTest(unittest.TestCase):
    def test_identical_sides_pass_and_pairs_alternate_with_shared_seeds(self):
        run = fake()
        code, out, err = gate(run)
        self.assertEqual(code, 0, err)
        self.assertIn("perf_ab: PASS", out)
        self.assertTrue(row(out, "fleet_cold", "latency_p99_ms").endswith("ok"))
        untraced = [c for c in run.calls if not c[3]]
        self.assertEqual(len(untraced), 2 * perf_ab.PAIRS * len(perf_ab.WORKLOADS))
        for first, second in zip(untraced[::2], untraced[1::2]):
            self.assertEqual(first[1:], second[1:])
            self.assertEqual(first[0], "base" if first[2] % 2 == 0 else "head")
            self.assertNotEqual(first[0], second[0])
        traced = [c for c in run.calls if c[3]]
        self.assertEqual(len(traced), 2 * perf_ab.TRACED_RUNS)
        self.assertEqual([c[0] for c in traced[:4]], ["base", "head", "head", "base"])
        self.assertEqual({c[1] for c in traced}, {perf_ab.TRACED_WORKLOAD})

    def test_lower_better_passes_at_its_bound_and_fails_past_it(self):
        for head, want in ((50.0, 0), (125.0, 0), (125.01, 1)):
            code, out, err = gate(fake(set_value("head", "sweep_quick", "run_s", head)))
            self.assertEqual(code, want, f"run_s 100 -> {head}: {err}")
            self.assertEqual("REGRESSED" in row(out, "sweep_quick", "run_s"), bool(want))

    def test_higher_better_passes_at_its_bound_and_fails_past_it(self):
        for head, want in ((200.0, 0), (75.0, 0), (74.99, 1)):
            code, out, err = gate(fake(set_value("head", "roofd_warm", "ops_per_s", head)))
            self.assertEqual(code, want, f"ops_per_s 100 -> {head}: {err}")
            self.assertEqual("REGRESSED" in row(out, "roofd_warm", "ops_per_s"), bool(want))

    def test_spread_wider_than_the_bound_is_unresolved_not_ok(self):
        def edit(side, workload, seed, doc):
            if (side, workload) == ("base", "fleet_cold"):
                doc["metrics"]["latency_p99_ms"]["value"] = 50.0 if seed % 2 else 150.0
        code, out, _ = gate(fake(edit))
        self.assertEqual(code, 0)
        line = row(out, "fleet_cold", "latency_p99_ms")
        self.assertIn("100.0%", line)
        self.assertTrue(line.endswith("unresolved"), line)

    def test_a_higher_failed_share_fails(self):
        def failing(side):
            def edit(s, w, _seed, doc):
                if s == side and w == "roofd_warm":
                    doc["failed"] = 1
            return edit
        code, _, err = gate(fake(failing("head")))
        self.assertEqual(code, 1)
        self.assertIn("roofd_warm: failed share 0 -> 0.1", err)
        self.assertEqual(gate(fake(failing("base")))[0], 0)

    def test_an_incorrect_or_failing_run_fails(self):
        def incorrect(side, workload, seed, doc):
            if (side, workload, seed) == ("base", "sweep_quick", 3):
                doc["correct"] = False
        code, _, err = gate(fake(incorrect))
        self.assertEqual(code, 1)
        self.assertIn('base sweep_quick seed 3: "correct": false', err)

        code, _, err = gate(fake(code=lambda s, w, seed: int((s, seed) == ("head", 7))))
        self.assertEqual(code, 1)
        self.assertIn("head sweep_quick seed 7: exit 1", err)

    def test_each_traced_probe_threshold(self):
        key = perf_ab.TRACED_WORKLOAD + ".traced"
        cases = [(name, 75.0, 0) for name in perf_ab.PROBES]
        cases += [(name, 74.9, 1) for name in perf_ab.PROBES]
        cases += [(perf_ab.COMPUTES, 1.1, 0), (perf_ab.COMPUTES, 1.11, 1)]
        for name, head, want in cases:
            code, _, err = gate(fake(set_value("head", key, name, head)))
            self.assertEqual(code, want, f"{name} -> {head}: {err}")
            self.assertEqual(f"traced {name}" in err, bool(want))

    def test_malformed_output_and_usage_exit_2(self):
        def missing(side, workload, seed, doc):
            doc["metrics"].pop("peak_rss_mb", None)

        def string_count(side, workload, seed, doc):
            doc["failed"] = "0"

        for run in (lambda *_: (0, "roofline_bench: panicked"),
                    lambda *_: (0, ""),
                    lambda *_: (0, '{"correct": true}'),
                    fake(missing),
                    fake(string_count)):
            code, _, err = gate(run)
            self.assertEqual(code, 2)
            self.assertIn("malformed roofline_bench output", err)
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(perf_ab.main(["only-one"]), 2)


if __name__ == "__main__":
    unittest.main()
