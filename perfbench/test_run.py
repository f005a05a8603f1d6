#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_run.py

Runs each workload briefly (one repetition per setting) through run.main,
so a full pass takes a couple of minutes. Builds narma_perfbench first, like
run.py, into $CARGO_TARGET_DIR or .bench_build.
"""

import contextlib
import io
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BENCHMARK_JSON = os.path.join(run.HERE, "..", "BENCHMARK.json")
_outputs = {}


def bench(workload, trace, seed=run.DEFAULT_SEED, reference=None):
    """Runs run.main once per argument set with one repetition per profile
    setting, against `reference` in place of reference.json when given;
    returns (exit code, stdout lines, final JSON object)."""
    key = (workload, trace, seed, reference)
    if key not in _outputs:
        argv = ["--workload", workload, "--seed", str(seed), "--seconds",
                "0.001", "--trace", str(trace)]
        out = io.StringIO()
        saved = run.MIN_REPS, run.REFERENCE
        run.MIN_REPS = 1
        run.REFERENCE = reference or run.REFERENCE
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(argv)
        finally:
            run.MIN_REPS, run.REFERENCE = saved
        lines = out.getvalue().strip().splitlines()
        _outputs[key] = (code, lines, json.loads(lines[-1]))
    return _outputs[key]


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(BENCHMARK_JSON) as f:
            cls.spec = json.load(f)
        cls.exe = run.build()

    def test_workloads_declared(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertGreaterEqual(len(names), 2)
        self.assertLessEqual(set(names), set(run.WORKLOADS))

    def test_every_metric_reported_with_unit(self):
        for wl in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                code, lines, res = bench(wl, trace)
                self.assertEqual(code, 0)
                self.assertEqual(lines[0],
                                 "workload %s seed 1 trace %d" % (wl, trace))
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(res["correct"], (wl, trace))
                self.assertEqual(res["failed"], 0)
                want = {m["name"]: m["unit"] for m in self.spec[key]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want, (wl, trace))
                for name, m in res["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end_metrics_nonzero(self):
        for wl in run.WORKLOADS:
            _, _, res = bench(wl, 0)
            for name, m in res["metrics"].items():
                self.assertGreater(m["value"], 0, (wl, name))

    def test_tampered_reference_fails_repetitions(self):
        with open(run.REFERENCE) as f:
            ref = json.load(f)
        ref["virtual_ps"]["stencil_na_ft_32"] += 1
        path = os.path.join(run.build_dir(), "tampered_reference.json")
        with open(path, "w") as f:
            json.dump(ref, f)
        code, _, res = bench("stencil_na_ft_32", 0, reference=path)
        self.assertEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], res["attempted"])

    def test_check_rep_catches_bad_recovery(self):
        with open(run.REFERENCE) as f:
            ref = json.load(f)
        good = run.run_child(self.exe, ["rep", "stencil_na_ft_32", "1", "0"])
        self.assertEqual(run.check_rep(good, "stencil_na_ft_32", 1, ref), [])
        for field, value in (("fails", 2), ("recovered", 0),
                             ("journal_rejoin", 0), ("verified", False),
                             ("victim", -1)):
            bad = dict(good, **{field: value})
            self.assertTrue(run.check_rep(bad, "stencil_na_ft_32", 1, ref),
                            field)

    def test_seed_reaches_inputs(self):
        for seed in (1, 2):
            rep = run.run_child(self.exe,
                                ["rep", "cholesky_na_16", str(seed), "0"])
            self.assertEqual(rep["matrix_seed"], seed)
        with open(run.REFERENCE) as f:
            ref = json.load(f)
        fault_seeds, victims = set(), set()
        for seed in (1, 2, 3):
            rep = run.run_child(self.exe,
                                ["rep", "stencil_na_ft_32", str(seed), "0"])
            self.assertEqual(
                run.check_rep(rep, "stencil_na_ft_32", seed, ref), [])
            fault_seeds.add(rep["fault_seed"])
            victims.add(rep["planned_victim"])
        self.assertEqual(len(fault_seeds), 3)
        self.assertGreater(len(victims), 1, "the seed must pick the victim")
        _, lines, res = bench("stencil_na_ft_32", 0, seed=2)
        self.assertTrue(res["correct"])
        self.assertTrue(any(line.startswith("virtual_us ") for line in lines))

    def test_phase_split_covers_profiled_time(self):
        for wl in run.WORKLOADS:
            _, _, res = bench(wl, 1)
            m = res["metrics"]
            self.assertGreaterEqual(m["obs.phase_coverage"]["value"], 0.9, wl)
            self.assertGreater(m["sim.events"]["value"], 0, wl)
            self.assertGreater(m["trace_overhead"]["value"], 0, wl)

    def test_bad_arguments_rejected(self):
        with contextlib.redirect_stderr(io.StringIO()):
            for argv in (["--workload", "nope"],
                         ["--workload", "tree_na_4096", "--trace", "2"],
                         ["--workload", "tree_na_4096", "--seed", "-1"]):
                with self.assertRaises(SystemExit):
                    run.main(argv)


if __name__ == "__main__":
    unittest.main()
