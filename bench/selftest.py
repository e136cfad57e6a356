#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that every metric named in ``BENCHMARK.json`` is emitted with a unit
on every workload, that each layer reports work on the workloads that reach
it and none on the workload that bypasses it, that every binding the tracer
wraps is reached by some workload, and that the output checks fail when
given a corrupted result.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import shutil
import sys
import tempfile
import types
import unittest
from pathlib import Path
from unittest import mock

import run

run.pin_threads()
sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import timedchoice as tc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = run.spec()
CPUS = os.sched_getaffinity(0)

#: Per-layer metrics that must be nonzero on a workload (others may be zero).
REACHES = {
    "experiment": [
        "sampler.self_s", "sampler.rules", "core.enumerate_sets.calls",
        "transform.design.calls", "transform.build.s",
        "solvers.batches", "solvers.problems", "estimator.self_s",
        "hyptest.fit_self_s", "hyptest.boot_reps", "estimate_s", "test_s",
        "boot_reps_per_s",
    ],
    "montecarlo": [
        "sampler.rules", "core.lattice.calls", "solvers.batches", "solvers.problems",
        "hyptest.fit_self_s",
        "hyptest.boot_reps", "test_s", "test_tail_s", "boot_reps_per_s",
    ],
    "raw_pipeline": [
        "clustering.kmeans.s", "clustering.self_s", "clustering.distinct_values",
        "survival.s", "survival.rejected_prefixes", "dataio.read.s", "dataio.write.s",
        "cli.self_s", "cluster_s", "survive_s",
    ],
}
#: Layers the bypass workload must never reach.
BYPASSED = ["sampler.rules", "solvers.batches", "core.lattice.calls", "transform.design.calls"]


def tiny_run(name: str, trace: bool):
    workdir = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=run.OUT))
    try:
        wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, workdir, tiny=True)
        return run.benchmark(wl, 0.0, trace, [0.01])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class MetricsEmitted(unittest.TestCase):
    def check_emitted(self, metrics, spec_names):
        for name in spec_names:
            self.assertIn(name, metrics)
            self.assertTrue(metrics[name]["unit"])
            self.assertTrue(np.isfinite(metrics[name]["value"]), name)

    def test_every_workload(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))
        bindings = {
            (mod, attr): getattr(importlib.import_module(mod), attr)
            for mod, attr, _, _ in tracing.targets()
        }
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result, _ = tiny_run(name, trace=False)
                self.assertTrue(result["correct"], result)
                self.check_emitted(result["metrics"], [m["name"] for m in SPEC["end_to_end"]])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0.0)

                result, detail = tiny_run(name, trace=True)
                self.assertTrue(result["correct"], detail["failures"])
                metrics = result["metrics"]
                self.check_emitted(metrics, [m["name"] for m in SPEC["per_layer"]])
                for layer in REACHES[name]:
                    self.assertGreater(metrics[layer]["value"], 0.0, layer)
                if name == "raw_pipeline":
                    for layer in BYPASSED:
                        self.assertEqual(metrics[layer]["value"], 0.0, layer)
                for (mod, attr), original in bindings.items():
                    restored = getattr(importlib.import_module(mod), attr)
                    self.assertIs(restored, original, f"{mod}.{attr}")
                self.assertEqual(os.sched_getaffinity(0), CPUS)

    def test_task_seconds_weighs_each_cpu_equally(self):
        # CPU 0 ran three tasks, one of them stalled; CPU 1 ran two.
        self.assertEqual(run.task_seconds([1.0, 9.0, 1.0, 2.0, 2.0], [0, 0, 0, 1, 1]), 1.5)

    def test_every_wrapped_binding_is_reached(self):
        unique = [(mod, attr, f"{mod}.{attr}", hook) for mod, attr, _, hook in tracing.targets()]
        seen = set()
        with mock.patch.object(tracing, "targets", return_value=unique):
            for name, workload in workloads.WORKLOADS.items():
                workdir = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=run.OUT))
                try:
                    tracer = tracing.Tracer()
                    wl = workload(workloads.DEFAULT_SEED, workdir, tiny=True)
                    with tracer.installed():
                        wl.task(0)
                    seen |= {span.name for span in tracer.spans}
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
        self.assertEqual({name for _, _, name, _ in unique} - seen, set())


class ChecksCatchCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workdir = Path(tempfile.mkdtemp(prefix="selftest-checks-", dir=run.OUT))
        cls.wl = {}
        for name, workload in workloads.WORKLOADS.items():
            (cls.workdir / name).mkdir()
            cls.wl[name] = workload(workloads.DEFAULT_SEED, cls.workdir / name, tiny=True)
        cls.out = {name: wl.task(0)[1] for name, wl in cls.wl.items()}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def assertCaught(self, name, out):
        self.assertTrue(self.wl[name].check(0, out))

    def test_clean_outputs_pass(self):
        for name, wl in self.wl.items():
            self.assertEqual(wl.check(0, self.out[name]), [], name)

    def test_non_monotone_rule(self):
        rule = self.out["experiment"]["estimate"].best_rule
        reversed_rule = tc.AttentionRule(
            u=rule.u[::-1].copy(), set_index=rule.set_index, d_pref=rule.d_pref
        )
        est = dataclasses.replace(self.out["experiment"]["estimate"], best_rule=reversed_rule)
        self.assertCaught("experiment", {**self.out["experiment"], "estimate": est})
        self.assertCaught("montecarlo", {**self.out["montecarlo"], "rule": reversed_rule})

    def test_off_simplex_weights(self):
        est = self.out["experiment"]["estimate"]
        bad = dataclasses.replace(est, best_p=types.SimpleNamespace(p=est.best_p.p * 1.01))
        self.assertCaught("experiment", {**self.out["experiment"], "estimate": bad})

    def test_best_distance_not_pool_minimum(self):
        est = self.out["experiment"]["estimate"]
        bad = dataclasses.replace(est, best_distance=est.best_distance * 1.5 + 1e-9)
        self.assertCaught("experiment", {**self.out["experiment"], "estimate": bad})

    def test_p_value_and_statistics(self):
        for name in ("experiment", "montecarlo"):
            test = self.out[name]["test"]
            stats = test.bootstrap_stats.copy()
            stats[0] = np.nan
            for bad in (
                dataclasses.replace(test, p_value=0.0),
                dataclasses.replace(test, p_value=1.5),
                dataclasses.replace(test, bootstrap_stats=stats),
            ):
                self.assertCaught(name, {**self.out[name], "test": bad})

    def test_survivors_and_counts(self):
        out = self.out["raw_pipeline"]
        doc = json.loads(out["survive_all"])
        doc["survivors"] = doc["survivors"][1:] if doc["survivors"] else [["x"]]
        self.assertCaught("raw_pipeline", {**out, "survive_all": json.dumps(doc)})
        self.assertCaught("raw_pipeline", {**out, "codes": (0, 2, 0)})
        self.assertTrue(checks.counts_total((3, 4), 8))

    def test_criterion_08_verdict_uses_a_fixed_prefix(self):
        def outs(rejects):  # tasks alternate null and alternative
            return [
                None if r is None
                else {"null": j % 2 == 0, "test": types.SimpleNamespace(reject=r)}
                for j, r in enumerate(rejects)
            ]

        wl = self.wl["montecarlo"]
        self.assertIsNone(wl.finish(outs([True, False])))  # not applied at tiny sizes
        with mock.patch.multiple(wl, verdict=True, min_tasks=4):
            # Replications beyond the prefix cannot change the verdict.
            self.assertEqual(wl.finish(outs([False, True, False, True, True, False])), [])
            self.assertTrue(wl.finish(outs([True, True, False, True])))
            self.assertTrue(wl.finish(outs([False, False, False, True])))
            self.assertTrue(wl.finish(outs([False, True, False])))
            self.assertTrue(wl.finish(outs([False, True, None, True])))

    def test_traced_outputs_must_match_bit_for_bit(self):
        fp = self.wl["experiment"].fingerprint(self.out["experiment"])
        self.assertEqual(checks.same_outputs(fp, fp), [])
        nudged = {**fp, "best_distance": np.nextafter(fp["best_distance"], np.inf)}
        self.assertTrue(checks.same_outputs(fp, nudged))


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    unittest.main()
