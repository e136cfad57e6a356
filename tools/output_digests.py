#!/usr/bin/env python3
"""Digests of the package's outputs, for checking that a change keeps their bytes.

Run from the repository root:

    python3 tools/output_digests.py [--src DIR]

``--src`` selects the ``timedchoice`` source tree to import (default: this
checkout's ``src/``), so two trees can be compared with one script and one
copy of the benchmark's workloads.  Prints one JSON object mapping each run
to a digest.  A digest is the first 16 hex digits of a SHA-256 over, for each
task in order, every fingerprint key in sorted order followed by its value's
bytes (a ``str`` as UTF-8, anything else as ``numpy.asarray(v).tobytes()``).

Runs:

* ``montecarlo_seed0_60``, ``montecarlo_heldout_20``, ``experiment_seed0_1``,
  ``raw_pipeline_seed0_20`` and ``raw_pipeline_heldout_20``: the first tasks
  of the benchmark workloads in ``bench/workloads.py`` (imported, not
  changed), hashed through each workload's ``fingerprint``.
* ``api_K3000``: ``estimate`` at K = 3,000 on the bundled experiment, and
  ``fit_test_rule`` + ``bootstrap_test`` at ``TestConfig`` seed 1 in simplex
  (L = 299) and orthant (L = 99) mode, all in outside mode.
* ``estimate_K3000_no_outside``: ``estimate`` at K = 3,000 on the bundled
  experiment with every nonempty set enumerated, so every rule starts from
  a uniform draw on the simplex.
* ``estimate_8items``: ``estimate`` at K = 300 on an 8-item menu in outside
  mode (128 sets), 6 fixed orderings and 6 periods, on fixed-seed random
  data: at this size a pool is drawn in lockstep blocks of 4 rules and
  slabs of 84, so the winner's rule is drawn again by index.
* ``kmeans_sizes``: ``kmeans_1d`` at k = 2, ..., 6 on lognormal stopping
  times rounded to 1 ms, with 60, 586, 2,774 and 12,746 distinct values
  (``KMEANS_SIZES`` draws); each cluster is hashed in order.
* ``cli_outputs``: the bytes of every file in a temporary directory after
  ``timedchoice generate`` for each model in ``GENERATE_CONFIGS`` (with
  ``--rule-out`` and ``--counts-out``), ``crra-table --out`` on the bundled
  lotteries written by ``lotteries_to_json``, and ``estimate --out`` and
  ``test --out --boot-stats-out`` (K = 300, L = 49) on the bundled data
  written by ``write_pi_csv`` and ``write_counts_csv``; each file is hashed
  by name, inputs included.
* ``solver_stress``: ``(p, obj, res)`` of ``constrained_lstsq_batch`` on
  fixed-seed random batches of k = 1, 199 and 1,000 problems, in simplex and
  orthant mode, unweighted with ``lower = 0`` and weighted with ``lower > 0``,
  with a zero column in every third problem and a duplicate column in every
  third, at the ``montecarlo`` shape (9 x 6) and a wide shape (4 x 8).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def digest(fingerprints) -> str:
    h = hashlib.sha256()
    for fp in fingerprints:
        for key in sorted(fp):
            h.update(key.encode())
            value = fp[key]
            h.update(value.encode() if isinstance(value, str) else np.asarray(value).tobytes())
    return h.hexdigest()[:16]


def workload_digest(workloads, name, seed, n_tasks) -> str:
    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.WORKLOADS[name](seed, Path(workdir))
        return digest(wl.fingerprint(wl.task(i)[1]) for i in range(n_tasks))


def api_digest(tc) -> str:
    pi, menu = tc.load_experiment_dataset()
    orderings, _ = tc.crra_ordering_set()
    sampler = tc.SamplerConfig(d_t=pi.d_t, seed=0, outside_mode=True)
    est = tc.estimate(pi, menu, orderings, 3_000, sampler)
    fps = [{
        "best_distance": est.best_distance,
        "best_index": est.best_index,
        "best_p": est.best_p.p,
        "per_sim_distances": est.per_sim_distances,
    }]
    for simplex, n_boot in ((True, 299), (False, 99)):
        config = tc.TestConfig(n_boot=n_boot, seed=1, simplex_sum=simplex)
        rule, transform = tc.fit_test_rule(pi, menu, orderings, 3_000, sampler, config)
        test = tc.bootstrap_test(pi, rule, transform, config)
        fps.append({
            "rule": rule.u,
            "statistic": test.statistic,
            "p_value": test.p_value,
            "bootstrap_stats": test.bootstrap_stats,
            "p_min": test.p_min.p,
            "n_unconverged": test.n_unconverged,
        })
    return digest(fps)


def no_outside_digest(tc) -> str:
    pi, menu = tc.load_experiment_dataset()
    orderings, _ = tc.crra_ordering_set()
    sampler = tc.SamplerConfig(d_t=pi.d_t, seed=0, outside_mode=False)
    est = tc.estimate(pi, menu, orderings, 3_000, sampler)
    return digest([{
        "best_distance": est.best_distance,
        "best_index": est.best_index,
        "best_p": est.best_p.p,
        "per_sim_distances": est.per_sim_distances,
        "best_rule": est.best_rule.u,
    }])


def estimate_8items_digest(tc) -> str:
    rng = np.random.default_rng(8)
    menu = tc.Menu(items=tuple("abcdefgh"), outside_index=7)
    orderings = tc.OrderingSet(
        tuple(tc.PreferenceOrdering(tuple(rng.permutation(8).tolist())) for _ in range(6))
    )
    pi = tc.ChoiceDataset(pi=rng.dirichlet(np.ones(8), size=6))
    sampler = tc.SamplerConfig(d_t=6, seed=0, outside_mode=True)
    est = tc.estimate(pi, menu, orderings, 300, sampler)
    return digest([{
        "best_distance": est.best_distance,
        "best_index": est.best_index,
        "best_p": est.best_p.p,
        "per_sim_distances": est.per_sim_distances,
        "best_rule": est.best_rule.u,
    }])


#: Draws per ``kmeans_sizes`` input, and the distinct times they give.
KMEANS_SIZES = {60: 60, 600: 586, 3_000: 2_774, 20_000: 12_746}


def kmeans_digest(tc) -> str:
    fps = []
    for n, distinct in KMEANS_SIZES.items():
        rng = np.random.default_rng(34)
        times = np.round(rng.lognormal(np.log(2.0 * 1.6 ** rng.integers(1, 6, n)), 0.3), 3)
        if np.unique(times).size != distinct:
            raise RuntimeError(f"{n} draws gave {np.unique(times).size} distinct times")
        for k in range(2, 7):
            fps.append({str(i): c for i, c in enumerate(tc.kmeans_1d(times, k))})
    return digest(fps)


#: ``timedchoice generate`` configs of the ``cli_outputs`` run, one per model.
GENERATE_CONFIGS = {
    "topn": {"items": ["a", "b", "c", "o"], "outside": "o", "outside_mode": True, "periods": 4,
             "search_order": ["o", "c", "a", "b"],
             "orderings": [["a", "b", "c", "o"], ["c", "b", "a", "o"]], "weights": [0.3, 0.7]},
    "mm": {"items": ["a", "b", "o"], "outside": "o", "outside_mode": True,
           "gamma": [[[0.2, 0.1, 1.0], [0.5, 0.4, 1.0], [0.9, 0.8, 1.0]],
                     [[0.1, 0.3, 1.0], [0.2, 0.6, 1.0], [0.3, 0.7, 1.0]]],
           "orderings": [["a", "b", "o"], ["b", "a", "o"]], "weights": [0.25, 0.75]},
    "satisficing": {"items": ["x", "y", "z"], "utilities": [3, 1, 2], "n_draws": 2_000,
                    "seed": 3,
                    "thresholds": [{"type": "normal", "mean": 1.0, "sd": 0.5},
                                   {"type": "normal", "mean": 2.0, "sd": 0.5}],
                    "search_orders": {"orders": [["z", "y", "x"], ["x", "y", "z"]],
                                      "probs": [0.25, 0.75]}},
    "diffusion": {"items": ["a", "b", "c"], "periods": 3, "drifts": [0.5, 0.2, 0.8],
                  "sigma": 1.0, "thresholds": [[2.0, 1.5, 2.5], [1.5, 1.0, 2.0], [1.0, 0.5, 1.5]],
                  "orderings": [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]]},
}


def cli_outputs_digest(tc) -> str:
    from timedchoice import dataio
    from timedchoice.cli import main

    with tempfile.TemporaryDirectory() as workdir, contextlib.redirect_stdout(io.StringIO()):
        d = Path(workdir)
        commands = []
        for model, cfg in GENERATE_CONFIGS.items():
            (d / f"{model}.json").write_text(json.dumps(cfg))
            commands.append(["generate", "--model", model, "--config", d / f"{model}.json",
                             "--out", d / f"{model}_pi.csv", "--rule-out", d / f"{model}_rule.csv",
                             "--counts-out", d / f"{model}_counts.csv"])
        lotteries = d / "lotteries.json"
        dataio.dump_json(lotteries, dataio.lotteries_to_json(tc.experiment_lotteries()))
        commands.append(["crra-table", "--lotteries", lotteries, "--out", d / "crra.json"])
        pi, menu = tc.load_experiment_dataset()
        dataio.write_pi_csv(d / "pi.csv", pi, menu)
        dataio.write_counts_csv(d / "counts.csv", pi.period_counts)
        commands.append(["estimate", "--pi", d / "pi.csv", "--sims", "300",
                         "--out", d / "estimate.json"])
        commands.append(["test", "--pi", d / "pi.csv", "--counts", d / "counts.csv",
                         "--sims", "300", "--boot", "49", "--seed", "2",
                         "--out", d / "test.json", "--boot-stats-out", d / "boot.csv"])
        for args in commands:
            if main([str(a) for a in args]) != 0:
                raise RuntimeError(f"timedchoice {args[0]} failed")
        return digest([{p.name: p.read_text() for p in sorted(d.iterdir())}])


#: ``(m, d)`` shapes and batch sizes of the ``solver_stress`` batches.
STRESS_SHAPES = ((9, 6), (4, 8))
STRESS_SIZES = (1, 199, 1_000)


def solver_stress_digest() -> str:
    from timedchoice.solvers import constrained_lstsq_batch

    rng = np.random.default_rng(14)
    fps = []
    for (m, d), k in ((shape, k) for shape in STRESS_SHAPES for k in STRESS_SIZES):
        M = rng.random((k, m, d))
        M[::3, :, d - 1] = 0.0
        M[1::3, :, 1] = M[1::3, :, 0]
        b = (M @ rng.dirichlet(np.ones(d), size=k)[:, :, None])[:, :, 0]
        b += rng.normal(scale=0.1, size=(k, m))
        w = rng.uniform(0.5, 2.0, size=(k, m))
        for sum_constraint in (True, False):
            for weights, lower in ((None, 0.0), (w, 0.5 / (4 * d))):
                p, obj, res = constrained_lstsq_batch(
                    M, b, weights=weights, lower=lower, sum_constraint=sum_constraint
                )
                fps.append({"p": p, "obj": obj, "res": res})
    return digest(fps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    import timedchoice as tc
    import workloads

    runs = {
        "montecarlo_seed0_60": partial(
            workload_digest, workloads, "montecarlo", workloads.DEFAULT_SEED, 60
        ),
        "montecarlo_heldout_20": partial(
            workload_digest, workloads, "montecarlo", workloads.HELD_OUT_SEED, 20
        ),
        "experiment_seed0_1": partial(
            workload_digest, workloads, "experiment", workloads.DEFAULT_SEED, 1
        ),
        "raw_pipeline_seed0_20": partial(
            workload_digest, workloads, "raw_pipeline", workloads.DEFAULT_SEED, 20
        ),
        "raw_pipeline_heldout_20": partial(
            workload_digest, workloads, "raw_pipeline", workloads.HELD_OUT_SEED, 20
        ),
        "api_K3000": partial(api_digest, tc),
        "estimate_K3000_no_outside": partial(no_outside_digest, tc),
        "estimate_8items": partial(estimate_8items_digest, tc),
        "kmeans_sizes": partial(kmeans_digest, tc),
        "cli_outputs": partial(cli_outputs_digest, tc),
        "solver_stress": solver_stress_digest,
    }
    out = {"src": str(args.src.resolve())}
    for name, run in runs.items():
        out[name] = run()
        print(f"{name}: {out[name]}", file=sys.stderr, flush=True)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
