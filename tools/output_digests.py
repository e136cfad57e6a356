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
* ``kmeans_sizes``: ``kmeans_1d`` at k = 2, ..., 6 on lognormal stopping
  times rounded to 1 ms, with 60, 586, 2,774 and 12,746 distinct values
  (``KMEANS_SIZES`` draws); each cluster is hashed in order.
* ``solver_stress``: ``(p, obj, res)`` of ``constrained_lstsq_batch`` on
  fixed-seed random batches of k = 1, 199 and 1,000 problems, in simplex and
  orthant mode, unweighted with ``lower = 0`` and weighted with ``lower > 0``,
  with a zero column in every third problem and a duplicate column in every
  third, at the ``montecarlo`` shape (9 x 6) and a wide shape (4 x 8).
"""

from __future__ import annotations

import argparse
import hashlib
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
        "kmeans_sizes": partial(kmeans_digest, tc),
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
