#!/usr/bin/env python3
"""Benchmark of the timedchoice pipeline.

Run from the repository root:

    python3 bench/run.py --workload experiment|montecarlo|raw_pipeline \\
        [--seed 0] [--seconds 36] [--trace 0|1]

``--seed`` defaults to 0, which reproduces the acceptance suite's seeds;
``workloads.HELD_OUT_SEED`` is kept for confirming a claim on inputs not used
while tuning.  The package is imported from ``src/`` of the same checkout.

Each task is a closed loop of calls into the package; tasks run while the
next one is expected to end within ``--seconds`` (at least the workload's
``min_tasks`` run).
Every task's outputs are checked outside the timed region.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, the raw samples and every stage metric of the workload.

* ``--trace 0`` reports the end-to-end metrics, measured untraced:
  ``setup_s`` (median over this process and ``SETUP_PROBES`` fresh ones of
  imports, data loading, candidate orderings and input generation; half the
  fresh ones start before the measured tasks and half after), ``task_s``
  (median wall time per task on each CPU, averaged over the CPUs) and
  ``peak_rss_mb``.
* ``--trace 1`` runs each task twice, untraced and traced in alternating
  order, checks that their outputs are bit-identical, and reports per-layer
  metrics from the traced runs (per task means) plus the workload's stage
  metrics and ``failed_frac`` from the untraced ones.  Spans go to
  ``.bench_out/``.

BLAS threads are pinned to the number of usable cores before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh processes timing the set-up in an untraced run, besides the run's own.
SETUP_PROBES = 8


def pin_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, if the checkout itself is a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_task(wl, i: int, tracer=None):
    """One closed-loop task: (wall seconds, stages, outputs, failures)."""
    t0 = perf_counter()
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            stages, outputs = wl.task(i)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return perf_counter() - t0, None, None, [f"task {i} raised"]
    wall = perf_counter() - t0
    try:
        failures = wl.check(i, outputs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        failures = [f"check of task {i} raised"]
    return wall, stages, outputs, failures


@dataclass
class Measurement:
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    stages: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def measure(wl, seconds: float, tracer=None) -> Measurement:
    """Run tasks while the next one is expected to end within ``seconds``.

    At least ``wl.min_tasks`` tasks run, and their outputs are passed to
    ``wl.finish``.  With a tracer each task runs twice, untraced and traced,
    and the two outputs must be bit-identical.

    The CPUs of a shared host slow down independently of each other, for
    tens of seconds at a time, and a lone thread tends to stay on one of
    them.  So the calling thread takes the usable CPUs in turn, one per
    task, and every run samples all of them.
    """
    import checks

    cpus = sorted(os.sched_getaffinity(0))
    m = Measurement()
    outs = []
    start = perf_counter()
    last = 0.0
    i = 0
    try:
        while i < wl.min_tasks or perf_counter() - start + last <= seconds:
            cpu = cpus[i % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            t0 = perf_counter()
            # Alternate which of the pair runs first, so order effects cancel.
            order = [None] if tracer is None else [None, tracer][:: -1 if i % 2 else 1]
            runs = {}
            for tr in order:
                if tr is not None:
                    tr.task = i
                runs[tr is not None] = run_task(wl, i, tr)
            wall, stages, out, bad = runs[False]
            if tracer is not None:
                t_wall, _, t_out, t_bad = runs[True]
                m.traced_walls.append(t_wall)
                bad = bad + t_bad
                if out is not None and t_out is not None:
                    bad += checks.same_outputs(wl.fingerprint(out), wl.fingerprint(t_out))
            m.attempted += 1
            # Only the verdict prefix is kept, so peak memory does not grow
            # with the number of tasks that fit into the measured time.
            if i < wl.min_tasks:
                outs.append(out)
            if out is not None:
                m.walls.append(wall)
                m.cpus.append(cpu)
                m.stages.append(stages)
            if bad:
                m.failed += 1
                m.failures += bad
            last = perf_counter() - t0
            i += 1
    finally:
        os.sched_setaffinity(0, cpus)
    run_level = wl.finish(outs)
    if run_level is not None:
        m.attempted += 1
        m.failed += bool(run_level)
        m.failures += run_level
    return m


def task_seconds(walls: list, cpus: list) -> float:
    """Mean over CPUs of the median task wall time on each CPU.

    The median ignores a stalled task; the mean over CPUs weighs a slow
    CPU and a fast one equally, where a median over all tasks would fall
    into the gap between them.
    """
    by_cpu: dict[int, list] = {}
    for wall, cpu in zip(walls, cpus):
        by_cpu.setdefault(cpu, []).append(wall)
    return statistics.mean(statistics.median(w) for w in by_cpu.values())


def layer_metrics(tracer, n_tasks: int) -> dict:
    """Per-layer totals from the spans, as means per traced task."""
    selfs = tracer.self_times()
    tot: dict[str, float] = {}
    kkt = 0.0

    def add(key, value):
        tot[key] = tot.get(key, 0.0) + value

    for span, self_s in zip(tracer.spans, selfs):
        add(span.name + ".calls", 1)
        add(span.name + ".s", span.duration)
        add(span.name + ".self_s", self_s)
        attrs = span.attrs or {}
        for key in ("problems", "unconverged", "distinct_values", "survivors",
                    "rejected_prefixes", "boot_reps"):
            if key in attrs:
                add(f"{span.name}.{key}", attrs[key])
        kkt = max(kkt, attrs.get("max_kkt", 0.0))

    def get(key):
        return tot.get(key, 0.0)

    def rate(num, den):
        return get(num) / get(den) if get(den) > 0 else 0.0

    per_task = {
        "sampler.self_s": get("sampler.sample_attention_rule.self_s"),
        "sampler.rules": get("sampler.sample_attention_rule.calls"),
        "core.enumerate_sets.calls": get("core.enumerate_sets.calls"),
        "core.enumerate_sets.s": get("core.enumerate_sets.s"),
        "core.lattice.calls": get("core.lattice.calls"),
        "core.lattice.s": get("core.lattice.s"),
        "transform.design.calls": get("transform.design.calls"),
        "transform.design.s": get("transform.design.s"),
        "transform.build.s": get("transform.build.s"),
        "solvers.batches": get("solvers.lstsq.calls"),
        "solvers.problems": get("solvers.lstsq.problems"),
        "solvers.s": get("solvers.lstsq.s"),
        "solvers.unconverged": get("solvers.lstsq.unconverged"),
        "estimator.self_s": get("estimator.estimate.self_s"),
        "hyptest.fit_self_s": get("hyptest.fit_test_rule.self_s"),
        "hyptest.boot_self_s": get("hyptest.bootstrap_test.self_s"),
        "hyptest.boot_reps": get("hyptest.bootstrap_test.boot_reps"),
        "clustering.kmeans.s": get("clustering.kmeans.s"),
        "clustering.self_s": get("clustering.cluster_times.self_s"),
        "clustering.distinct_values": get("clustering.kmeans.distinct_values"),
        "survival.s": get("survival.survivor_search.s"),
        "survival.survivors": get("survival.survivor_search.survivors"),
        "survival.rejected_prefixes": get("survival.survivor_search.rejected_prefixes"),
        "dataio.read.s": get("dataio.read.s"),
        "dataio.write.s": get("dataio.write.s"),
        "cli.self_s": get("cli.main.self_s"),
    }
    out = {k: v / n_tasks for k, v in per_task.items()}
    out["sampler.rules_per_s"] = rate(
        "sampler.sample_attention_rule.calls", "sampler.sample_attention_rule.s"
    )
    out["solvers.problems_per_s"] = rate("solvers.lstsq.problems", "solvers.lstsq.s")
    out["solvers.max_kkt"] = kkt
    return out


def spec() -> dict:
    """The benchmark's ``BENCHMARK.json``, which names every metric and its unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def setup_probes(args, n: int) -> list[float]:
    """Set-up seconds of ``n`` fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(n):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def benchmark(wl, seconds: float, trace: bool, setup: list[float], probe=None):
    """Measure a constructed workload; returns (result line, detail record).

    ``setup`` holds the set-up seconds measured so far.  An untraced run
    adds ``probe(n)`` samples, half before the measured tasks and half
    after, so that the set-up samples see the host as the tasks do.
    """
    import tracing

    tracer = tracing.Tracer() if trace else None
    if probe is not None and not trace:
        setup = setup + probe(SETUP_PROBES // 2)
    m = measure(wl, seconds, tracer)
    if probe is not None and not trace:
        setup = setup + probe(SETUP_PROBES - SETUP_PROBES // 2)
    stage = {k: metric(*v) for k, v in wl.stage_metrics(m.stages).items()} if m.stages else {}
    failed_frac = m.failed / m.attempted
    if trace:
        units = {x["name"]: x["unit"] for x in spec()["per_layer"]}
        values = layer_metrics(tracer, max(len(m.traced_walls), 1))
        paired = sum(m.walls[: len(m.traced_walls)])
        values["trace.overhead_frac"] = (
            sum(m.traced_walls) / paired - 1.0 if m.traced_walls else 0.0
        )
        values["failed_frac"] = failed_frac
        values.update({k: v["value"] for k, v in stage.items()})
        if set(values) - set(units):
            raise ValueError(f"metrics missing from BENCHMARK.json: {set(values) - set(units)}")
        # A layer a workload never reaches reports zero work.
        metrics = {name: metric(values.get(name, 0.0), unit) for name, unit in units.items()}
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "task_s": metric(task_seconds(m.walls, m.cpus) if m.walls else 0.0, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    detail = {
        "tasks": len(m.walls), "task_walls_s": m.walls, "task_cpus": m.cpus,
        "traced_walls_s": m.traced_walls,
        "setup_samples_s": setup, "stage_metrics": stage, "failed_frac": failed_frac,
        "failures": m.failures[:20],
    }
    if trace:
        detail["spans"] = tracer.to_json()
    result = {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["experiment", "montecarlo", "raw_pipeline"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "timedchoice" / "__init__.py").is_file():
        print(f"error: no timedchoice package under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        t0 = perf_counter()
        import timedchoice
        import workloads

        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        first = perf_counter() - t0
        if Path(timedchoice.__file__).resolve().parent != SRC / "timedchoice":
            print(f"error: imported timedchoice from {timedchoice.__file__}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(json.dumps({"setup_s": first}))
            return 0
        result, detail = benchmark(wl, args.seconds, bool(args.trace), [first],
                                   lambda n: setup_probes(args, n))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(nproc), **detail}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**detail, "result": result}) + "\n")
    detail.pop("spans", None)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
