#!/usr/bin/env python3
"""A/B runs of the benchmark: a parent commit against a change, in alternating pairs.

Run from the repository root:

    python3 tools/ab.py --out BENCH_<N>.json [--parent REV] [--pairs 10]

The parent (default ``HEAD``) is exported with ``git archive``, and the
change is a copy of the working tree's tracked and untracked, not ignored,
files, each into a fresh directory under a temporary folder.  For each
workload, pair ``i`` runs ``python3 bench/run.py --workload W`` (seed 0) in
both trees, the parent first in odd pairs and the change first in even
pairs, at the benchmark's own run length, and reads the result line of each
run.

Writes ``--out`` afresh with one ``final_sets`` entry per workload and
prints a table of the medians.  For each end-to-end metric of
``BENCHMARK.json`` an entry holds the raw ``parent`` and ``change`` values,
their medians, the parent's quartiles, its quartile spread as a share of its
median (``parent_spread_frac``), the change's median relative to the
parent's (``change_vs_parent``) and the pairs in which the change read lower
(``change_lower_in``).  Quartiles are linear in
position, as ``statistics.quantiles(method="inclusive")`` gives them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("experiment", "montecarlo", "raw_pipeline")


def end_to_end_metrics() -> list[str]:
    """The end-to-end metric names of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]]


def compare(parent: list[float], change: list[float]) -> dict:
    """One metric's entry from paired runs: ``parent[i]`` and ``change[i]`` ran as pair ``i``."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    lower = sum(c < p for p, c in zip(parent, change))
    return {
        "parent": [round(x, 5) for x in parent],
        "change": [round(x, 5) for x in change],
        "parent_median": round(p_med, 5),
        "change_median": round(c_med, 5),
        "parent_quartiles": [round(q1, 5), round(q3, 5)],
        "parent_spread_frac": round((q3 - q1) / p_med, 3),
        "change_vs_parent": round(c_med / p_med - 1.0, 4),
        "change_lower_in": f"{lower}/{len(parent)}",
    }


def summarize(workload: str, pairs: list[tuple[dict, dict]], metrics) -> dict:
    """The ``final_sets`` entry of one workload from its ``(parent, change)`` result pairs.

    Each result is the last line of ``bench/run.py`` (``correct``,
    ``attempted``, ``failed`` and ``metrics``) with the run's task count
    added as ``tasks``.
    """
    sides = {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}
    entry = {
        "workload": workload,
        "pairs": len(pairs),
        "order": "odd pairs parent first, even pairs change first",
        "all_correct": all(r["correct"] for runs in sides.values() for r in runs),
        "failed": {side: sum(r["failed"] for r in runs) for side, runs in sides.items()},
        "attempted": {side: sum(r["attempted"] for r in runs) for side, runs in sides.items()},
        "tasks": {side: [r["tasks"] for r in runs] for side, runs in sides.items()},
    }
    for name in metrics:
        entry[name] = compare(
            *([r["metrics"][name]["value"] for r in runs] for runs in sides.values())
        )
    return entry


def export(rev: str | None, dest: Path) -> Path:
    """Commit ``rev``, or the working tree for ``None``, as a fresh directory ``dest``."""
    dest.mkdir(parents=True)
    if rev is None:
        files = subprocess.run(
            ["git", "ls-files", "-z", "-co", "--exclude-standard"],
            cwd=ROOT, check=True, capture_output=True,
        ).stdout.decode().split("\0")
        for name in filter(None, files):
            if (ROOT / name).is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
        return dest
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_bench(tree: Path, workload: str) -> tuple[dict, dict]:
    """One ``bench/run.py`` run in ``tree``: its result line with ``tasks`` added, and its host."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {tree}:\n{proc.stderr}")
    detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {**result, "tasks": detail["tasks"]}, detail["env"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: the parent's quartiles need two runs")
    metrics = end_to_end_metrics()
    entries, env = [], None
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {
            "parent": export(args.parent, Path(tmp) / "parent"),
            "change": export(None, Path(tmp) / "change"),
        }
        for workload in WORKLOADS:
            pairs = []
            for i in range(1, args.pairs + 1):
                runs = {}
                for side in ("parent", "change") if i % 2 else ("change", "parent"):
                    runs[side], env = run_bench(trees[side], workload)
                pairs.append((runs["parent"], runs["change"]))
                print(f"{workload} pair {i}/{args.pairs} done", file=sys.stderr, flush=True)
            entries.append(summarize(workload, pairs, metrics))
    doc = {
        "command": "python3 bench/run.py --workload W",
        "method": f"python3 tools/ab.py --pairs {args.pairs}: parent {args.parent} from git "
                  "archive, change from the working tree, each in its own directory",
        "env": env,
        "final_sets": entries,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print("| workload | " + " | ".join(f"`{m}`" for m in metrics) + " |")
    print("| --- |" + " --- |" * len(metrics))
    for e in entries:
        cells = [
            f"{e[m]['parent_median']:g} → {e[m]['change_median']:g} "
            f"({e[m]['change_vs_parent']:+.1%}; spread {e[m]['parent_spread_frac']:.0%}; "
            f"lower in {e[m]['change_lower_in']})"
            for m in metrics
        ]
        print(f"| {e['workload']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
