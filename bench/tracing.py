"""Span tracing from outside the package.

Each public function a layer exposes is wrapped in the module namespace its
callers look it up in.  ``from .x import f`` binds ``f`` at import time, so
``timedchoice.estimator.sample_attention_rule`` has to be replaced, not
``timedchoice.sampler.sample_attention_rule``.  A wrapper records a span
(name, start, end, parent) and passes arguments and results through
untouched, so traced outputs are bit-identical to untraced ones.  Spans are
kept in memory; the caller writes them out at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

import numpy as np

#: Where each package function is looked up by the code the workloads run.
#: ``sampler`` binds the lattice transforms (its default scheme calls only
#: ``moebius_inverse``); ``estimator`` and ``hyptest`` bind the sampler,
#: transform and solver functions they call.
SAMPLER, ESTIMATOR, HYPTEST = (
    "timedchoice.sampler", "timedchoice.estimator", "timedchoice.hyptest"
)


class Span(NamedTuple):
    """One call into a layer.

    A tuple of plain values: the cycle collector stops tracking it, so a
    long trace does not slow collections down.
    """

    name: str
    task: int
    start: float
    end: float
    parent: int | None
    attrs: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solver_attrs(fn, args, kwargs, result):
    tol = kwargs.get("kkt_tol", inspect.signature(fn).parameters["kkt_tol"].default)
    res = np.atleast_1d(np.asarray(result[2], dtype=np.float64))  # (p, obj, res)
    return {
        "problems": int(res.size),
        "unconverged": int(np.count_nonzero(res > tol)),
        "max_kkt": float(res.max()) if res.size else 0.0,
    }


def _kmeans_attrs(fn, args, kwargs, result):
    return {"distinct_values": int(np.unique(np.asarray(args[0])).size)}


def _survivor_attrs(fn, args, kwargs, result):
    return {"survivors": len(result.survivors), "rejected_prefixes": len(result.rejected)}


def _boot_attrs(fn, args, kwargs, result):
    return {"boot_reps": int(result.n_boot)}


def targets():
    """(module, attribute, span name, attribute hook) for every wrapped binding.

    Only bindings that some workload reaches are listed; each must exist.
    """
    return [
        ("timedchoice", "estimate", "estimator.estimate", None),
        ("timedchoice", "fit_test_rule", "hyptest.fit_test_rule", None),
        ("timedchoice", "bootstrap_test", "hyptest.bootstrap_test", _boot_attrs),
        ("timedchoice.cli", "main", "cli.main", None),
        ("timedchoice.cli", "cluster_times", "clustering.cluster_times", None),
        ("timedchoice.cli", "survivor_search", "survival.survivor_search", _survivor_attrs),
        ("timedchoice.clustering", "kmeans_1d", "clustering.kmeans", _kmeans_attrs),
        ("timedchoice.dataio", "read_observations_csv", "dataio.read", None),
        ("timedchoice.dataio", "read_pi_csv", "dataio.read", None),
        ("timedchoice.dataio", "write_pi_csv", "dataio.write", None),
        ("timedchoice.dataio", "write_counts_csv", "dataio.write", None),
        (SAMPLER, "enumerate_sets", "core.enumerate_sets", None),
        (SAMPLER, "moebius_inverse", "core.lattice", None),
        (ESTIMATOR, "enumerate_sets", "core.enumerate_sets", None),
        (ESTIMATOR, "sample_attention_rule", "sampler.sample_attention_rule", None),
        (ESTIMATOR, "build_choice_transform", "transform.build", None),
        (ESTIMATOR, "design_matrix_batch", "transform.design", None),
        (ESTIMATOR, "constrained_lstsq_batch", "solvers.lstsq", _solver_attrs),
        (HYPTEST, "enumerate_sets", "core.enumerate_sets", None),
        (HYPTEST, "sample_attention_rule", "sampler.sample_attention_rule", None),
        (HYPTEST, "build_choice_transform", "transform.build", None),
        (HYPTEST, "design_matrix", "transform.design", None),
        (HYPTEST, "design_matrix_batch", "transform.design", None),
        (HYPTEST, "constrained_lstsq_batch", "solvers.lstsq", _solver_attrs),
    ]


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[Span | None] = []  # None while a call is still open
        self.task = 0  # spans of one benchmark task share this identifier
        self._open: list[int] = []

    def wrap(self, name, fn, hook=None):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else None
            spans.append(None)
            open_spans.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                spans[index] = Span(name, self.task, start, end, parent,
                                    {"error": type(exc).__name__})
                raise
            finally:
                open_spans.pop()
            end = perf_counter()
            attrs = hook(fn, args, kwargs, result) if hook is not None else None
            spans[index] = Span(name, self.task, start, end, parent, attrs)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it.

        Raises:
            RuntimeError: a binding was not restored to its original object.
        """
        saved = []
        try:
            for mod_name, attr, span_name, hook in targets():
                module = importlib.import_module(mod_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            left = [f"{m.__name__}.{a}" for m, a, o in saved if getattr(m, a) is not o]
            if left:
                raise RuntimeError(f"wrappers left installed: {left}")

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "task": s.task, "start": s.start, "end": s.end,
             "parent": s.parent, **(s.attrs or {})}
            for s in self.spans
        ]
