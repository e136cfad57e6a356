"""The benchmark tracer's view of the package stays valid.

``bench/tracing.py`` wraps package functions by module and attribute name,
and reads the solver's default KKT tolerance from its signature, so a
rename or a dropped parameter breaks ``bench/run.py --trace 1`` runs.  The
pool draw is a plain function, so a wrapped one times every slab's draw.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import timedchoice as tc
from timedchoice import estimator, sampler, solvers

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    for module_name, attr, _, _ in _tracing().targets():
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_solver_hook_reads_the_default_tolerance():
    res = np.array([0.0, solvers.KKT_TOL, 2 * solvers.KKT_TOL])
    attrs = _tracing()._solver_attrs(
        solvers.constrained_lstsq_batch, (), {}, (None, None, res)
    )
    assert attrs == {"problems": 3, "unconverged": 1, "max_kkt": 2 * solvers.KKT_TOL}


def test_pool_draw_is_traced_once_per_chunk(monkeypatch):
    menu = tc.Menu(items=("a", "b", "c"))
    orderings = tc.all_orderings(3)
    pi = tc.ChoiceDataset(pi=np.random.default_rng(0).dirichlet(np.ones(3), size=3))
    config = tc.SamplerConfig(d_t=3, seed=0, outside_mode=False)
    tracer = _tracing().Tracer()

    def count_rules(fn, args, kwargs, result):
        return {"rules": len(args[5])}  # args: enum, d_pref, config, root, first, out

    counted = tracer.wrap("sampler.draw", estimator._draw_children, count_rules)
    monkeypatch.setattr(estimator, "_draw_children", counted)
    monkeypatch.setattr(estimator, "CHUNK", 4)
    tc.estimate(pi, menu, orderings, 10, config)
    spans = [s for s in tracer.spans if s.name == "sampler.draw"]
    assert [s.attrs["rules"] for s in spans] == [4, 4, 2]
    assert all(s.duration > 0 for s in spans)


def test_pool_draw_is_traced_once_per_slab(monkeypatch):
    """Chunks of 4 rules drawn in slabs of 2: one span per slab, and one for the re-draw."""
    menu = tc.Menu(items=("a", "b", "c"))
    orderings = tc.all_orderings(3)
    # 6 types over 7 sets: two rules' fallback cells make blocks and slabs of 2.
    monkeypatch.setattr(sampler, "_BLOCK_CELLS", 2 * 6 * 7 * 7)
    assert sampler._slab_rules(4, 6, 7) == 2
    config = tc.SamplerConfig(d_t=4, seed=1, outside_mode=False)
    transform = tc.build_choice_transform(menu, tc.enumerate_sets(menu), orderings)
    truth = tc.sample_attention_rules(menu, orderings, config, 10)[4]
    rule = tc.AttentionRule(u=truth.reshape(4, -1), set_index=transform.sets, d_pref=6)
    pi = tc.predict_choices(rule, transform, tc.PreferenceDistribution.uniform(6))
    tracer = _tracing().Tracer()

    def count_rules(fn, args, kwargs, result):
        # args: enum, d_pref, config, root, first, out
        return {"first": args[4], "rules": len(args[5])}

    counted = tracer.wrap("sampler.draw", estimator._draw_children, count_rules)
    monkeypatch.setattr(estimator, "_draw_children", counted)
    monkeypatch.setattr(estimator, "CHUNK", 4)
    result = tc.estimate(pi, menu, orderings, 10, config)
    # Rule 4 is in slab [4, 6) of chunk [4, 8): slab [6, 8) overwrote it, so
    # it is drawn again as a 1-rule span after the five slabs.
    assert result.best_index == 4
    np.testing.assert_array_equal(result.best_rule.blocks(), truth)
    spans = [s for s in tracer.spans if s.name == "sampler.draw"]
    assert [(s.attrs["first"], s.attrs["rules"]) for s in spans] == [
        (0, 2), (2, 2), (4, 2), (6, 2), (8, 2), (4, 1)
    ]
    assert all(s.duration > 0 for s in spans)
