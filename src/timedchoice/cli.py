"""Command-line pipeline: cluster, survive, estimate, test, generate, crra-table.

All subcommands are batch-oriented: files in, files plus a short summary
out.  Exit status is 0 on success, 1 on a validation/configuration
problem (a malformed command line included), and 2 on a numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import dataio
from .clustering import cluster_times
from .core import (
    ChoiceDataset,
    Menu,
    OrderingSet,
    PreferenceDistribution,
    PreferenceOrdering,
    _check_seed,
    all_orderings,
)
from .errors import SolverError, TimedChoiceError, ValidationError
from .estimator import estimate
from .generators import (
    FixedThreshold,
    GammaSchedule,
    NormalThreshold,
    SearchOrderDistribution,
    gen_diffusion,
    gen_mm,
    gen_satisficing,
    gen_topn,
)
from .hyptest import TestConfig, bootstrap_test, fit_test_rule
from .lotteries import crra_ordering_table, crra_ordering_set, experiment_menu
from .sampler import SamplerConfig
from .survival import survivor_search
from .transform import build_choice_transform, predict_choices


def _model_inputs(args) -> tuple[ChoiceDataset, Menu, OrderingSet]:
    """Read ``--pi`` and resolve the outside item and the orderings that ``estimate`` and ``test`` share."""
    dataset, menu = dataio.read_pi_csv(args.pi)
    if args.no_outside:
        menu = Menu(items=menu.items, outside_index=None)
    else:
        label = args.outside
        if label is None:
            label = "lO" if "lO" in menu.items else None
        if label is None:
            raise ValidationError(
                "outside mode needs an outside item; pass --outside LABEL or "
                "--no-outside"
            )
        if label not in menu.items:
            raise ValidationError(f"--outside {label!r} is not a column of --pi")
        menu = Menu(items=menu.items, outside_index=menu.items.index(label))
    return dataset, menu, _resolve_orderings(args.orderings, menu)


def _resolve_orderings(spec: str, menu: Menu) -> OrderingSet:
    if spec == "crra":
        exp_menu = experiment_menu()
        if set(menu.items) != set(exp_menu.items):
            raise ValidationError(
                "--orderings crra needs the experiment menu columns "
                f"{sorted(exp_menu.items)}"
            )
        base, _ = crra_ordering_set(include_outside_in_ranking=menu.outside_index is None)
        return OrderingSet(
            tuple(
                PreferenceOrdering.from_labels(menu, o.labels(exp_menu))
                for o in base
            )
        )
    if spec == "full":
        if menu.n > 6:
            raise ValidationError("--orderings full is capped at 6 items")
        full = all_orderings(menu.n)
        if menu.outside_index is None:
            return full
        return OrderingSet(tuple(o for o in full if o.rank[-1] == menu.outside_index))
    doc = dataio.load_json(spec)
    return dataio.orderings_from_json(doc, menu)


def _cmd_cluster(args) -> int:
    observations = dataio.read_observations_csv(args.input)
    if args.items:
        labels = tuple(args.items.split(","))
    else:
        labels = tuple(sorted({o.choice for o in observations}))
    menu = Menu(items=labels)
    clustering, dataset = cluster_times(
        observations, menu, args.periods, allow_empty_first=args.allow_empty_first
    )
    dataio.write_pi_csv(args.out, dataset, menu)
    if args.counts_out:
        dataio.write_counts_csv(args.counts_out, dataset.period_counts)
    print(f"clustered {len(observations)} observations into {dataset.d_t} periods")
    for t in range(dataset.d_t):
        print(
            f"  period {t + 1}: {dataset.period_counts[t]:4d} obs  "
            f"{dataset.period_labels[t]}"
        )
    return 0


def _cmd_survive(args) -> int:
    dataset, menu = dataio.read_pi_csv(args.pi)
    report = survivor_search(
        dataset, menu, never_chosen_rule=not args.no_never_chosen, tol=args.tol
    )
    doc = dataio.survivors_to_json(report, menu)
    if args.out:
        dataio.dump_json(args.out, doc)
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_estimate(args) -> int:
    dataset, menu, orderings = _model_inputs(args)
    config = SamplerConfig(
        d_t=dataset.d_t, seed=args.seed, outside_mode=not args.no_outside
    )
    result = estimate(dataset, menu, orderings, args.sims, config)
    print(result.summary())
    print("orderings:")
    for i, o in enumerate(orderings):
        print(f"  type {i}: {' > '.join(o.labels(menu))}")
    if args.out:
        dataio.dump_json(args.out, dataio.estimation_to_json(result, menu, orderings))
    return 0


def _cmd_test(args) -> int:
    dataset, menu, orderings = _model_inputs(args)
    counts = dataio.read_counts_csv(args.counts)
    dataset = ChoiceDataset(
        pi=dataset.pi, period_counts=counts, period_labels=dataset.period_labels
    )
    root = np.random.SeedSequence(_check_seed(args.seed, ValidationError))
    rule_seed, boot_seed = root.spawn(2)
    config = SamplerConfig(
        d_t=dataset.d_t, seed=rule_seed, outside_mode=not args.no_outside
    )
    try:
        tau = None if args.tau == "auto" else float(args.tau)
    except ValueError:
        raise ValidationError(f"--tau must be 'auto' or a number, got {args.tau!r}") from None
    test_config = TestConfig(
        tau_n=tau, n_boot=args.boot, alpha=args.alpha, seed=boot_seed,
        simplex_sum=not args.no_simplex_sum,
    )
    rule, transform = fit_test_rule(
        dataset, menu, orderings, args.sims, config, test_config
    )
    result = bootstrap_test(dataset, rule, transform, test_config)
    print(result.summary())
    if args.out:
        dataio.dump_json(args.out, dataio.test_to_json(result))
    if args.boot_stats_out:
        dataio.write_bootstrap_stats_csv(args.boot_stats_out, result)
    return 0


def _threshold_from_json(doc: dict):
    kind = dataio._check_object(doc, "a threshold").get("type", "normal")
    if kind == "normal":
        return NormalThreshold(doc["mean"], doc["sd"])
    if kind == "fixed":
        return FixedThreshold(doc["value"])
    raise ValidationError(f"unknown threshold type {kind!r}")


def _cmd_generate(args) -> int:
    cfg = dataio.load_json(args.config)
    menu = Menu(items=cfg["items"])
    if cfg.get("outside"):
        menu = Menu(items=menu.items, outside_index=menu.index_of(cfg["outside"]))
    outside_mode = cfg.get("outside_mode", False)
    if not isinstance(outside_mode, bool):
        raise ValidationError(f"outside_mode must be true or false, got {outside_mode!r}")

    if args.model == "satisficing":
        thresholds = [
            _threshold_from_json(d) for d in dataio._check_list(cfg["thresholds"], "thresholds")
        ]
        search = cfg.get("search_orders", "uniform")
        if search == "uniform":
            search_dist = SearchOrderDistribution.uniform(menu.n)
        else:
            search_dist = SearchOrderDistribution(
                tuple(tuple(menu.index_of(x) for x in o) for o in search["orders"]),
                tuple(search["probs"]),
            )
        rule, dataset = gen_satisficing(
            menu,
            cfg["utilities"],
            thresholds,
            search_dist,
            cfg.get("n_draws", 100_000),
            seed=cfg.get("seed"),
        )
    else:
        if cfg.get("orderings"):
            orderings = dataio.orderings_from_json(cfg, menu)
        else:
            orderings = OrderingSet((PreferenceOrdering(tuple(range(menu.n))),))
        d_pref = orderings.d_pref
        if args.model == "topn":
            rule = gen_topn(
                menu, cfg["periods"], cfg["search_order"], d_pref=d_pref,
                outside_mode=outside_mode,
            )
        elif args.model == "mm":
            rule = gen_mm(
                menu, GammaSchedule(cfg["gamma"]),
                outside_mode=outside_mode, d_pref=d_pref,
            )
        else:
            rule = gen_diffusion(
                menu, cfg["drifts"], cfg["sigma"], cfg["thresholds"], cfg["periods"],
                outside_mode=outside_mode, d_pref=d_pref,
            )
        weights = cfg.get("weights")
        p = (
            PreferenceDistribution(weights)
            if weights
            else PreferenceDistribution.uniform(d_pref)
        )
        transform = build_choice_transform(menu, rule.set_index, orderings)
        dataset = predict_choices(rule, transform, p)

    dataio.write_pi_csv(args.out, dataset, menu)
    if args.rule_out:
        dataio.write_rule_csv(args.rule_out, rule, menu)
    if args.counts_out and dataset.period_counts:
        dataio.write_counts_csv(args.counts_out, dataset.period_counts)
    elif args.counts_out:
        print(f"note: {args.counts_out} not written: the {args.model} model predicts "
              "frequencies and has no sample sizes", file=sys.stderr)
    print(f"wrote {dataset.d_t}x{menu.n} choice table to {args.out}")
    return 0


def _cmd_crra_table(args) -> int:
    lotteries = dataio.lotteries_from_json(dataio.load_json(args.lotteries))
    if args.exclude:
        drop = set(args.exclude)
        lotteries = tuple(l for l in lotteries if l.label not in drop)
    intervals = crra_ordering_table(lotteries)
    doc = {
        "schema_version": dataio.SCHEMA_VERSION,
        "intervals": [
            {
                "sigma_lo": iv.lo,
                "sigma_hi": iv.hi,
                "ordering": [lotteries[i].label for i in iv.ordering.rank],
            }
            for iv in intervals
        ],
    }
    for iv in intervals:
        order = " > ".join(lotteries[i].label for i in iv.ordering.rank)
        print(f"[{iv.lo:+.4f}, {iv.hi:+.4f}]  {order}")
    if args.out:
        dataio.dump_json(args.out, doc)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as a validation problem (exit 1).

    A value such as ``-1e-9`` is read as a negative number, not as an
    option: argparse's own pattern knows only ``-1`` and ``-.5`` forms.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = _ArgumentParser(
        prog="timedchoice",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster raw timed observations into periods")
    p.add_argument("--input", required=True)
    p.add_argument("--periods", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--counts-out")
    p.add_argument("--items", help="comma-separated column order (default: sorted)")
    p.add_argument("--allow-empty-first", action="store_true")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("survive", help="orderings surviving the contour tests")
    p.add_argument("--pi", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--no-never-chosen", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_survive)

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--pi", required=True)
    model.add_argument("--orderings", default="crra", help="crra | full | file.json")
    model.add_argument("--sims", type=int, default=1000)
    model.add_argument("--seed", type=int, default=0)
    model.add_argument("--outside", help="outside item label (default lO when present)")
    model.add_argument("--no-outside", action="store_true",
                       help="rank the outside item like any other; all nonempty "
                            "consideration sets become admissible")
    model.add_argument("--out")

    p = sub.add_parser("estimate", parents=[model],
                       help="best-of-K preference distribution")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("test", parents=[model], help="bootstrap specification test")
    p.add_argument("--counts", required=True)
    p.add_argument("--boot", type=int, default=999)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--tau", default="auto")
    p.add_argument("--no-simplex-sum", action="store_true",
                   help="drop the unit-sum constraint in the minimization")
    p.add_argument("--boot-stats-out",
                   help="CSV dump of the bootstrap statistic distribution")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("generate", help="synthetic choice data from a known rule")
    p.add_argument("--model", required=True,
                   choices=["topn", "mm", "satisficing", "diffusion"])
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rule-out")
    p.add_argument("--counts-out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("crra-table", help="constant-ordering risk-aversion intervals")
    p.add_argument("--lotteries", required=True)
    p.add_argument("--exclude", action="append",
                   help="drop a lottery label before tabulating (repeatable)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_crra_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: missing key {exc}", file=sys.stderr)
        return 1
    except (TimedChoiceError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
