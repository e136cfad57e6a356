"""File formats and bundled data.

CSV formats:

* choice-frequency table: header ``period,<item labels...>``, one row per
  period with the period label first;
* per-period counts: header ``period,count``;
* raw observations: header ``respondent_id,stopping_time,choice``.

JSON documents (orderings, lotteries, estimation/test/survival results)
all carry a ``schema_version`` field.

The package bundles the choice counts of a lottery-choice experiment with
recorded response times, clustered into six stopping-time periods over
five lotteries and a certain outside payment.  The zero-time period's
sample size is not recoverable from the published frequencies (every
zero-time respondent chose the outside payment, so its cells carry no
variance weight either way); the bundled table uses a placeholder of 25.
"""

from __future__ import annotations

import csv
import io
import json
from importlib import resources

import numpy as np

from .core import ChoiceDataset, Menu, OrderingSet, PreferenceOrdering, _check_probabilities
from .errors import ValidationError
from .lotteries import Lottery

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Choice-frequency tables
# ---------------------------------------------------------------------------

def write_pi_csv(path, pi: ChoiceDataset, menu: Menu) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", *menu.items])
        for t in range(pi.d_t):
            label = pi.period_labels[t] if pi.period_labels else str(t + 1)
            writer.writerow([label, *[repr(float(v)) for v in pi.pi[t]]])


def _read_table(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header and ``(line, cells)`` rows of a CSV file; blank lines are skipped.

    Raises:
        ValidationError: a row is not as wide as the header.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = []
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(header):
                raise ValidationError(
                    f"{path}, line {reader.line_num}: {len(cells)} values, "
                    f"expected {len(header)}"
                )
            rows.append((reader.line_num, cells))
    return header, rows


def _number(path, line: int, text: str, kind=float):
    """``kind(text)``, or a ValidationError naming the file and line."""
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"{path}, line {line}: {text!r} is not a number") from None


def read_pi_csv(path) -> tuple[ChoiceDataset, Menu]:
    """Read a choice-frequency table; the header defines the menu.

    A malformed cell, or a row that is not a distribution, fails naming its line.
    """
    header, rows = _read_table(path)
    if header[:1] != ["period"]:
        raise ValidationError(f"{path}: expected a header starting with 'period'")
    pi = np.array([[_number(path, line, v) for v in r[1:]] for line, r in rows])
    for (line, _), row in zip(rows, pi):
        try:
            _check_probabilities(row, "choice frequencies")
        except ValidationError as exc:
            raise ValidationError(f"{path}, line {line}: {exc}") from None
    return (
        ChoiceDataset(pi=pi, period_labels=tuple(r[0] for _, r in rows)),
        Menu(items=tuple(header[1:])),
    )


def write_counts_csv(path, counts) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "count"])
        for t, c in enumerate(counts, start=1):
            writer.writerow([t, int(c)])


def read_counts_csv(path) -> tuple[int, ...]:
    header, rows = _read_table(path)
    if header != ["period", "count"]:
        raise ValidationError(f"{path}: expected header 'period,count'")
    return tuple(_number(path, line, r[1], int) for line, r in rows)


def read_observations_csv(path):
    from .clustering import RawObservation

    header, rows = _read_table(path)
    names = ("respondent_id", "stopping_time", "choice")
    if not set(names) <= set(header):
        raise ValidationError(f"{path}: expected columns {','.join(names)}")
    rid, time, choice = (header.index(c) for c in names)
    observations = []
    for line, r in rows:
        stopping_time = _number(path, line, r[time])
        try:
            observations.append(RawObservation(r[rid], stopping_time, r[choice]))
        except ValidationError as exc:
            # Name the cell as written: 1e400 reads as inf.
            why = str(exc).rpartition(", got ")[0]
            raise ValidationError(f"{path}, line {line}: {why}, got {r[time]!r}") from None
    return observations


# ---------------------------------------------------------------------------
# Attention rules
# ---------------------------------------------------------------------------

def write_rule_csv(path, rule, menu: Menu) -> None:
    """One row per period; one column per (preference block, set)."""
    headers = []
    for i in range(rule.d_pref):
        for mask in rule.set_index.masks:
            members = "+".join(
                menu.items[b] for b in range(menu.n) if mask >> b & 1
            )
            headers.append(f"pref{i}|{members}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", *headers])
        for t in range(rule.d_t):
            writer.writerow([t + 1, *[repr(float(v)) for v in rule.u[t]]])


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def orderings_to_json(orderings: OrderingSet, menu: Menu) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "items": list(menu.items),
        "orderings": [list(o.labels(menu)) for o in orderings],
    }


def orderings_from_json(doc: dict, menu: Menu) -> OrderingSet:
    return OrderingSet(
        tuple(
            PreferenceOrdering.from_labels(menu, labels)
            for labels in doc["orderings"]
        )
    )


def lotteries_to_json(lotteries) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "lotteries": [
            {"label": l.label, "outcomes": [[x, q] for x, q in l.outcomes]}
            for l in lotteries
        ],
    }


def lotteries_from_json(doc: dict) -> tuple[Lottery, ...]:
    return tuple(
        Lottery(entry["label"], tuple((x, q) for x, q in entry["outcomes"]))
        for entry in doc["lotteries"]
    )


def estimation_to_json(result, menu: Menu, orderings: OrderingSet) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n_sims": result.n_sims,
        "seed": result.seed,
        "best_index": result.best_index,
        "best_distance": result.best_distance,
        "preference_weights": [
            {"ordering": list(orderings[i].labels(menu)), "weight": float(w)}
            for i, w in enumerate(result.best_p.p)
        ],
        "failed_simulations": list(result.failed_indices),
    }


def write_bootstrap_stats_csv(path, result) -> None:
    """Dump the bootstrap statistic distribution, one replication per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replication", "statistic"])
        for l, value in enumerate(result.bootstrap_stats, start=1):
            writer.writerow([l, repr(float(value))])


def test_to_json(result) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "statistic": result.statistic,
        "critical_value": result.critical_value,
        "p_value": result.p_value,
        "reject": result.reject,
        "alpha": result.alpha,
        "tau_n": result.tau_n,
        "n_boot": result.n_boot,
        "n_unconverged": result.n_unconverged,
        "degenerate": result.degenerate,
    }


def survivors_to_json(report, menu: Menu) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "vacuous": report.vacuous,
        "survivors": [list(o.labels(menu)) for o in report.survivors],
        "rejected_prefixes": [
            {
                "prefix": [menu.items[i] for i in rp.prefix],
                "witness": type(rp.witness).__name__,
            }
            for rp in report.rejected
        ],
    }


def dump_json(path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Bundled experiment data
# ---------------------------------------------------------------------------

def _data_text(name: str) -> str:
    return resources.files("timedchoice.data").joinpath(name).read_text()


def load_experiment_dataset() -> tuple[ChoiceDataset, Menu]:
    """The bundled clustered experiment data, frequencies exact from counts."""
    text = _data_text("experiment_choice_counts.csv")
    rows = list(csv.reader(io.StringIO(text)))
    labels = tuple(rows[0][1:])
    menu = Menu(items=labels, outside_index=labels.index("lO"))
    counts = np.array([[int(v) for v in r[1:]] for r in rows[1:]], dtype=np.float64)
    totals = counts.sum(axis=1)
    pi = counts / totals[:, None]
    return (
        ChoiceDataset(
            pi=pi,
            period_counts=tuple(int(t) for t in totals),
            period_labels=tuple(r[0] for r in rows[1:]),
        ),
        menu,
    )
