"""Domain types for choice data with stopping times under limited consideration.

The objects here describe a fixed menu of alternatives, the subsets of the
menu a decision-maker may actually look at (consideration sets), strict
preference orderings, choice frequencies observed per stopping-time period,
and attention rules: probability distributions over consideration sets,
conditional on the time period and the preference type.

The central behavioral restriction is *time monotonicity*: the probability
that attention stays confined within any proper subset of the menu may only
fall as people take longer to decide ("explore more, never forget").
:func:`check_time_monotonicity` verifies it through accumulated attention,
the subset-sum (zeta) transform of an attention row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigurationError, ValidationError

#: Tolerance used when validating that probability vectors sum to one.
ROW_SUM_TOL = 1e-9

#: Default tolerance for the time-monotonicity check.
MONOTONICITY_TOL = 1e-9


def _check_tol(value, what: str = "tol", *, positive: bool = False, error=ValidationError) -> None:
    """Raise ``error`` unless ``value`` is finite and nonnegative (``positive``: above zero).

    An array is checked entry by entry and reported by its offending extreme.
    The comparisons are written so that NaN fails them too.
    """
    lo = hi = value
    if isinstance(value, np.ndarray):
        lo, hi = float(value.min(initial=np.inf)), float(value.max(initial=0.0))
    low_ok = 0.0 < lo if positive else 0.0 <= lo
    if not (low_ok and hi < np.inf):
        sign = "positive" if positive else "nonnegative"
        raise error(f"{what} must be finite and {sign}, got {hi if low_ok else lo!r}")


def _check_count(count, what: str, least: int = 0, *, error=ValidationError) -> int:
    """``count`` as an ``int``, if it is a Python or numpy integer of at least ``least``.

    A bool is not a count.  Converting matters: index arithmetic on an
    unsigned numpy integer wraps.
    """
    if isinstance(count, (bool, np.bool_)) or not isinstance(count, (int, np.integer)):
        raise error(f"{what} must be an integer, got {count!r}")
    if int(count) < least:
        raise error(f"{what} must be at least {least}, got {count}")
    return int(count)


def _check_probabilities(table: NDArray, what: str, sums: bool = True) -> None:
    """Raise unless every entry of ``table`` lies in [0, 1] and each last-axis slice sums to one.

    Within 1e-12 and :data:`ROW_SUM_TOL`; ``sums=False`` checks the range only.  Both
    tests are written so that NaN fails them, and a table without entries has none to test.
    """
    if table.size and not (table.min() >= -1e-12 and table.max() <= 1 + 1e-12):
        raise ValidationError(f"{what} must lie in [0, 1]")
    total = table.sum(axis=-1)
    if sums and total.size and not np.abs(total - 1.0).max() <= ROW_SUM_TOL:
        raise ValidationError(f"{what} must sum to one")


def _as_readonly(a: NDArray, dtype=np.float64) -> NDArray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Menu:
    """A fixed, fully observed menu of mutually exclusive alternatives.

    Attributes:
        items: Item labels, in canonical column order.
        outside_index: Index of an always-available default alternative,
            if the application singles one out (e.g. "choose nothing");
            ``None`` when no such alternative exists.
    """

    items: tuple[str, ...]
    outside_index: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) < 2:
            raise ValidationError("a menu needs at least two items")
        if len(set(self.items)) != len(self.items):
            raise ValidationError("menu labels must be unique")
        if self.outside_index is not None and not (
            0 <= self.outside_index < len(self.items)
        ):
            raise ValidationError(
                f"outside_index {self.outside_index} out of range for "
                f"{len(self.items)} items"
            )

    @property
    def n(self) -> int:
        return len(self.items)

    def index_of(self, label: str) -> int:
        try:
            return self.items.index(label)
        except ValueError:
            raise ValidationError(f"unknown menu item {label!r}") from None


@dataclass(frozen=True)
class ConsiderationSet:
    """A nonempty subset of menu items, stored as a bitmask over indices."""

    mask: int

    def __post_init__(self):
        if self.mask <= 0:
            raise ValidationError("a consideration set must be nonempty")

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.mask.bit_length()) if self.mask >> i & 1)

    def labels(self, menu: Menu) -> tuple[str, ...]:
        return tuple(menu.items[i] for i in self.members())


@dataclass(frozen=True)
class SetEnumeration:
    """Canonical ordering of the admissible consideration sets of a menu.

    Sets are ordered by ascending bitmask with item 0 as the lowest bit.  In
    outside mode only sets containing the outside item are admissible; the
    outside bit is forced on and excluded from the enumerated bits, so index
    0 is the outside-only singleton and the last index is the full menu.
    The index space of the enumeration forms a subset lattice over
    ``n_bits`` free bits, which is what the fast zeta/Moebius transforms
    operate on.
    """

    menu: Menu
    outside_mode: bool
    masks: tuple[int, ...]

    @property
    def d_c(self) -> int:
        return len(self.masks)

    @property
    def full_index(self) -> int:
        """Index of the full menu (always last in canonical order)."""
        return len(self.masks) - 1

    @property
    def n_bits(self) -> int:
        """Number of free bits in the enumeration lattice."""
        return self.menu.n - 1 if self.outside_mode else self.menu.n

    def sets(self) -> tuple[ConsiderationSet, ...]:
        return tuple(ConsiderationSet(m) for m in self.masks)

    def index_of(self, cset: ConsiderationSet | int) -> int:
        mask = cset.mask if isinstance(cset, ConsiderationSet) else int(cset)
        try:
            return self.masks.index(mask)
        except ValueError:
            raise ValidationError(
                f"set mask {mask:#x} is not admissible in this enumeration"
            ) from None

    def member_matrix(self) -> NDArray[np.bool_]:
        """Boolean (d_c, n) matrix: entry [j, i] says item i is in set j."""
        n = self.menu.n
        out = np.zeros((self.d_c, n), dtype=bool)
        for j, mask in enumerate(self.masks):
            for i in range(n):
                out[j, i] = bool(mask >> i & 1)
        out.setflags(write=False)
        return out


@lru_cache(maxsize=128)
def enumerate_sets(menu: Menu, outside_mode: bool = False) -> SetEnumeration:
    """Enumerate the admissible consideration sets of ``menu``.

    Without an outside option every nonempty subset is admissible
    (``2**n - 1`` sets).  In outside mode the outside item is treated as
    always considered, so only the ``2**(n-1)`` subsets containing it are
    enumerated.  Results are memoized per ``(menu, outside_mode)``; the
    enumeration is immutable, so callers share one instance.

    Raises:
        ConfigurationError: outside mode requested on a menu without an
            outside index.
    """
    n = menu.n
    if outside_mode:
        if menu.outside_index is None:
            raise ConfigurationError(
                "outside mode requires a menu with an outside_index"
            )
        o = menu.outside_index
        free = [i for i in range(n) if i != o]
        masks = []
        for reduced in range(1 << (n - 1)):
            mask = 1 << o
            for b, item in enumerate(free):
                if reduced >> b & 1:
                    mask |= 1 << item
            masks.append(mask)
        return SetEnumeration(menu, True, tuple(masks))
    return SetEnumeration(menu, False, tuple(range(1, 1 << n)))


def _lattice_sweep(values: NDArray, enum: SetEnumeration, op) -> NDArray:
    """Apply ``op(with_bit, without_bit)`` into the sets with bit ``b``, for each bit in turn.

    Each row's values are placed on the full lattice (the empty set, absent
    without the outside option, is zero).  The lattice is held sets-first,
    ``(2**n, rows)``: viewed as ``(2**(n - b - 1), 2, 2**b * rows)``, the sets
    with bit ``b`` are the ``[:, 1]`` half and their partners without it the
    ``[:, 0]`` half, so every sweep runs over long contiguous runs of a
    stack.  Each element gets the same operations in the same order as in a
    rows-first sweep.  The result has the rows-first layout, ``(..., d_c)``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != enum.d_c:
        raise ValidationError(
            f"expected {enum.d_c} per-set values, got {values.shape[-1]}"
        )
    full = 1 << enum.n_bits
    rows = values.reshape(-1, enum.d_c)
    n = rows.shape[0]
    lattice = np.zeros((full, n))
    lattice[full - enum.d_c :] = rows.T
    for b in range(enum.n_bits):
        half = lattice.reshape(full >> (b + 1), 2, n << b)
        op(half[:, 1], half[:, 0], out=half[:, 1])
    grid = np.empty(values.shape[:-1] + (full,))
    grid.reshape(-1, full)[...] = lattice.T
    return grid[..., full - enum.d_c :]


def zeta_transform(values: NDArray, enum: SetEnumeration) -> NDArray:
    """Subset sums on the enumeration lattice: ``out[A] = sum_{B <= A} values[B]``.

    Applied to an attention row this yields accumulated attention.  Works on
    stacks of rows (transform along the last axis); see :func:`_lattice_sweep`.
    """
    return _lattice_sweep(values, enum, np.add)


def moebius_inverse(values: NDArray, enum: SetEnumeration) -> NDArray:
    """Inverse of :func:`zeta_transform` on the same lattice: the same sweeps, subtracting."""
    return _lattice_sweep(values, enum, np.subtract)


@dataclass(frozen=True)
class PreferenceOrdering:
    """A strict preference ordering: a permutation of item indices, best first."""

    rank: tuple[int, ...]

    def __post_init__(self):
        rank = tuple(int(i) for i in self.rank)
        object.__setattr__(self, "rank", rank)
        if sorted(rank) != list(range(len(rank))):
            raise ValidationError(f"rank {rank} is not a permutation of 0..n-1")

    @classmethod
    def from_labels(cls, menu: Menu, labels) -> "PreferenceOrdering":
        return cls(tuple(menu.index_of(l) for l in labels))

    @property
    def n(self) -> int:
        return len(self.rank)

    def position(self, item: int) -> int:
        """0-based rank position of ``item`` (0 = most preferred)."""
        return self.rank.index(item)

    def labels(self, menu: Menu) -> tuple[str, ...]:
        return tuple(menu.items[i] for i in self.rank)


@dataclass(frozen=True)
class OrderingSet:
    """A set of candidate strict preference orderings (the preference types)."""

    orderings: tuple[PreferenceOrdering, ...]

    def __post_init__(self):
        orderings = tuple(self.orderings)
        object.__setattr__(self, "orderings", orderings)
        if not orderings:
            raise ValidationError("need at least one ordering")
        n = orderings[0].n
        if any(o.n != n for o in orderings):
            raise ValidationError("orderings must all rank the same number of items")
        if len({o.rank for o in orderings}) != len(orderings):
            raise ValidationError("orderings must be distinct")

    @property
    def d_pref(self) -> int:
        return len(self.orderings)

    @property
    def n(self) -> int:
        return self.orderings[0].n

    def __iter__(self):
        return iter(self.orderings)

    def __len__(self):
        return len(self.orderings)

    def __getitem__(self, i: int) -> PreferenceOrdering:
        return self.orderings[i]


def all_orderings(n: int) -> OrderingSet:
    """Every strict ordering of ``n`` items (n! of them; capped at n <= 7)."""
    if n > 7:
        raise ConfigurationError("full ordering enumeration capped at 7 items")
    import itertools

    return OrderingSet(
        tuple(PreferenceOrdering(p) for p in itertools.permutations(range(n)))
    )


def best_in(ordering: PreferenceOrdering, cset: ConsiderationSet) -> int:
    """The most preferred member of a nonempty consideration set."""
    for item in ordering.rank:
        if cset.mask >> item & 1:
            return item
    raise ValidationError("consideration set has no member ranked by the ordering")


@dataclass(frozen=True)
class ChoiceDataset:
    """Choice frequencies by stopping-time period.

    Attributes:
        pi: (d_t, n) row-stochastic matrix; entry [t, a] is the probability
            of choosing item a among decisions made in period t.
        period_counts: number of underlying observations per period, when
            known (needed for variance estimation and bootstrapping).
        period_labels: optional human-readable period descriptors.
    """

    pi: NDArray[np.float64]
    period_counts: tuple[int, ...] | None = None
    period_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        pi = _as_readonly(self.pi)
        if pi.ndim != 2:
            raise ValidationError("pi must be a (periods, items) matrix")
        _check_probabilities(pi, "choice frequencies")
        object.__setattr__(self, "pi", pi)
        if self.period_counts is not None:
            counts = tuple(_check_count(c, "period counts") for c in self.period_counts)
            if len(counts) != pi.shape[0]:
                raise ValidationError("need one period count per row of pi")
            object.__setattr__(self, "period_counts", counts)
        if self.period_labels is not None:
            labels = tuple(str(l) for l in self.period_labels)
            if len(labels) != pi.shape[0]:
                raise ValidationError("need one period label per row of pi")
            object.__setattr__(self, "period_labels", labels)

    @property
    def d_t(self) -> int:
        return self.pi.shape[0]

    @property
    def n(self) -> int:
        return self.pi.shape[1]

    @property
    def total_count(self) -> int:
        if self.period_counts is None:
            raise ValidationError("dataset carries no period counts")
        return int(sum(self.period_counts))

    def vec(self) -> NDArray[np.float64]:
        """Row-major flattening over (period, item)."""
        return self.pi.reshape(-1)


@dataclass(frozen=True)
class AttentionRule:
    """Consideration-set probabilities by period, blocked by preference type.

    Attributes:
        u: (d_t, d_pref * d_c) matrix.  Columns are grouped in preference-
            major blocks; within each block they follow ``set_index``.  Each
            (period, block) slice is a probability distribution over sets.
        set_index: the canonical set enumeration the columns follow.
        d_pref: number of preference blocks.
    """

    u: NDArray[np.float64]
    set_index: SetEnumeration
    d_pref: int = 1

    def __post_init__(self):
        u = _as_readonly(self.u)
        if u.ndim != 2:
            raise ValidationError("u must be a 2-D matrix")
        d_pref, d_c = _check_count(self.d_pref, "d_pref", 1), self.set_index.d_c
        if u.shape[1] != d_pref * d_c:
            raise ValidationError(
                f"u has {u.shape[1]} columns, expected d_pref*d_c = {d_pref * d_c}"
            )
        _check_probabilities(u.reshape(u.shape[0], d_pref, d_c), "attention probabilities")
        object.__setattr__(self, "u", u)

    @property
    def d_t(self) -> int:
        return self.u.shape[0]

    @property
    def d_c(self) -> int:
        return self.set_index.d_c

    def block(self, pref: int) -> NDArray[np.float64]:
        """(d_t, d_c) attention rows for one preference type."""
        d_c = self.d_c
        return self.u[:, pref * d_c : (pref + 1) * d_c]

    def blocks(self) -> NDArray[np.float64]:
        """(d_t, d_pref, d_c) view of the rule."""
        return self.u.reshape(self.d_t, self.d_pref, self.d_c)


@dataclass(frozen=True)
class PreferenceDistribution:
    """A probability distribution over preference types."""

    p: NDArray[np.float64]

    def __post_init__(self):
        p = _as_readonly(self.p)
        if p.ndim != 1:
            raise ValidationError("p must be a vector")
        _check_probabilities(p, "preference weights")
        object.__setattr__(self, "p", p)

    @classmethod
    def uniform(cls, d_pref: int) -> "PreferenceDistribution":
        return cls(np.full(d_pref, 1.0 / d_pref))

    @classmethod
    def point_mass(cls, d_pref: int, index: int) -> "PreferenceDistribution":
        p = np.zeros(d_pref)
        p[index] = 1.0
        return cls(p)

    @property
    def d_pref(self) -> int:
        return self.p.shape[0]


def accumulated_attention(
    rule: AttentionRule, pref: int, t: int, cset: ConsiderationSet
) -> float:
    """Probability that attention stays within ``cset``: alpha(cset | t).

    The attention mass of every admissible set contained in ``cset`` for
    the given preference block and period, read off the row's
    :func:`zeta_transform`.  Equals one on the full menu.
    """
    if not (0 <= pref < rule.d_pref):
        raise ValidationError(f"preference index {pref} out of range")
    if not (0 <= t < rule.d_t):
        raise ValidationError(f"period index {t} out of range")
    enum = rule.set_index
    # Items outside the menu add no set; in outside mode a set without the
    # outside item contains no admissible set at all.
    mask = cset.mask & enum.masks[enum.full_index]
    if mask not in enum.masks:
        return 0.0
    return float(zeta_transform(rule.block(pref)[t], enum)[enum.masks.index(mask)])


@dataclass(frozen=True)
class MonotonicityViolation:
    """One failed accumulated-attention comparison between two periods."""

    pref: int
    cset: ConsiderationSet
    t: int
    t_prime: int
    gap: float


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of :func:`check_time_monotonicity`.

    ``violations`` lists every (preference, proper set, period pair) whose
    accumulated attention increased by more than the tolerance;
    ``normalization_errors`` lists (pref, t, deviation) rows whose total
    mass differs from one.  The check passes only when both are empty.
    """

    passed: bool
    violations: tuple[MonotonicityViolation, ...]
    normalization_errors: tuple[tuple[int, int, float], ...]
    tol: float


def check_time_monotonicity(
    rule: AttentionRule, tol: float = MONOTONICITY_TOL
) -> MonotonicityReport:
    """Verify that accumulated attention never rises over time.

    For every preference block, every proper subset A of the menu and every
    ordered period pair t < t', requires ``alpha(A|t) >= alpha(A|t') - tol``,
    and requires the full-menu accumulation to equal one within ``tol``.
    All violations are reported, not just the first.

    Raises:
        ValidationError: ``tol`` is negative, infinite or NaN.
    """
    _check_tol(tol)
    enum = rule.set_index
    alpha = zeta_transform(rule.blocks(), enum)  # (d_t, d_pref, d_c)
    full = enum.full_index

    norm_errors = []
    dev = np.abs(alpha[:, :, full] - 1.0)
    for t, pref in zip(*np.nonzero(dev > tol)):
        norm_errors.append((int(pref), int(t), float(dev[t, pref])))

    violations = []
    proper = alpha[:, :, :full]  # drop the full menu column
    d_t = rule.d_t
    for t in range(d_t - 1):
        for tp in range(t + 1, d_t):
            gap = proper[tp] - proper[t]  # (d_pref, d_c - 1)
            for pref, j in zip(*np.nonzero(gap > tol)):
                violations.append(
                    MonotonicityViolation(
                        pref=int(pref),
                        cset=ConsiderationSet(enum.masks[int(j)]),
                        t=t,
                        t_prime=tp,
                        gap=float(gap[pref, j]),
                    )
                )
    passed = not violations and not norm_errors
    return MonotonicityReport(passed, tuple(violations), tuple(norm_errors), tol)
