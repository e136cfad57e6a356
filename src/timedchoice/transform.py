"""Linear-algebra form of the choice model.

A dataset is generated by an attention rule, a 0/1 choice transform and a
preference distribution through a product of three matrices: the attention
matrix maps (period) rows to consideration-set probabilities per preference
block, the transform maps each (preference, set) pair to the chosen item,
and the block-diagonal preference matrix mixes over types.  Re-expressing
the product as a design matrix times the preference vector turns estimation
of the preference distribution into constrained least squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (
    AttentionRule,
    ChoiceDataset,
    Menu,
    OrderingSet,
    PreferenceDistribution,
    SetEnumeration,
)
from .errors import ValidationError


@dataclass(frozen=True)
class ChoiceTransform:
    """0/1 matrix mapping (preference, consideration set) pairs to choices.

    Attributes:
        best: (d_pref, d_c) matrix of chosen item indices, the compact form
            of the transform that every computation reads; the dense matrix
            is only built on request (see :attr:`a`).
    """

    best: NDArray[np.int64]
    menu: Menu
    sets: SetEnumeration
    orderings: OrderingSet

    @property
    def a(self) -> NDArray[np.float64]:
        """Dense (d_pref * d_c, n * d_pref) 0/1 matrix, built on each access.

        Rows are preference-major, then set (matching attention-rule
        columns).  Column ``item * d_pref + pref`` is one exactly when
        ``item`` is the best member of the row's set under the row's
        preference and the column's preference equals the row's.  Every row
        has a single one: each (preference, set) pair determines one choice.
        """
        d_pref, d_c = self.best.shape
        out = np.zeros((d_pref * d_c, self.menu.n * d_pref))
        rows = np.arange(d_pref * d_c)
        out[rows, (self.best * d_pref + np.arange(d_pref)[:, None]).ravel()] = 1.0
        out.setflags(write=False)
        return out

    @property
    def d_pref(self) -> int:
        return self.orderings.d_pref

    def onehot(self) -> NDArray[np.float64]:
        """(d_pref, d_c, n) indicator tensor: who is chosen from each set."""
        d_pref, d_c = self.best.shape
        out = np.zeros((d_pref, d_c, self.menu.n))
        i, j = np.indices(self.best.shape)
        out[i, j, self.best] = 1.0
        out.setflags(write=False)
        return out


def build_choice_transform(
    menu: Menu, sets: SetEnumeration, orderings: OrderingSet
) -> ChoiceTransform:
    """Construct the choice transform for a menu, set enumeration and orderings."""
    if orderings.n != menu.n:
        raise ValidationError("orderings do not match the menu size")
    if sets.menu != menu:
        raise ValidationError("set enumeration was built for a different menu")
    # The best member of a set is its first member in rank order.  No argsort:
    # its first call maps ~0.3 MB of numpy's sort code (numpy 2.4, x86_64).
    ranks = np.array([o.rank for o in orderings])  # (d_pref, n), best first
    first = sets.member_matrix()[:, ranks].argmax(axis=-1)  # (d_c, d_pref) rank positions
    best = np.take_along_axis(ranks, first.T, axis=1)
    best.setflags(write=False)
    return ChoiceTransform(best=best, menu=menu, sets=sets, orderings=orderings)


def block_diag(p: PreferenceDistribution, n: int) -> NDArray[np.float64]:
    """Block-diagonal preference matrix: n copies of p down the diagonal.

    Shape (n * d_pref, n); block b holds the preference vector in rows
    ``b*d_pref:(b+1)*d_pref`` of column b.
    """
    d = p.d_pref
    out = np.zeros((n * d, n))
    for b in range(n):
        out[b * d : (b + 1) * d, b] = p.p
    return out


def _check_compatible(
    rule: AttentionRule, transform: ChoiceTransform, pi: ChoiceDataset | None = None
) -> None:
    """Raise unless ``rule`` fits ``transform`` and, if given, the periods and items of ``pi``."""
    if rule.set_index.masks != transform.sets.masks:
        raise ValidationError("rule and transform use different set enumerations")
    if rule.d_pref != transform.d_pref:
        raise ValidationError(
            f"rule has {rule.d_pref} preference blocks, transform expects "
            f"{transform.d_pref}"
        )
    if pi is not None and (pi.d_t, pi.n) != (rule.d_t, transform.menu.n):
        raise ValidationError(
            f"dataset is {pi.d_t} x {pi.n}, rule and transform are "
            f"{rule.d_t} x {transform.menu.n} (periods x items)"
        )


def predict_choices(
    rule: AttentionRule,
    transform: ChoiceTransform,
    p: PreferenceDistribution,
) -> ChoiceDataset:
    """Forward map: choice frequencies implied by (rule, transform, p).

    Entry (t, a) mixes, over preference types, the attention mass of every
    set whose best member is ``a``.  Rows are guaranteed stochastic when
    the inputs satisfy their invariants.
    """
    _check_compatible(rule, transform)
    if p.d_pref != transform.d_pref:
        raise ValidationError("preference vector length does not match transform")
    pi = np.einsum(
        "tpc,pcn,p->tn", rule.blocks(), transform.onehot(), p.p, optimize=True
    )
    return ChoiceDataset(pi=pi)


def design_matrix(
    rule: AttentionRule, transform: ChoiceTransform
) -> NDArray[np.float64]:
    """Design matrix M with ``M @ p = vec(predicted choice frequencies)``.

    Shape (d_t * n, d_pref); column i is the flattened prediction under a
    point mass on preference i.  Flattening is row-major over (period, item).
    """
    _check_compatible(rule, transform)
    return design_matrix_batch(rule.blocks()[None], transform)[0]


def design_matrix_batch(
    blocks: NDArray[np.float64], transform: ChoiceTransform, out: NDArray | None = None
) -> NDArray[np.float64]:
    """Design matrices for a stack of rules given as (k, d_t, d_pref, d_c).

    ``out``, a C-contiguous ``(k, d_t * n, d_pref)`` array, receives them if
    given, so a caller stacking many batches holds no second copy.
    """
    k, d_t = blocks.shape[0], blocks.shape[1]
    n, d_pref = transform.menu.n, transform.d_pref
    if out is not None:
        out = np.reshape(out, (k, d_t, n, d_pref), copy=False)
    cols = np.einsum("ktpc,pcn->ktnp", blocks, transform.onehot(), out=out, optimize=True)
    return cols.reshape(k, d_t * n, d_pref)

