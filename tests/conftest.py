import numpy as np
import pytest

import timedchoice as tc


@pytest.fixture
def menu2():
    return tc.Menu(items=("a", "b"))


@pytest.fixture
def menu3():
    return tc.Menu(items=("a", "b", "c"))


@pytest.fixture
def menu3_outside():
    return tc.Menu(items=("a", "b", "o"), outside_index=2)


@pytest.fixture
def orderings3(menu3):
    return tc.all_orderings(3)


@pytest.fixture
def worked_dataset():
    """Two periods: everyone picks b early, everyone picks a late."""
    return tc.ChoiceDataset(pi=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))


@pytest.fixture
def forgetting_rule(menu3):
    """Two-period rule where a previously co-considered pair splits apart.

    Period 1 puts half the mass on {a} and half on {b, c}; period 2 puts
    half on {a, b} and half on {c}.  Every item's marginal consideration
    probability weakly rises, yet attention on {c} alone rises from 0 to
    one half, which is exactly the forgetting pattern the monotonicity
    check must flag.
    """
    enum = tc.enumerate_sets(menu3)
    u = np.zeros((2, enum.d_c))
    u[0, enum.index_of(0b001)] = 0.5  # {a}
    u[0, enum.index_of(0b110)] = 0.5  # {b, c}
    u[1, enum.index_of(0b011)] = 0.5  # {a, b}
    u[1, enum.index_of(0b100)] = 0.5  # {c}
    return tc.AttentionRule(u=u, set_index=enum, d_pref=1)


@pytest.fixture
def experiment_data():
    return tc.load_experiment_dataset()


def brute_force_best(ordering: tc.PreferenceOrdering, mask: int) -> int:
    """Independent argmax-by-rank oracle for best_in."""
    members = [i for i in range(ordering.n) if mask >> i & 1]
    return min(members, key=ordering.position)


def _membership_cases():
    """(menu, outside_mode) on 2-8 items: no outside item, and one first, in the middle and last."""
    cases = []
    for n in range(2, 9):
        items = tuple("abcdefgh"[:n])
        cases.append(pytest.param(tc.Menu(items=items), False, id=f"{n}-items"))
        for o in sorted({0, n // 2, n - 1}):
            menu = tc.Menu(items=items, outside_index=o)
            cases.append(pytest.param(menu, True, id=f"{n}-items-outside-{o}"))
    return cases


#: Menus on which each membership computation is compared with a bit-by-bit loop.
MEMBERSHIP_CASES = _membership_cases()


def random_attention_rule(enum, d_pref, d_t, rng) -> tc.AttentionRule:
    """A random (not necessarily monotone) valid attention rule."""
    u = rng.dirichlet(np.ones(enum.d_c), size=(d_t, d_pref))
    return tc.AttentionRule(
        u=u.reshape(d_t, d_pref * enum.d_c), set_index=enum, d_pref=d_pref
    )
