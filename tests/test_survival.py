import itertools

import numpy as np
import pytest

import timedchoice as tc
from timedchoice.errors import ValidationError
from timedchoice.survival import NeverChosenWitness, RejectionWitness


def brute_force_survivors(pi, n, tol=1e-9):
    """Independent oracle: test every ordering against every tail sum."""
    survivors = []
    for perm in itertools.permutations(range(n)):
        ok = True
        for k in range(1, n):
            tail = list(perm[k:])
            sums = pi.pi[:, tail].sum(axis=1)
            for t in range(pi.d_t - 1):
                for tp in range(t + 1, pi.d_t):
                    if sums[tp] > sums[t] + tol:
                        ok = False
        if ok:
            survivors.append(perm)
    return set(survivors)


class TestLowerContourSum:
    def test_top_item_contour_is_whole_menu(self, worked_dataset):
        ordering = tc.PreferenceOrdering((0, 1, 2))
        for t in range(2):
            assert tc.lower_contour_sum(
                worked_dataset, ordering, 0, t
            ) == pytest.approx(1.0)

    def test_worked_example_middle_contour(self, worked_dataset):
        ordering = tc.PreferenceOrdering((0, 1, 2))  # a > b > c
        assert tc.lower_contour_sum(worked_dataset, ordering, 1, 0) == 1.0
        assert tc.lower_contour_sum(worked_dataset, ordering, 1, 1) == 0.0

    def test_never_chosen_bottom_item(self, worked_dataset):
        ordering = tc.PreferenceOrdering((0, 1, 2))
        for t in range(2):
            assert tc.lower_contour_sum(worked_dataset, ordering, 2, t) == 0.0


class TestRejectionTest:
    def test_wrong_top_item_is_rejected_with_witness(self, worked_dataset):
        witness = tc.rejection_test(worked_dataset, tc.PreferenceOrdering((1, 0, 2)))
        assert witness is not None
        assert witness.position == 1  # the contour below the top item
        assert set(witness.tail) == {0, 2}
        assert witness.sum_late == pytest.approx(1.0)
        assert witness.sum_early == pytest.approx(0.0)
        assert witness == RejectionWitness(
            position=1, tail=(0, 2), t=0, t_prime=1, sum_early=0.0, sum_late=1.0, item=0
        )

    def test_true_ordering_survives(self, worked_dataset):
        assert tc.rejection_test(worked_dataset, tc.PreferenceOrdering((0, 1, 2))) is None

    def test_constant_frequencies_never_reject(self):
        pi = tc.ChoiceDataset(pi=np.tile([0.2, 0.3, 0.5], (4, 1)))
        for perm in itertools.permutations(range(3)):
            assert tc.rejection_test(pi, tc.PreferenceOrdering(perm)) is None

    def test_single_period_raises(self):
        pi = tc.ChoiceDataset(pi=np.array([[0.2, 0.8]]))
        with pytest.raises(ValidationError):
            tc.rejection_test(pi, tc.PreferenceOrdering((0, 1)))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_tolerance_must_be_finite_and_nonnegative(self, worked_dataset, menu3, tol):
        with pytest.raises(ValidationError):
            tc.rejection_test(worked_dataset, tc.PreferenceOrdering((0, 1, 2)), tol=tol)
        with pytest.raises(ValidationError):
            tc.survivor_search(worked_dataset, menu3, tol=tol)

    def test_larger_tolerance_never_rejects_more(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pi = tc.ChoiceDataset(pi=rng.dirichlet(np.ones(3), size=3))
            for perm in itertools.permutations(range(3)):
                ordering = tc.PreferenceOrdering(perm)
                loose = tc.rejection_test(pi, ordering, tol=0.05)
                tight = tc.rejection_test(pi, ordering, tol=1e-9)
                if tight is None:
                    assert loose is None


class TestSurvivorSearch:
    def test_worked_example_unique_survivor(self, worked_dataset, menu3):
        report = tc.survivor_search(worked_dataset, menu3)
        assert [o.rank for o in report.survivors] == [(0, 1, 2)]

    def test_worked_example_without_never_chosen_rule(self, worked_dataset, menu3):
        report = tc.survivor_search(worked_dataset, menu3, never_chosen_rule=False)
        assert {o.rank for o in report.survivors} == {
            (0, 1, 2),
            (0, 2, 1),
            (2, 0, 1),
        }

    def test_never_chosen_rejections_carry_witnesses(self, worked_dataset, menu3):
        report = tc.survivor_search(worked_dataset, menu3)
        nc = [
            rp for rp in report.rejected
            if isinstance(rp.witness, NeverChosenWitness)
        ]
        assert nc and all(rp.witness.item == 2 for rp in nc)

    def test_contour_rejections_carry_exact_witnesses(self, worked_dataset, menu3):
        """Each pruned prefix's witness: the unplaced items, their first rise, no item."""
        report = tc.survivor_search(worked_dataset, menu3, never_chosen_rule=False)
        assert report.rejected
        for rp in report.rejected:
            tail = tuple(i for i in range(3) if i not in rp.prefix)
            sums = worked_dataset.pi[:, list(tail)].sum(axis=1)
            assert sums[1] > sums[0]  # two periods: the only pair is (0, 1)
            assert rp.witness == RejectionWitness(
                position=len(rp.prefix), tail=tail, t=0, t_prime=1,
                sum_early=float(sums[0]), sum_late=float(sums[1]),
            )

    def test_constant_frequencies_keep_all_orderings(self, menu3):
        pi = tc.ChoiceDataset(pi=np.tile([0.5, 0.3, 0.2], (3, 1)))
        report = tc.survivor_search(pi, menu3)
        assert len(report.survivors) == 6

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(42)
        for n in (3, 4, 5):
            menu = tc.Menu(items=tuple("abcde"[:n]))
            for _ in range(8):
                # Mix smooth and spiky rows so rejections actually occur.
                pi = tc.ChoiceDataset(
                    pi=rng.dirichlet(np.full(n, 0.7), size=3)
                )
                report = tc.survivor_search(pi, menu, never_chosen_rule=False)
                assert {o.rank for o in report.survivors} == brute_force_survivors(
                    pi, n
                )

    def test_every_ordering_is_classified(self, menu3):
        rng = np.random.default_rng(3)
        pi = tc.ChoiceDataset(pi=rng.dirichlet(np.ones(3), size=3))
        report = tc.survivor_search(pi, menu3, never_chosen_rule=False)
        survivors = {o.rank for o in report.survivors}
        prefixes = [rp.prefix for rp in report.rejected]
        for perm in itertools.permutations(range(3)):
            covered = perm in survivors or any(
                perm[: len(p)] == p for p in prefixes
            )
            assert covered

    def test_true_ordering_survives_fixed_search_data(self, menu3, orderings3):
        # Soundness: data generated under the contour conditions keep the
        # generating ordering.  The never-chosen shortcut is off because it
        # is not implied by those conditions (see below).
        enum = tc.enumerate_sets(menu3)
        for perm in itertools.permutations(range(3)):
            ordering = tc.PreferenceOrdering(perm)
            rule = tc.gen_topn(menu3, 3, ("a", "b", "c"))
            transform = tc.build_choice_transform(
                menu3, enum, tc.OrderingSet((ordering,))
            )
            pi = tc.predict_choices(
                rule, transform, tc.PreferenceDistribution(np.array([1.0]))
            )
            report = tc.survivor_search(pi, menu3, never_chosen_rule=False)
            assert ordering.rank in {o.rank for o in report.survivors}

    def test_never_chosen_rule_can_reject_a_true_ordering(self, menu3):
        # With fixed search order (a, b, c) and common preference b>c>a the
        # item c is never chosen although it is genuinely ranked above a;
        # the shortcut throws the true ordering out.  This is the
        # documented cost of the sharper default.
        enum = tc.enumerate_sets(menu3)
        ordering = tc.PreferenceOrdering((1, 2, 0))
        rule = tc.gen_topn(menu3, 3, ("a", "b", "c"))
        transform = tc.build_choice_transform(menu3, enum, tc.OrderingSet((ordering,)))
        pi = tc.predict_choices(
            rule, transform, tc.PreferenceDistribution(np.array([1.0]))
        )
        with_rule = tc.survivor_search(pi, menu3, never_chosen_rule=True)
        without = tc.survivor_search(pi, menu3, never_chosen_rule=False)
        assert ordering.rank not in {o.rank for o in with_rule.survivors}
        assert ordering.rank in {o.rank for o in without.survivors}

    def test_single_period_is_vacuous(self, menu3):
        pi = tc.ChoiceDataset(pi=np.array([[0.2, 0.3, 0.5]]))
        report = tc.survivor_search(pi, menu3)
        assert report.vacuous and len(report.survivors) == 6
