"""Metric implementations against brute-force oracles and hand cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goe.metrics import (
    _average_ranks,
    aupr,
    auroc,
    fpr_at_95_tpr,
    id_accuracy,
    score_histogram,
)

from conftest import (
    brute_force_aupr_oracle,
    brute_force_fpr_at_95_oracle,
    pairwise_auroc_oracle,
    random_score_sets,
)


class TestIdAccuracy:
    def test_all_correct(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert id_accuracy(logits, np.array([0, 1]), np.array([0, 1])) == 1.0

    def test_three_of_four(self):
        logits = np.array([[2.0, 0], [2.0, 0], [2.0, 0], [2.0, 0]])
        labels = np.array([0, 0, 0, 1])
        assert id_accuracy(logits, labels, np.arange(4)) == 0.75

    def test_tie_breaks_to_lowest_index(self):
        logits = np.array([[0.0, 0.0]])
        assert id_accuracy(logits, np.array([0]), np.array([0])) == 1.0
        assert id_accuracy(logits, np.array([1]), np.array([0])) == 0.0

    def test_extra_column_excluded(self):
        # K+1 model: the OOD column must not win the ID argmax
        logits = np.array([[1.0, 0.0, 50.0]])
        assert id_accuracy(logits, np.array([0]), np.array([0]), id_class_count=2) == 1.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            id_accuracy(np.zeros((2, 2)), np.zeros(2, dtype=int), np.array([], dtype=int))


def _average_ranks_loop(values):
    """Reference: walk the sorted values and give each tie group its mean rank."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j < len(values) and values[order[j]] == values[order[i]]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + 1 + j)
        i = j
    return ranks


def test_average_ranks_match_loop_reference():
    for id_s, ood_s in random_score_sets(seed=4, count=100):
        values = np.concatenate([id_s, ood_s])
        assert np.array_equal(_average_ranks(values), _average_ranks_loop(values))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2], [0.3, 0.4]) == 1.0

    def test_hand_case(self):
        # pairs (3>1, 3>2, 1.5>1, 1.5<2) -> 3 of 4
        assert auroc([1.0, 2.0], [3.0, 1.5]) == 0.75

    def test_single_tie(self):
        assert auroc([1.0], [1.0]) == 0.5

    def test_matches_pairwise_oracle(self):
        for id_s, ood_s in random_score_sets(seed=11, count=60):
            assert abs(auroc(id_s, ood_s) - pairwise_auroc_oracle(id_s, ood_s)) <= 1e-12

    def test_swap_complement_without_ties(self):
        rng = np.random.default_rng(4)
        id_s = rng.normal(size=37)
        ood_s = rng.normal(size=23)  # continuous draws: ties have measure zero
        assert auroc(id_s, ood_s) + auroc(ood_s, id_s) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        id_s = rng.normal(size=30)
        ood_s = rng.normal(size=40)
        base = auroc(id_s, ood_s)
        assert auroc(np.exp(id_s), np.exp(ood_s)) == pytest.approx(base, abs=1e-12)
        assert auroc(3 * id_s + 7, 3 * ood_s + 7) == pytest.approx(base, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auroc([], [1.0])


class TestAupr:
    def test_perfect_separation(self):
        assert aupr([0.1, 0.2], [0.3, 0.4]) == 1.0

    def test_single_positive_ranked_first(self):
        assert aupr([1.0], [2.0]) == 1.0

    def test_worst_case_matches_oracle(self):
        # every ID above every OOD, equal sizes: oracle gives 23/60 for n=3
        id_s = np.array([10.0, 11.0, 12.0])
        ood_s = np.array([1.0, 2.0, 3.0])
        expected = brute_force_aupr_oracle(id_s, ood_s)
        assert expected == pytest.approx(23 / 60, abs=1e-12)
        assert aupr(id_s, ood_s) == pytest.approx(expected, abs=1e-9)

    def test_matches_brute_force_oracle(self):
        for id_s, ood_s in random_score_sets(seed=12, count=60):
            assert abs(aupr(id_s, ood_s) - brute_force_aupr_oracle(id_s, ood_s)) <= 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aupr([1.0], [])


class TestFprAt95:
    def test_perfect_separation(self):
        assert fpr_at_95_tpr([0.0, 0.1], [5.0, 6.0]) == 0.0

    def test_hand_case(self):
        # 19 ID at 0 plus one at 10; 20 OOD spread over [5, 9.75]:
        # tau is the 19th-largest OOD score, so exactly one ID passes.
        id_s = np.array([0.0] * 19 + [10.0])
        ood_s = np.linspace(5.0, 9.75, 20)
        assert fpr_at_95_tpr(id_s, ood_s) == 0.05

    def test_constant_scores(self):
        assert fpr_at_95_tpr(np.ones(10), np.ones(10)) == 1.0

    def test_monotone_under_ood_shift(self):
        rng = np.random.default_rng(9)
        id_s = rng.normal(size=50)
        ood_s = rng.normal(size=50)
        values = [fpr_at_95_tpr(id_s, ood_s + c) for c in np.linspace(0, 3, 13)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(10)
        id_s = rng.normal(size=40)
        ood_s = rng.normal(size=40)
        base = fpr_at_95_tpr(id_s, ood_s)
        assert fpr_at_95_tpr(np.exp(id_s), np.exp(ood_s)) == base
        assert fpr_at_95_tpr(2 * id_s - 1, 2 * ood_s - 1) == base


class TestScoreHistogram:
    def test_identical_scores_single_bin(self):
        rows = score_histogram(np.full(100, 3.3), np.zeros(100, dtype=bool), bins=50)
        assert rows[0]["count_id"] == 100
        assert sum(r["count_id"] for r in rows[1:]) == 0

    def test_disjoint_ranges_no_overlap(self):
        scores = np.concatenate([np.linspace(0, 1, 50), np.linspace(5, 6, 50)])
        is_ood = np.concatenate([np.zeros(50, bool), np.ones(50, bool)])
        rows = score_histogram(scores, is_ood, bins=20)
        for row in rows:
            assert not (row["count_id"] > 0 and row["count_ood"] > 0)
        assert sum(r["count_id"] for r in rows) == 50
        assert sum(r["count_ood"] for r in rows) == 50

    def test_zero_bins_rejected(self):
        with pytest.raises(ValueError):
            score_histogram(np.ones(3), np.zeros(3, bool), bins=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            score_histogram(np.array([]), np.array([], dtype=bool))


# Few distinct values, so ties within and across the two groups are the rule;
# -0.0 and 0.0 are equal scores.
_TIE_HEAVY = st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 3.0]),
                      min_size=1, max_size=60).map(np.array)


@settings(max_examples=200, deadline=None)
@given(id_s=_TIE_HEAVY, ood_s=_TIE_HEAVY)
def test_metrics_match_oracles_on_tie_heavy_scores(id_s, ood_s):
    assert abs(auroc(id_s, ood_s) - pairwise_auroc_oracle(id_s, ood_s)) <= 1e-12
    assert abs(aupr(id_s, ood_s) - brute_force_aupr_oracle(id_s, ood_s)) <= 1e-9
    assert fpr_at_95_tpr(id_s, ood_s) == brute_force_fpr_at_95_oracle(id_s, ood_s)
