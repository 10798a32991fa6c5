"""Post-hoc scorer values, orientation coherence, and propagation."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from goe.graph import (TextAttributedGraph, canonicalize_edges, normalize_adjacency,
                       row_stochastic_adjacency)
from goe.metrics import auroc
from goe.scoring import (
    binary_head_score,
    energy_score,
    entropy_score,
    kplus1_score,
    msp_score,
    propagate_scores,
    score_nodes,
)


class TestMsp:
    def test_uniform(self):
        assert msp_score(np.array([[0.0, 0.0]]))[0] == pytest.approx(0.5, abs=1e-12)

    def test_nine_to_one(self):
        assert msp_score(np.array([[np.log(9), 0.0]]))[0] == pytest.approx(0.1, abs=1e-12)

    def test_saturated(self):
        assert msp_score(np.array([[100.0, 0.0]]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            msp_score(np.zeros((1, 1)))


class TestEntropy:
    def test_uniform_three_class(self):
        assert entropy_score(np.zeros((1, 3)))[0] == pytest.approx(np.log(3), abs=1e-12)

    def test_near_one_hot(self):
        assert entropy_score(np.array([[50.0, 0.0]]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_three_to_one(self):
        p = np.array([0.75, 0.25])
        expected = -(p * np.log(p)).sum()
        assert entropy_score(np.array([[np.log(3), 0.0]]))[0] == pytest.approx(
            expected, abs=1e-12)


class TestEnergyScore:
    def test_uniform_pair(self):
        assert energy_score(np.array([[0.0, 0.0]]))[0] == pytest.approx(
            -np.log(2), abs=1e-15)

    def test_five_zero(self):
        expected = -(5.0 + np.log1p(np.exp(-5.0)))
        assert energy_score(np.array([[5.0, 0.0]]))[0] == pytest.approx(expected, abs=1e-12)

    def test_shift_lowers_score(self):
        z = np.array([[1.0, -0.5, 2.0]])
        base = energy_score(z)[0]
        assert energy_score(z + 3.0)[0] == pytest.approx(base - 3.0, abs=1e-12)


class TestKPlus1Score:
    def test_uniform(self):
        assert kplus1_score(np.zeros((1, 3)))[0] == pytest.approx(1 / 3, abs=1e-12)

    def test_confident_ood(self):
        value = kplus1_score(np.array([[0.0, 0.0, 10.0]]))[0]
        assert value == pytest.approx(0.99991, abs=1e-5)

    def test_complements_id_probabilities(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(20, 4))
        from goe.objectives import softmax
        total = softmax(logits)[:, :3].sum(axis=1) + kplus1_score(logits)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)


class TestBinaryHeadScore:
    def test_midpoint(self):
        assert binary_head_score(np.array([[0.0]]), np.array([1.0]))[0] == 0.5

    def test_log3(self):
        hidden = np.array([[np.log(3)]])
        assert binary_head_score(hidden, np.array([1.0]))[0] == pytest.approx(0.75, abs=1e-12)

    def test_monotone(self):
        hidden = np.linspace(-4, 4, 21).reshape(-1, 1)
        scores = binary_head_score(hidden, np.array([1.0]))
        assert np.all(np.diff(scores) > 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            binary_head_score(np.zeros((2, 3)), np.zeros(2))


def _ring_graph(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return TextAttributedGraph(
        node_count=n,
        edges=canonicalize_edges(np.array(edges, dtype=np.int64), n),
        texts=["t"] * n,
        embeddings=np.zeros((n, 2), dtype=np.float32),
        labels=np.zeros(n, dtype=np.int64),
    )


class TestPropagation:
    def test_constant_vector_fixed_point(self):
        p = row_stochastic_adjacency(normalize_adjacency(_ring_graph(8)))
        s = np.full(8, 2.5)
        for alpha in (0.0, 0.3, 1.0):
            np.testing.assert_allclose(propagate_scores(s, p, alpha, 3), s, atol=1e-12)

    def test_zero_iterations_identity(self):
        p = row_stochastic_adjacency(normalize_adjacency(_ring_graph(4)))
        s = np.array([1.0, -2.0, 3.0, 0.0])
        assert np.array_equal(propagate_scores(s, p, 0.5, 0), s)

    def test_two_node_hand_case(self):
        g = TextAttributedGraph(
            node_count=2, edges=np.array([[0, 1]]), texts=["a", "b"],
            embeddings=np.zeros((2, 2), dtype=np.float32),
            labels=np.zeros(2, dtype=np.int64),
        )
        p = row_stochastic_adjacency(normalize_adjacency(g))  # both rows are (0.5, 0.5)
        out = propagate_scores(np.array([0.0, 1.0]), p, alpha=0.5, iterations=1)
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)

    def test_mean_preserved_on_regular_graph(self):
        # the ring's row-stochastic operator is symmetric, hence doubly stochastic
        p = row_stochastic_adjacency(normalize_adjacency(_ring_graph(12)))
        rng = np.random.default_rng(1)
        s = rng.normal(size=12)
        out = propagate_scores(s, p, alpha=0.4, iterations=5)
        assert out.mean() == pytest.approx(s.mean(), abs=1e-12)

    def test_alpha_out_of_range(self):
        p = row_stochastic_adjacency(normalize_adjacency(_ring_graph(4)))
        with pytest.raises(ValueError):
            propagate_scores(np.zeros(4), p, alpha=1.5, iterations=1)


def test_orientation_coherence_on_planted_logits():
    """Every scorer must rank clear OOD rows above confident ID rows."""
    rng = np.random.default_rng(2)
    n = 12
    id_logits = np.column_stack([6.0 + rng.uniform(0, 0.5, n),
                                 rng.uniform(-0.2, 0.2, n)])
    ood_logits = np.column_stack([0.4 + rng.uniform(0, 0.1, n),
                                  0.3 + rng.uniform(0, 0.1, n)])
    logits = np.vstack([id_logits, ood_logits])
    id_idx, ood_idx = np.arange(n), np.arange(n, 2 * n)
    for method in ("msp", "entropy", "energy"):
        scores = score_nodes(logits, method)
        assert auroc(scores[id_idx], scores[ood_idx]) == 1.0

    three_col = np.vstack([
        np.column_stack([id_logits, np.full(n, -6.0)]),
        np.column_stack([ood_logits, np.full(n, 2.0)]),
    ])
    scores = score_nodes(three_col, "kplus1")
    assert auroc(scores[id_idx], scores[ood_idx]) == 1.0

    hidden = np.concatenate([np.full(n, -2.0), np.full(n, 2.0)]).reshape(-1, 1)
    scores = score_nodes(np.zeros((2 * n, 2)), "binary_head",
                         hidden=hidden, head_weights=np.array([1.0]))
    assert auroc(scores[id_idx], scores[ood_idx]) == 1.0


def test_class_permutation_invariance():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(30, 5))
    perm = rng.permutation(5)
    for scorer in (msp_score, entropy_score, energy_score):
        np.testing.assert_allclose(scorer(logits), scorer(logits[:, perm]), atol=1e-12)


def test_scorers_are_pure():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(10, 3))
    for scorer in (msp_score, entropy_score, energy_score, kplus1_score):
        assert np.array_equal(scorer(logits), scorer(logits.copy()))


@settings(max_examples=100, deadline=None)
@given(logits=st.integers(1, 12).flatmap(lambda n: st.integers(2, 6).flatmap(
           lambda k: arrays(np.float64, (n, k + 1), elements=st.floats(-30, 30)))),
       seed=st.integers(0, 2**32 - 1))
def test_every_scorer_is_invariant_to_permuting_id_classes(logits, seed):
    """Relabelling the ID classes moves no score. The last column is kplus1's
    OOD class and stays last; every other scorer reads all columns as ID."""
    rng = np.random.default_rng(seed)
    n, k = logits.shape[0], logits.shape[1] - 1
    weights = rng.random((n, n)) * (rng.random((n, n)) < 0.5) + np.eye(n)
    context = {"row_stochastic": sp.csr_matrix(weights / weights.sum(axis=1, keepdims=True)),
               "hidden": rng.standard_normal((n, 3)), "head_weights": rng.standard_normal(3)}
    perm = rng.permutation(k)
    for method in ("msp", "entropy", "energy", "energy_prop", "binary_head"):
        np.testing.assert_allclose(score_nodes(logits[:, perm], method, **context),
                                   score_nodes(logits[:, :k], method, **context),
                                   rtol=1e-12, atol=1e-12)
    moved = np.column_stack([logits[:, perm], logits[:, k]])
    np.testing.assert_allclose(score_nodes(moved, "kplus1"), score_nodes(logits, "kplus1"),
                               rtol=1e-12, atol=1e-12)
