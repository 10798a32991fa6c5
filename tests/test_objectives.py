"""Loss values, gradients against finite differences, and energy identities."""

from types import SimpleNamespace

import numpy as np
import pytest

from goe.gcn import TrainConfig, train_classifier
from goe.objectives import (
    EXPOSURE,
    KPLUS1,
    SUPERVISED,
    binary_head_loss,
    combined_loss,
    energy,
    exposure_loss,
    kplus1_loss,
    supervised_loss,
)

from conftest import build_random_graph


def finite_difference(loss_fn, logits, step=1e-6):
    """Central differences of a scalar loss over every logit coordinate."""
    grad = np.zeros_like(logits)
    flat = logits.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = loss_fn(logits)
        flat[i] = orig - step
        down = loss_fn(logits)
        flat[i] = orig
        out[i] = (up - down) / (2 * step)
    return grad


def max_rel_error(a, b):
    denom = np.maximum(1e-8, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom))


class TestEnergy:
    def test_single_logit(self):
        assert energy(np.array([0.0])) == 0.0
        assert energy(np.array([6.0])) == -6.0

    def test_uniform_pair(self):
        assert energy(np.array([0.0, 0.0])) == pytest.approx(-np.log(2), abs=1e-15)

    def test_uniform_logits_general(self):
        for k in range(1, 11):
            assert abs(energy(np.zeros(k)) + np.log(k)) <= 1e-12

    def test_no_overflow_on_huge_logits(self):
        value = energy(np.array([1000.0, 1000.0]))
        assert value == pytest.approx(-(1000.0 + np.log(2)), abs=1e-9)

    def test_shift_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.normal(scale=3.0, size=rng.integers(1, 8))
            c = rng.normal(scale=10.0)
            assert abs(energy(z + c) - (energy(z) - c)) <= 1e-9

    def test_rowwise(self):
        logits = np.array([[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(energy(logits),
                                   [-np.log(2), -1 - np.log(2)], atol=1e-12)


class TestSupervisedLoss:
    def test_uniform_two_class(self):
        logits = np.array([[0.0, 0.0]])
        loss, grad = supervised_loss(logits, np.array([0]), np.array([0]))
        assert loss == pytest.approx(np.log(2), abs=1e-12)
        np.testing.assert_allclose(grad, [[-0.5, 0.5]], atol=1e-12)

    def test_confident_predictions_near_zero(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        loss, _ = supervised_loss(logits, np.array([0, 1]), np.array([0, 1]))
        assert 0.0 < loss < 1e-8

    def test_grad_zero_outside_train_set(self):
        logits = np.random.default_rng(1).normal(size=(5, 3))
        _, grad = supervised_loss(logits, np.array([0, 1, 2, 0, 1]), np.array([1, 3]))
        assert np.all(grad[[0, 2, 4]] == 0.0)

    def test_empty_train_set_rejected(self):
        with pytest.raises(ValueError, match="empty training set"):
            supervised_loss(np.zeros((2, 2)), np.zeros(2, dtype=int),
                            np.array([], dtype=int))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        ids = np.array([0, 2, 3, 5])
        _, grad = supervised_loss(logits, labels, ids)
        numeric = finite_difference(lambda z: supervised_loss(z, labels, ids)[0],
                                    logits.copy())
        assert max_rel_error(grad, numeric) <= 1e-4


class TestExposureLoss:
    def test_worked_example(self):
        # ID node at energy -6 contributes 0; OOD node at energy -3 with
        # margin -1 contributes relu(-1 - (-3))^2 = 4
        logits = np.array([[6.0], [3.0]])
        loss, _ = exposure_loss(logits, np.array([0]), np.array([1]),
                                margin_id=-5.0, margin_ood=-1.0)
        assert loss == 4.0

    def test_zero_when_margins_satisfied(self):
        logits = np.array([[7.0], [0.5]])  # energies -7 and -0.5
        loss, grad = exposure_loss(logits, np.array([0]), np.array([1]),
                                   margin_id=-5.0, margin_ood=-1.0)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_empty_pseudo_ood_rejected(self):
        with pytest.raises(ValueError, match="no pseudo-OOD"):
            exposure_loss(np.zeros((2, 2)), np.array([0]), np.array([], dtype=int))

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            exposure_loss(np.zeros((2, 2)), np.array([0]), np.array([0]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(scale=2.0, size=(8, 3))
        id_ids, ood_ids = np.array([0, 1, 2]), np.array([4, 5])
        _, grad = exposure_loss(logits, id_ids, ood_ids,
                                margin_id=-2.0, margin_ood=-0.5)
        numeric = finite_difference(
            lambda z: exposure_loss(z, id_ids, ood_ids, -2.0, -0.5)[0],
            logits.copy())
        assert max_rel_error(grad, numeric) <= 1e-4


class TestCombinedLoss:
    def test_zero_weight_is_bitwise_supervised(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        train, ood = np.array([0, 1]), np.array([3, 4])
        sup_loss, sup_grad = supervised_loss(logits, labels, train)
        both_loss, both_grad = combined_loss(logits, labels, train, ood, 0.0)
        assert both_loss == sup_loss
        assert np.array_equal(both_grad, sup_grad)

    def test_adds_weighted_exposure_term(self):
        logits = np.array([[6.0], [3.0]])
        labels = np.array([0, 0])
        sup_loss, _ = supervised_loss(logits, labels, np.array([0]))
        total, _ = combined_loss(logits, labels, np.array([0]), np.array([1]),
                                 exposure_weight=0.01)
        assert total == sup_loss + 0.01 * 4.0

    def test_grads_additive(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(7, 3))
        labels = rng.integers(0, 3, size=7)
        train, ood = np.array([0, 1, 2]), np.array([4, 5])
        lam = 0.05
        _, sup_grad = supervised_loss(logits, labels, train)
        _, exp_grad = exposure_loss(logits, train, ood)
        _, grad = combined_loss(logits, labels, train, ood, lam)
        assert np.array_equal(grad, sup_grad + lam * exp_grad)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(scale=2.0, size=(9, 4))
        labels = rng.integers(0, 4, size=9)
        train, ood = np.array([0, 1, 2]), np.array([5, 6])
        _, grad = combined_loss(logits, labels, train, ood, 0.05)
        numeric = finite_difference(
            lambda z: combined_loss(z, labels, train, ood, 0.05)[0], logits.copy())
        assert max_rel_error(grad, numeric) <= 1e-4


class TestKPlus1Loss:
    def test_uniform_pseudo_node(self):
        logits = np.array([[0.0, 0.0, 0.0]])
        loss, grad = kplus1_loss(logits, np.array([-1]), np.array([], dtype=int),
                                 np.array([0]))
        assert loss == pytest.approx(np.log(3), abs=1e-12)
        np.testing.assert_allclose(grad, [[1 / 3, 1 / 3, -2 / 3]], atol=1e-12)

    def test_no_pseudo_rejected(self):
        with pytest.raises(ValueError, match="no pseudo-OOD"):
            kplus1_loss(np.zeros((2, 3)), np.zeros(2, dtype=int),
                        np.array([0]), np.array([], dtype=int))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(8, 4))  # K = 3 plus the OOD column
        labels = rng.integers(0, 3, size=8)
        train, pseudo = np.array([0, 1, 2]), np.array([5, 6])
        _, grad = kplus1_loss(logits, labels, train, pseudo)
        numeric = finite_difference(
            lambda z: kplus1_loss(z, labels, train, pseudo)[0], logits.copy())
        assert max_rel_error(grad, numeric) <= 1e-4


class TestBinaryHeadLoss:
    def test_uninformative_logit(self):
        loss, _ = binary_head_loss(np.array([0.0, 0.0]), np.array([0]), np.array([1]))
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_separated_logits_near_zero(self):
        loss, _ = binary_head_loss(np.array([-20.0, 20.0]), np.array([0]), np.array([1]))
        assert 0.0 < loss < 1e-8

    def test_grad_formula(self):
        z = np.array([0.3, -0.7, 1.1])
        id_ids, ood_ids = np.array([0, 1]), np.array([2])
        _, grad = binary_head_loss(z, id_ids, ood_ids)
        sig = 1 / (1 + np.exp(-z))
        expected = np.array([sig[0] / 3, sig[1] / 3, (sig[2] - 1) / 3])
        np.testing.assert_allclose(grad, expected, atol=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            binary_head_loss(np.zeros(2), np.array([], dtype=int), np.array([0]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=10)
        id_ids, ood_ids = np.array([0, 1, 2, 3]), np.array([6, 7, 8])
        _, grad = binary_head_loss(z, id_ids, ood_ids)
        numeric = np.zeros_like(z)
        step = 1e-6
        for i in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[i] += step
            zm[i] -= step
            numeric[i] = (binary_head_loss(zp, id_ids, ood_ids)[0]
                          - binary_head_loss(zm, id_ids, ood_ids)[0]) / (2 * step)
        assert max_rel_error(grad, numeric) <= 1e-4


def test_all_losses_non_negative():
    rng = np.random.default_rng(9)
    for _ in range(20):
        logits = rng.normal(scale=3.0, size=(10, 3))
        labels = rng.integers(0, 3, size=10)
        assert supervised_loss(logits, labels, np.array([0, 1]))[0] >= 0.0
        assert exposure_loss(logits, np.array([0, 1]), np.array([5, 6]))[0] >= 0.0
        wide = rng.normal(size=(10, 4))
        assert kplus1_loss(wide, labels, np.array([0, 1]), np.array([7]))[0] >= 0.0
        assert binary_head_loss(rng.normal(size=10), np.array([0]), np.array([5]))[0] >= 0.0


def test_train_classifier_rejects_bad_objective_inputs():
    _, X, A, labels = build_random_graph(seed=0, n=10)
    split = SimpleNamespace(train_id=np.arange(4), val_id=np.array([4, 5]),
                            val_ood=np.array([6, 7]))
    cfg = TrainConfig(hidden_dim=4, max_epochs=1, patience=0)

    def train(objective, **kwargs):
        return train_classifier(X, A, labels, split, cfg, objective, id_class_count=2,
                                **kwargs)

    assert len(train(SUPERVISED)) == 1
    with pytest.raises(ValueError, match="unknown objective kind 'nonsense'"):
        train("nonsense")
    for kind in (EXPOSURE, KPLUS1):
        for pseudo in (None, np.array([], dtype=np.int64)):
            with pytest.raises(ValueError, match="no pseudo-OOD"):
                train(kind, pseudo_ood_ids=pseudo)
    for weights in ([], [0.05, -0.5]):
        with pytest.raises(ValueError, match="exposure_weights must be non-empty"):
            train(EXPOSURE, pseudo_ood_ids=np.array([8, 9]), exposure_weights=weights)
