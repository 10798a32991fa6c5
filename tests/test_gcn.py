"""Forward/backward correctness, Adam, dropout scaling, and the train loop."""

import dataclasses
import hashlib

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goe import gcn, metrics, scoring
from goe.gcn import (
    GcnParams,
    TrainConfig,
    adam_step,
    backward,
    forward,
    gradient_check,
    init_adam,
    init_params,
    receptive_field,
    train_classifier,
)
from goe.graph import (
    TextAttributedGraph,
    canonicalize_edges,
    normalize_adjacency,
    make_class_split,
    row_stochastic_adjacency,
    sample_data_split,
)
from goe.objectives import (
    DEFAULT_MARGIN_ID,
    DEFAULT_MARGIN_OOD,
    EXPOSURE,
    SUPERVISED,
    objective_loss,
    supervised_loss,
)
from goe.synthetic import make_planted_tag

from conftest import build_random_graph


class TestInitParams:
    def test_shapes(self):
        p = init_params(4, 32, 2, seed=0)
        assert p.w1.shape == (4, 32)
        assert p.b1.shape == (32,)
        assert p.w2.shape == (32, 2)
        assert p.b2.shape == (2,)

    def test_biases_zero(self):
        p = init_params(4, 8, 3, seed=1)
        assert np.all(p.b1 == 0.0)
        assert np.all(p.b2 == 0.0)

    def test_glorot_bounds(self):
        p = init_params(10, 20, 5, seed=2)
        assert np.abs(p.w1).max() <= np.sqrt(6.0 / 30) + 1e-12
        assert np.abs(p.w2).max() <= np.sqrt(6.0 / 25) + 1e-12

    def test_seed_determinism(self):
        a, b = init_params(4, 8, 2, seed=3), init_params(4, 8, 2, seed=3)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w2, b.w2)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            init_params(0, 8, 2, seed=0)


def _identity_adj(n):
    return sp.identity(n, format="csr")


# (d, h) pairs on each side of the layer-1 rule: project first when d > h
LAYER_1_ORDERS = [(6, 5), (4, 8)]
LAYER_1_ORDER_IDS = ["project-first", "propagate-first"]


class TestForward:
    def test_zero_params_zero_logits(self):
        p = GcnParams(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 2)), np.zeros(2))
        trace = forward(p, _identity_adj(2), np.ones((2, 3)))
        assert np.all(trace.logits == 0.0)

    def test_single_node_hand_computation(self):
        # A = [[1]], X = [[1, 0]]; layer 1 passes through an identity weight
        # with biases (0.5, -0.5): pre-act (1.5, -0.5) -> relu (1.5, 0);
        # layer 2 sums both hidden units: logits (1.5 + 0.1, 1.5 + 0.2)
        p = GcnParams(
            w1=np.eye(2), b1=np.array([0.5, -0.5]),
            w2=np.ones((2, 2)), b2=np.array([0.1, 0.2]),
        )
        trace = forward(p, _identity_adj(1), np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(trace.logits, [[1.6, 1.7]], atol=1e-15)
        np.testing.assert_allclose(trace.hidden, [[1.5, 0.0]], atol=1e-15)

    def test_eval_mode_bit_identical(self):
        _, X, A, _ = build_random_graph(seed=0)
        p = init_params(X.shape[1], 8, 2, seed=0)
        a = forward(p, A, X)
        b = forward(p, A, X)
        assert np.array_equal(a.logits, b.logits)
        assert a.drop_mask_input is None and a.drop_mask_hidden is None

    def test_training_mode_carries_dropout_masks(self):
        _, X, A, _ = build_random_graph(seed=0)
        p = init_params(X.shape[1], 8, 2, seed=0)
        trace = forward(p, A, X, training=True, dropout=0.5,
                        rng=np.random.default_rng(0))
        assert trace.drop_mask_input is not None
        assert trace.drop_mask_hidden is not None

    def test_shape_mismatch_rejected(self):
        p = init_params(4, 8, 2, seed=0)
        with pytest.raises(ValueError):
            forward(p, _identity_adj(2), np.ones((2, 3)))

    @pytest.mark.parametrize("d, h", LAYER_1_ORDERS, ids=LAYER_1_ORDER_IDS)
    def test_training_logits_match_dense_reference(self, d, h):
        _, X, A, _ = build_random_graph(seed=5, dim=d)
        p = init_params(d, h, 3, seed=5)
        trace = forward(p, A, X, training=True, dropout=0.5,
                        rng=np.random.default_rng(11))

        key_in, key_h = np.random.default_rng(11).bit_generator.random_raw(2)
        a_dense = A.toarray()
        x_d = X * gcn.dropout_mask(key_in, slice(None), *X.shape, 0.5) / 0.5
        hidden = np.maximum(a_dense @ x_d @ p.w1 + p.b1, 0.0)
        h_d = hidden * gcn.dropout_mask(key_h, slice(None), *hidden.shape, 0.5) / 0.5
        expected = a_dense @ h_d @ p.w2 + p.b2
        np.testing.assert_allclose(trace.logits, expected, rtol=1e-12, atol=1e-12)


class TestDropoutMask:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), cols=st.one_of(st.integers(1, 40), st.just(384)),
           keep=st.sampled_from([0.25, 0.5, 0.75, 0.9]), key=st.integers(0, 2**64 - 1),
           data=st.data())
    def test_rows_are_the_whole_masks_rows(self, n, cols, keep, key, data):
        picked = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        rows = np.array(sorted(picked), dtype=np.int64)
        whole = gcn.dropout_mask(key, slice(None), n, cols, keep)
        part = gcn.dropout_mask(key, rows, n, cols, keep)
        assert whole.shape == (n, cols) and part.shape == (rows.size, cols)
        assert part.dtype == bool
        assert np.array_equal(part, whole[rows])

    @pytest.mark.parametrize("keep", [0.5, 0.9])
    def test_keep_rate_overall_and_per_column(self, keep):
        n, cols = 30_000, 16
        p = round(keep * 2**16) / 2**16
        key = np.random.default_rng(0).bit_generator.random_raw()
        mask = gcn.dropout_mask(key, slice(None), n, cols, keep)
        assert abs(mask.mean() - p) <= 4 * np.sqrt(p * (1 - p) / mask.size)
        assert np.all(np.abs(mask.mean(axis=0) - p) <= 4 * np.sqrt(p * (1 - p) / n))

    def test_two_keys_agree_on_about_half(self):
        key_a, key_b = np.random.default_rng(1).bit_generator.random_raw(2)
        a, b = (gcn.dropout_mask(k, slice(None), 30_000, 16, 0.5) for k in (key_a, key_b))
        assert abs((a == b).mean() - 0.5) <= 4 * np.sqrt(0.25 / a.size)

    def test_stream_is_pinned(self):
        mask = gcn.dropout_mask(1, slice(None), 1000, 37, 0.5)
        assert hashlib.sha256(mask.tobytes()).hexdigest() == (
            "c77a77ea248fdbea8a73d254f6e11e9f8a6edeb76bf069cb45b9fa193e370a4a")

    @pytest.mark.parametrize("n", [20, 2000])
    def test_training_forward_takes_two_raw_draws(self, n):
        X = np.random.default_rng(n).standard_normal((n, 6))
        p = init_params(6, 8, 2, seed=0)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        forward(p, _identity_adj(n), X, training=True, dropout=0.5, rng=rng)
        twin.bit_generator.random_raw(2)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_keep_rounding_to_zero_is_rejected(self):
        TrainConfig(dropout=1 - 2**-16).validate()       # keep 2⁻¹⁶, the threshold t = 1
        with pytest.raises(ValueError, match="rounds to 0/65536"):
            TrainConfig(dropout=1 - 2**-18).validate()
        _, X, A, _ = build_random_graph(seed=0)
        p = init_params(X.shape[1], 8, 2, seed=0)
        with pytest.raises(ValueError, match="rounds to 0/65536"):
            forward(p, A, X, training=True, dropout=1 - 2**-18, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("keep", [0.25, 0.5, 0.75, 0.9])
    def test_scale_inverts_the_quantised_keep(self, keep):
        _, X, A, _ = build_random_graph(seed=0)
        p = init_params(X.shape[1], 8, 2, seed=0)
        trace = forward(p, A, X, training=True, dropout=1 - keep, rng=np.random.default_rng(0))
        assert trace.dropout_scale == 2**16 / round(keep * 2**16)
        if keep != 0.9:                     # on the 2⁻¹⁶ grid: the scale is 1/keep
            assert trace.dropout_scale == 1 / keep
        else:
            assert trace.dropout_scale != 1 / keep


class TestBackward:
    def test_zero_grad_logits(self):
        _, X, A, _ = build_random_graph(seed=1)
        p = init_params(X.shape[1], 8, 2, seed=1)
        trace = forward(p, A, X)
        grads = backward(p, trace, np.zeros_like(trace.logits), weight_decay=0.0)
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_weight_decay_term_exact(self):
        _, X, A, _ = build_random_graph(seed=2)
        p = init_params(X.shape[1], 8, 2, seed=2)
        trace = forward(p, A, X)
        grads = backward(p, trace, np.zeros_like(trace.logits), weight_decay=5e-4)
        assert np.array_equal(grads["w1"], 5e-4 * p.w1)
        assert np.array_equal(grads["w2"], 5e-4 * p.w2)
        assert np.all(grads["b1"] == 0.0)
        assert np.all(grads["b2"] == 0.0)

    # The row-stochastic operator is not symmetric, so there backward must use
    # the transposes of the blocks the forward pass multiplied by.
    @pytest.mark.parametrize("dropout, operator", [
        pytest.param(0.0, "normalized", id="eval"),
        pytest.param(0.5, "normalized", id="dropout"),
        pytest.param(0.0, "row-stochastic", id="eval-row-stochastic"),
        pytest.param(0.5, "row-stochastic", id="dropout-row-stochastic"),
        pytest.param(0.0, "row-stochastic-field", id="eval-row-stochastic-field"),
        pytest.param(0.5, "row-stochastic-field", id="dropout-row-stochastic-field"),
    ])
    @pytest.mark.parametrize("d, h", LAYER_1_ORDERS, ids=LAYER_1_ORDER_IDS)
    def test_matches_finite_differences_through_network(self, d, h, dropout, operator):
        graph, X, A, labels = build_random_graph(seed=3, n=10, dim=d)
        train_ids = np.arange(6)
        p = init_params(X.shape[1], h, 2, seed=3)
        where, row_labels, ids = A, labels, train_ids
        if operator != "normalized":
            where = row_stochastic_adjacency(A)
            assert (where - where.T).nnz
        if operator.endswith("field"):
            where = receptive_field(where, train_ids)
            row_labels, ids = labels[where.rows[0]], where.local(train_ids)

        def objective(params):
            # a fresh rng per call freezes the dropout masks across the probes
            trace = forward(params, where, X, training=dropout > 0, dropout=dropout,
                            rng=np.random.default_rng(7))
            loss, grad_logits = supervised_loss(trace.logits, row_labels, ids)
            return loss, backward(params, trace, grad_logits, weight_decay=0.0)

        err = gradient_check(objective, p, step=1e-4,
                             rng=np.random.default_rng(0))
        assert err <= 1e-4


def _neighbourhood(adjacency, rows):
    """Dense oracle: ``rows`` plus every node adjacent to one of them."""
    dense = adjacency.toarray() != 0
    member = np.zeros(adjacency.shape[0], dtype=bool)
    member[rows] = True
    return np.flatnonzero(member | dense[:, member].any(axis=1))


class TestReceptiveField:
    TARGETS = np.array([17, 0, 9, 5])

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_rows_are_nested_hops(self, seed):
        _, _, A, _ = build_random_graph(seed=seed, n=60, edge_prob=0.03)
        field = receptive_field(A, self.TARGETS, hops=1)
        out, mid, inp = field.rows
        assert np.array_equal(out, _neighbourhood(A, self.TARGETS))
        assert np.array_equal(mid, _neighbourhood(A, out))
        assert np.array_equal(inp, _neighbourhood(A, mid))
        dense = A.toarray()
        assert np.array_equal(field.layer1.toarray(), dense[np.ix_(mid, inp)])
        assert np.array_equal(field.layer2.toarray(), dense[np.ix_(out, mid)])

    @pytest.mark.parametrize("dropout", [0.0, 0.5], ids=["eval", "train"])
    @pytest.mark.parametrize("d, h", LAYER_1_ORDERS, ids=LAYER_1_ORDER_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_logits_and_gradients_match_full_graph(self, seed, d, h, dropout):
        _, X, A, labels = build_random_graph(seed=seed, n=60, dim=d, edge_prob=0.03)
        p = init_params(d, h, 2, seed=seed)
        field = receptive_field(A, self.TARGETS)
        assert field.rows[2].size < A.shape[0]

        def run(where, row_labels, ids):
            # a fresh rng on both sides: the field must use the full masks' rows
            trace = forward(p, where, X, training=dropout > 0, dropout=dropout,
                            rng=np.random.default_rng(7))
            _, grad_logits = supervised_loss(trace.logits, row_labels, ids)
            return trace, backward(p, trace, grad_logits, weight_decay=5e-4)

        full, full_grads = run(A, labels, self.TARGETS)
        part, part_grads = run(field, labels[field.rows[0]], field.local(self.TARGETS))
        out, mid, inp = field.rows
        np.testing.assert_allclose(part.logits, full.logits[out], rtol=1e-12, atol=1e-12)
        for name, grad in full_grads.items():
            np.testing.assert_allclose(part_grads[name], grad, rtol=1e-12,
                                       atol=1e-12 * np.abs(grad).max())
        if dropout:
            assert np.array_equal(part.drop_mask_input, full.drop_mask_input[inp])
            assert np.array_equal(part.drop_mask_hidden, full.drop_mask_hidden[mid])

    def test_field_holding_every_node_reads_features_in_place(self):
        _, X, A, _ = build_random_graph(seed=0, n=20, edge_prob=0.2)
        p = init_params(X.shape[1], 5, 2, seed=0)
        field = receptive_field(A, self.TARGETS).holding(X)
        out, mid, inp = field.rows
        assert inp == slice(None) and field.held is None
        every = np.arange(A.shape[0])
        listed = dataclasses.replace(field, rows=(out, mid, every), layer1=A[mid][:, every])

        trace = forward(p, field, X)
        assert np.shares_memory(trace.dropped_input, X)
        assert np.array_equal(trace.logits, forward(p, listed, X).logits)

    @pytest.mark.parametrize("d, h", LAYER_1_ORDERS, ids=LAYER_1_ORDER_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_held_input_gives_whole_graph_logits(self, seed, d, h):
        """An eval pass on a field holding (ÂX)[F1] gives the whole graph's F0
        logits: bit for bit when the whole-graph pass also aggregates first
        (d <= h), within rounding when it projects first (d > h). A training
        pass on the field ignores the held rows."""
        _, X, A, _ = build_random_graph(seed=seed, n=60, dim=d, edge_prob=0.03)
        p = init_params(d, h, 3, seed=seed)
        field = receptive_field(A, self.TARGETS)
        held = field.holding(X)
        out, mid, _ = field.rows
        assert np.array_equal(held.held, (A @ X)[mid])

        trace = forward(p, held, X)
        whole = forward(p, A, X).logits[out]
        assert trace.dropped_input is None
        if d <= h:
            assert np.array_equal(trace.logits, whole)
        else:
            np.testing.assert_allclose(trace.logits, whole, rtol=0, atol=1e-12)
        train = [forward(p, where, X, training=True, dropout=0.5, rng=np.random.default_rng(7))
                 for where in (field, held)]
        assert np.array_equal(train[0].logits, train[1].logits)
        assert np.array_equal(train[0].aggregated, train[1].aggregated)

    @pytest.mark.parametrize("d, h", LAYER_1_ORDERS, ids=LAYER_1_ORDER_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_training_trace_keeps_aggregated_rows_not_its_input(self, seed, d, h):
        """A training pass on a grown field keeps (Â X_d)[F1], (|F1|, d), and no
        float (|F2|, d) array; W1's gradient is that array's transpose times the
        layer-1 gradient of a dense reference, whichever order eval would take."""
        _, X, A, labels = build_random_graph(seed=seed, n=60, dim=d, edge_prob=0.03)
        p = init_params(d, h, 2, seed=seed)
        field = receptive_field(A, self.TARGETS)
        out, mid, inp = field.rows
        assert mid.size < inp.size < A.shape[0]
        trace = forward(p, field, X, training=True, dropout=0.5, rng=np.random.default_rng(7))
        assert trace.aggregated.shape == (mid.size, d) and trace.dropped_input is None
        for value in vars(trace).values():
            if isinstance(value, np.ndarray) and value.shape == (inp.size, d):
                assert value.dtype == bool      # the input keep mask, an eighth of the floats

        key_in, key_h = np.random.default_rng(7).bit_generator.random_raw(2)
        dense = A.toarray()
        x_d = X * gcn.dropout_mask(key_in, slice(None), *X.shape, 0.5) / 0.5
        aggregated = (dense @ x_d)[mid]
        np.testing.assert_allclose(trace.aggregated, aggregated, rtol=1e-12, atol=1e-12)
        _, grad_logits = supervised_loss(trace.logits, labels[out], field.local(self.TARGETS))
        keep_h = gcn.dropout_mask(key_h, mid, X.shape[0], h, 0.5) / 0.5
        g = (dense[np.ix_(out, mid)].T @ grad_logits @ p.w2.T) * keep_h \
            * (aggregated @ p.w1 + p.b1 > 0)
        np.testing.assert_allclose(backward(p, trace, grad_logits)["w1"], aggregated.T @ g,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_energy_prop_scores_match_full_graph(self, seed):
        """A field grown by as many hops as energy_prop propagates gives the
        targets' whole-graph scores bit for bit, on the block of the whole
        operator and on the block's own row-stochastic pattern, which differs
        from it only in the outermost ring."""
        _, X, A, _ = build_random_graph(seed=seed, n=60, edge_prob=0.03)
        P = row_stochastic_adjacency(A)
        p = init_params(X.shape[1], 8, 3, seed=seed)
        whole = forward(p, A, X).logits
        for iterations in range(4):
            field = receptive_field(A, self.TARGETS, hops=iterations)
            out = field.rows[0]
            assert out.size < A.shape[0]
            full = scoring.score_nodes(whole, "energy_prop", row_stochastic=P,
                                       iterations=iterations)
            logits = forward(p, field, X).logits
            for block in (P[out][:, out], row_stochastic_adjacency(A[out][:, out])):
                part = scoring.score_nodes(logits, "energy_prop", row_stochastic=block,
                                           iterations=iterations)
                assert np.array_equal(part[field.local(self.TARGETS)], full[self.TARGETS])


class TestAdam:
    def test_zero_grads_leave_params(self):
        p = init_params(3, 4, 2, seed=0)
        before = p.copy()
        state = init_adam(p)
        adam_step(state, p, {k: np.zeros_like(v) for k, v in p.tensors().items()},
                  learning_rate=0.01)
        for name in before.tensors():
            assert np.array_equal(p.tensors()[name], before.tensors()[name])
        assert state.t == 1

    def test_first_step_unit_gradient(self):
        # bias-corrected m_hat / sqrt(v_hat) is 1 at t=1, so the update is -lr
        params = {"x": np.array([1.0])}
        state = init_adam(params)
        adam_step(state, params, {"x": np.array([1.0])}, learning_rate=0.1)
        assert params["x"][0] == pytest.approx(0.9, abs=1e-6)

    def test_identical_trajectories(self):
        rng_grads = [np.random.default_rng(5).normal(size=(3, 4)) for _ in range(5)]

        def run():
            params = {"w": np.ones((3, 4))}
            state = init_adam(params)
            for g in rng_grads:
                adam_step(state, params, {"w": g}, learning_rate=0.05)
            return params["w"]

        assert np.array_equal(run(), run())


class TestGradientCheck:
    def test_quadratic_is_exact(self):
        p = init_params(3, 4, 2, seed=4)
        center = {k: v + 0.3 for k, v in p.copy().tensors().items()}

        def objective(params):
            loss = 0.0
            grads = {}
            for name, tensor in params.tensors().items():
                diff = tensor - center[name]
                loss += 0.5 * float((diff ** 2).sum())
                grads[name] = diff
            return loss, grads

        assert gradient_check(objective, p, step=1e-4) <= 1e-8

    def test_zero_step_rejected(self):
        p = init_params(2, 2, 2, seed=0)
        with pytest.raises(ValueError, match="invalid step"):
            gradient_check(lambda q: (0.0, {}), p, step=0.0)

    def test_non_finite_loss_rejected(self):
        p = init_params(2, 2, 2, seed=0)
        bad = {k: np.zeros_like(v) for k, v in p.tensors().items()}
        with pytest.raises(ValueError, match="non-finite"):
            gradient_check(lambda q: (float("nan"), bad), p)


def test_dropout_scaling_matches_eval_expectation():
    """With always-positive pre-activations the network is linear in the
    dropout masks, so the mean of training-mode logits over many mask draws
    must approach the eval-mode logits (inverted-dropout scaling)."""
    n, d, h = 3, 4, 8
    graph = TextAttributedGraph(
        node_count=n,
        edges=canonicalize_edges(np.array([[0, 1], [1, 2], [0, 2]]), n),
        texts=["t"] * n,
        embeddings=np.full((n, d), 0.5, dtype=np.float32),
        labels=np.zeros(n, dtype=np.int64),
    )
    A = normalize_adjacency(graph)
    X = graph.embeddings.astype(np.float64)
    p = GcnParams(
        w1=np.full((d, h), 0.1), b1=np.full(h, 5.0),
        w2=np.full((h, 2), 0.05), b2=np.zeros(2),
    )
    eval_logits = forward(p, A, X).logits
    rng = np.random.default_rng(0)
    total = np.zeros_like(eval_logits)
    draws = 10_000
    for _ in range(draws):
        total += forward(p, A, X, training=True, dropout=0.5, rng=rng).logits
    mean = total / draws
    assert np.max(np.abs(mean - eval_logits) / np.abs(eval_logits)) <= 0.02


def _separable_toy(seed=0, per_class=60, dim=4):
    """Two ID blobs far apart on axis 0 plus an off-axis OOD blob."""
    rng = np.random.default_rng(seed)
    n = per_class * 3
    labels = np.repeat([0, 1, 2], per_class).astype(np.int64)
    means = np.zeros((3, dim))
    means[0, 0], means[1, 0], means[2, 1] = 3.0, -3.0, 3.0
    X = (means[labels] + 0.2 * rng.standard_normal((n, dim))).astype(np.float32)
    pairs = []
    for i in range(n):
        same = np.flatnonzero(labels == labels[i])
        for j in rng.choice(same, size=3, replace=False):
            if i != j:
                pairs.append((i, int(j)))
    graph = TextAttributedGraph(
        node_count=n, edges=canonicalize_edges(np.array(pairs), n),
        texts=["t"] * n, embeddings=X, labels=labels,
    )
    return graph


class TestTrainLoop:
    def _setup(self, graph, seed=0):
        cs = make_class_split(graph.labels, [0, 1])
        split = sample_data_split(graph, cs, seed, test_id_size=10, test_ood_size=10)
        labels = cs.compact_labels(graph.labels)
        return cs, split, labels, graph.embeddings.astype(np.float64), \
            normalize_adjacency(graph)

    def test_patience_zero_runs_exactly_one_epoch(self):
        graph = _separable_toy()
        _, split, labels, X, A = self._setup(graph)
        cfg = TrainConfig(hidden_dim=4, patience=0, max_epochs=50, seed=0)
        [result] = train_classifier(X, A, labels, split, cfg, SUPERVISED,
                                    id_class_count=2)
        assert len(result.history) == 1

    def test_runs_to_max_epochs_when_patience_allows(self):
        graph = _separable_toy()
        _, split, labels, X, A = self._setup(graph)
        cfg = TrainConfig(hidden_dim=4, patience=10, max_epochs=10, seed=0)
        [result] = train_classifier(X, A, labels, split, cfg, SUPERVISED,
                                    id_class_count=2)
        assert len(result.history) == 10

    def test_separable_toy_reaches_perfect_train_accuracy(self):
        graph = _separable_toy()
        # brute-force separability certificate: the class-0 and class-1
        # blobs do not overlap on the first feature axis
        x0 = graph.embeddings[:, 0]
        assert x0[graph.labels == 0].min() > x0[graph.labels == 1].max()

        _, split, labels, X, A = self._setup(graph)
        cfg = TrainConfig(hidden_dim=8, seed=0, max_epochs=100)
        [result] = train_classifier(X, A, labels, split, cfg, SUPERVISED,
                                    id_class_count=2)
        from goe.metrics import id_accuracy
        logits = forward(result.params, A, X).logits
        assert id_accuracy(logits, labels, split.train_id) == 1.0

    def test_deterministic_given_seed(self):
        graph = _separable_toy()
        _, split, labels, X, A = self._setup(graph)
        cfg = TrainConfig(hidden_dim=4, max_epochs=20, seed=5)

        def run():
            return train_classifier(X, A, labels, split, cfg, SUPERVISED,
                                    id_class_count=2)

        [a], [b] = run(), run()
        for name in a.params.tensors():
            assert np.array_equal(a.params.tensors()[name], b.params.tensors()[name])
        assert a.history == b.history

    def test_returned_params_achieve_best_recorded_score(self):
        graph = _separable_toy()
        _, split, labels, X, A = self._setup(graph)
        cfg = TrainConfig(hidden_dim=4, max_epochs=30, seed=1)
        [result] = train_classifier(X, A, labels, split, cfg, SUPERVISED,
                                    id_class_count=2, val_scorer="energy")
        from goe import metrics, scoring
        logits = forward(result.params, A, X).logits
        val_acc = metrics.id_accuracy(logits, labels, split.val_id, id_class_count=2)
        scores = scoring.energy_score(logits)
        val_auroc = metrics.auroc(scores[split.val_id], scores[split.val_ood])
        best_recorded = max(h["val_score"] for h in result.history)
        assert val_acc + val_auroc == pytest.approx(best_recorded, abs=1e-12)
        assert result.best_val_score == pytest.approx(best_recorded, abs=1e-12)

    def test_exposure_objective_trains(self):
        graph = _separable_toy()
        cs, split, labels, X, A = self._setup(graph)
        pseudo = np.flatnonzero(graph.labels == 2)[:15]
        pseudo = np.setdiff1d(pseudo, split.evaluation_nodes())
        cfg = TrainConfig(hidden_dim=8, max_epochs=40, seed=0)
        [result] = train_classifier(X, A, labels, split, cfg, EXPOSURE,
                                    id_class_count=2,
                                    pseudo_ood_ids=pseudo, exposure_weights=[0.05])
        assert np.isfinite(result.best_val_score)

    def test_every_epoch_validates_through_forward(self, monkeypatch):
        """Each epoch makes one training and one eval ``gcn.forward`` call, also
        when training stops early: a val pass that skips ``forward`` fails here."""
        graph = _separable_toy()
        _, split, labels, X, A = self._setup(graph)
        calls = {True: 0, False: 0}
        real_forward = gcn.forward

        def counted(*args, training=False, **kwargs):
            calls[training] += 1
            return real_forward(*args, training=training, **kwargs)

        monkeypatch.setattr(gcn, "forward", counted)
        cfg = TrainConfig(hidden_dim=4, patience=3, max_epochs=200, seed=0)
        [result] = train_classifier(X, A, labels, split, cfg, SUPERVISED,
                                    id_class_count=2)
        assert len(result.history) < cfg.max_epochs
        assert calls[False] == len(result.history) == calls[True]

    def test_empty_training_set_rejected(self):
        graph = _separable_toy()
        _, split, labels, X, A = self._setup(graph)
        split.train_id = np.array([], dtype=np.int64)
        cfg = TrainConfig(hidden_dim=4, seed=0)
        with pytest.raises(ValueError, match="empty training set"):
            train_classifier(X, A, labels, split, cfg, SUPERVISED,
                             id_class_count=2)


def _full_graph_history(X, A, labels, split, cfg, kind, pseudo, val_scorer, P):
    """The training loop on the whole graph every epoch: the reference that
    field training must reproduce."""
    params = init_params(X.shape[1], cfg.hidden_dim, 2, cfg.seed)
    state = init_adam(params)
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(gcn._STREAM_DROPOUT,)))
    history = []
    for _ in range(cfg.max_epochs):
        trace = forward(params, A, X, training=True, dropout=cfg.dropout, rng=rng)
        loss, grad_logits = objective_loss(trace.logits, labels, split.train_id, kind, pseudo,
                                           0.05, cfg.margin_id, cfg.margin_ood)
        adam_step(state, params, backward(params, trace, grad_logits, cfg.weight_decay),
                  cfg.learning_rate)
        logits = forward(params, A, X).logits
        scores = scoring.score_nodes(logits, val_scorer, row_stochastic=P)
        history.append({
            "loss": loss,
            "val_acc": metrics.id_accuracy(logits, labels, split.val_id, id_class_count=2),
            "val_auroc": metrics.auroc(scores[split.val_id], scores[split.val_ood]),
        })
    return history


def _check_field_history(graph, kind, val_scorer):
    """Five epochs of ``train_classifier`` log the full-graph loop's history."""
    cs = make_class_split(graph.labels, [0, 1])
    split = sample_data_split(graph, cs, 0, test_id_size=150, test_ood_size=150)
    labels = cs.compact_labels(graph.labels)
    X, A = graph.embeddings.astype(np.float64), normalize_adjacency(graph)
    P = row_stochastic_adjacency(A)
    pseudo = None
    if kind == EXPOSURE:
        pseudo = np.setdiff1d(np.flatnonzero(graph.labels == 2),
                              split.evaluation_nodes())[:30]
    cfg = TrainConfig(hidden_dim=16, max_epochs=5, patience=5, seed=3)

    [result] = train_classifier(X, A, labels, split, cfg, kind, id_class_count=2,
                                pseudo_ood_ids=pseudo, exposure_weights=[0.05],
                                val_scorer=val_scorer)
    reference = _full_graph_history(X, A, labels, split, cfg, kind, pseudo, val_scorer, P)
    assert len(result.history) == len(reference) == 5
    for got, want in zip(result.history, reference):
        assert got["val_acc"] == want["val_acc"]
        assert got["val_auroc"] == want["val_auroc"]
        assert got["loss"] == pytest.approx(want["loss"], rel=1e-12)


FIELD_HISTORY_CASES = [(SUPERVISED, "energy"), (EXPOSURE, "energy_prop")]


@pytest.mark.parametrize("kind, val_scorer", FIELD_HISTORY_CASES)
def test_field_training_history_matches_full_graph_loop(planted, kind, val_scorer):
    _check_field_history(planted[0], kind, val_scorer)


@pytest.mark.parametrize("kind, val_scorer", FIELD_HISTORY_CASES)
def test_field_training_history_matches_full_graph_loop_projecting_first(kind, val_scorer):
    """d > h: the full-graph loop projects first and the held val field
    aggregates first, so the val logits differ by rounding only."""
    _check_field_history(make_planted_tag(seed=0, dim=64)[0], kind, val_scorer)


def _stack(singles):
    """Models side by side: W1 and the biases joined, W2 block-diagonal."""
    return GcnParams(w1=np.hstack([p.w1 for p in singles]),
                     b1=np.concatenate([p.b1 for p in singles]),
                     w2=scipy.linalg.block_diag(*[p.w2 for p in singles]),
                     b2=np.concatenate([p.b2 for p in singles]))


def _model(d, h, seed):
    """``init_params`` with nonzero biases, so a block's bias matters."""
    p = init_params(d, h, 2, seed=seed)
    rng = np.random.default_rng(seed + 100)
    p.b1, p.b2 = 0.1 * rng.standard_normal(h), 0.1 * rng.standard_normal(2)
    return p


class TestStackedGrid:
    WEIGHTS = (0.01, 0.5, 5.0)

    @pytest.mark.parametrize("dropout", [0.0, 0.5], ids=["eval", "train"])
    @pytest.mark.parametrize("d, h", LAYER_1_ORDERS, ids=LAYER_1_ORDER_IDS)
    def test_each_block_gives_its_model_logits_and_masks(self, d, h, dropout):
        _, X, A, _ = build_random_graph(seed=2, n=40, dim=d, edge_prob=0.05)
        singles = [_model(d, h, seed) for seed in range(3)]
        for where in (A, receptive_field(A, np.array([3, 11, 29]))):
            # a fresh rng per pass: the stack must draw what one model draws
            stacked = forward(_stack(singles), where, X, training=dropout > 0,
                              dropout=dropout, rng=np.random.default_rng(7), blocks=3)
            for g, p in enumerate(singles):
                alone = forward(p, where, X, training=dropout > 0, dropout=dropout,
                                rng=np.random.default_rng(7))
                np.testing.assert_allclose(stacked.logits[:, 2 * g:2 * g + 2], alone.logits,
                                           rtol=1e-12, atol=1e-12)
                if dropout:
                    assert np.array_equal(stacked.drop_mask_input, alone.drop_mask_input)
                    assert np.array_equal(stacked.drop_mask_hidden[:, h * g:h * (g + 1)],
                                          alone.drop_mask_hidden)

    @pytest.mark.parametrize("d, h", LAYER_1_ORDERS, ids=LAYER_1_ORDER_IDS)
    def test_stack_multiplies_in_one_models_order(self, d, h, monkeypatch):
        orders = []
        propagate = gcn._propagate

        def spy(adjacency, x, w, project):
            orders.append(project)
            return propagate(adjacency, x, w, project)

        monkeypatch.setattr(gcn, "_propagate", spy)
        _, X, A, _ = build_random_graph(seed=2, n=12, dim=d)
        single = _model(d, h, 0)
        forward(single, A, X)
        forward(_stack([single] * 3), A, X, blocks=3)
        assert orders[:2] == orders[2:] == [h < d, True]
        orders.clear()
        # a training pass aggregates layer 1 first outside _propagate; only layer 2 chooses
        forward(single, A, X, training=True, dropout=0.5, rng=np.random.default_rng(0))
        forward(_stack([single] * 3), A, X, training=True, dropout=0.5,
                rng=np.random.default_rng(0), blocks=3)
        assert orders == [True, True]

    @pytest.mark.parametrize("d, h", LAYER_1_ORDERS, ids=LAYER_1_ORDER_IDS)
    def test_stacked_gradients_match_finite_differences(self, d, h):
        _, X, A, labels = build_random_graph(seed=3, n=10, dim=d)
        train_ids, pseudo = np.arange(6), np.array([7, 8, 9])
        blocks = len(self.WEIGHTS)

        def objective(params):
            # a fresh rng per call freezes the training-mode masks across the probes
            trace = forward(params, A, X, training=True, dropout=0.5,
                            rng=np.random.default_rng(7), blocks=blocks)
            grad_logits = np.empty_like(trace.logits)
            total = 0.0
            for g, weight in enumerate(self.WEIGHTS):
                cols = slice(2 * g, 2 * g + 2)
                loss, grad_logits[:, cols] = objective_loss(
                    trace.logits[:, cols], labels, train_ids, EXPOSURE, pseudo, weight,
                    DEFAULT_MARGIN_ID, DEFAULT_MARGIN_OOD)
                total += loss
            return total, backward(params, trace, grad_logits, weight_decay=0.0)

        params = _stack([_model(d, h, seed) for seed in range(blocks)])
        # every coordinate, the off-diagonal blocks of W2 included
        err = gradient_check(objective, params, step=1e-4, rng=np.random.default_rng(0),
                             max_coords_per_tensor=params.w2.size + params.w1.size)
        assert err <= 1e-4

    def _problem(self, planted):
        graph, _ = planted
        cs = make_class_split(graph.labels, [0, 1])
        split = sample_data_split(graph, cs, 0, test_id_size=150, test_ood_size=150)
        pseudo = np.setdiff1d(np.flatnonzero(graph.labels == 2),
                              split.evaluation_nodes())[:30]
        return (graph.embeddings.astype(np.float64), normalize_adjacency(graph),
                cs.compact_labels(graph.labels), split, pseudo)

    def test_each_block_matches_its_weight_trained_alone(self, planted):
        X, A, labels, split, pseudo = self._problem(planted)
        cfg = TrainConfig(hidden_dim=8, max_epochs=80, patience=5, seed=1)
        def train(weights):
            return train_classifier(X, A, labels, split, cfg, EXPOSURE,
                                    id_class_count=2, pseudo_ood_ids=pseudo,
                                    exposure_weights=weights, val_scorer="energy_prop")

        stacked = train(self.WEIGHTS)
        assert len(stacked) == len(self.WEIGHTS)
        for weight, got in zip(self.WEIGHTS, stacked):
            [alone] = train([weight])
            assert len(got.history) == len(alone.history)
            assert got.best_epoch == alone.best_epoch
            assert got.best_val_score == alone.best_val_score
            for name, want in alone.params.tensors().items():
                np.testing.assert_allclose(got.params.tensors()[name], want,
                                           rtol=0, atol=1e-12)
            for row, want in zip(got.history, alone.history):
                assert row.keys() == want.keys()
                for key, value in want.items():
                    assert row[key] == pytest.approx(value, rel=1e-12, abs=1e-12)
        # the blocks stop early, each at its own epoch, not in list order
        stops = [len(result.history) for result in stacked]
        assert len(set(stops)) == 3 and max(stops) < cfg.max_epochs
        assert stops.index(min(stops)) != len(stops) - 1


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 30), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       picks=st.integers(0, 30))
@example(n=6, density=0.5, seed=0, picks=0)      # no targets
@example(n=6, density=1.0, seed=0, picks=6)      # every neighbour repeated
def test_grow_matches_union1d(n, density, seed, picks):
    rng = np.random.default_rng(seed)
    A = sp.csr_matrix(rng.random((n, n)) < density, dtype=np.float64)
    rows = np.unique(rng.integers(0, n, size=picks))
    got = gcn._grow(A, rows)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.union1d(rows, A[rows].indices))


def test_train_config_validation():
    TrainConfig().validate()
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(patience=300, max_epochs=200).validate()
    with pytest.raises(ValueError):
        TrainConfig(margin_id=-1.0, margin_ood=-5.0).validate()
