"""Two-layer graph convolutional classifier with hand-derived gradients.

The architecture is fixed: propagate, linear, ReLU, propagate, linear, with
inverted dropout on the input of each layer during training. Gradients are
written out by hand for exactly this composition; there is no autodiff.

    X_d = Drop(X)            H = ReLU(A_hat @ X_d @ W1 + b1)
    H_d = Drop(H)            Z = A_hat @ H_d @ W2 + b2

A training pass aggregates layer 1 first, ``(A_hat @ X_d)[F1] @ W1``, so W1's
dense products, forward and backward, run on F1's rows rather than F2's, and
its trace keeps that product instead of the input. Eval passes take the
narrower side of each weight, ``A_hat @ (x @ w)`` when ``w`` has fewer output
columns than input rows, else ``(A_hat @ x) @ w`` (whole-graph scoring has
F1 = F2, so there aggregating first saves no rows): layer 2 (h > k) always
projects first and layer 1 does when d > h, unless the field holds
``(A_hat @ X)[F1]`` (``ReceptiveField.holding``) and reads ``held @ W1``.

``train_classifier`` takes one objective and a grid of G exposure weights,
and trains them as one stack of G models: ``W1`` is ``(d, G*h)`` and ``W2``
is block-diagonal ``(G*h, G*k)``. ``forward(..., blocks=G)`` tiles one
block's hidden dropout mask and multiplies in one block's order, so the
blocks share each epoch's masks. Each stops early alone, and each weight gets
its own ``TrainResult``.

Dropout and ReLU masks are kept as bool arrays and the inverted-dropout
scale is applied where a mask is used.

Both passes run on a ``ReceptiveField``: the output rows F0, the rows F1 that
layer 2 reads (F0 and its neighbours) and the rows F2 that layer 1 reads (F1
and its neighbours). Logits on F0 depend on nothing outside F2, so a pass on
the field gives the full-graph rows of F0, and the full-graph gradients of a
loss that reads only F0. ``train_classifier`` runs each epoch on two fields,
one grown from the nodes the loss reads and one from the validation nodes,
so an epoch costs in proportion to the fields, not to the graph. The
backward pass multiplies by the forward pass's own blocks, so the gradients
are exact for any adjacency. A plain adjacency is the whole-graph field.
Entry (i, j) of a dropout mask is a counter hash of the pass's key, node i
and column j (``dropout_mask``), so a pass computes only its field's rows and
they equal the whole-graph mask's.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from . import metrics, scoring
from .graph import InputError, row_stochastic_adjacency
from .objectives import (DEFAULT_MARGIN_ID, DEFAULT_MARGIN_OOD, EXPOSURE, KPLUS1, SUPERVISED,
                         binary_head_loss, objective_loss)

_TENSOR_NAMES = ("w1", "b1", "w2", "b2")

# RNG stream tags, offset away from the split streams in graph.py.
_STREAM_DROPOUT = 101
_STREAM_HEAD_INIT = 102


@dataclass
class GcnParams:
    w1: np.ndarray  # (d, h)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (h, k_out)
    b2: np.ndarray  # (k_out,)

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _TENSOR_NAMES}

    def copy(self) -> "GcnParams":
        return GcnParams(**{k: v.copy() for k, v in self.tensors().items()})

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def output_dim(self) -> int:
        return self.w2.shape[1]


@dataclass
class ForwardTrace:
    """Intermediates cached by a forward pass for the matching backward pass.

    On a field, row counts are |F0| for ``logits``, |F1| for ``aggregated``
    and the hidden arrays, and |F2| for the input arrays; the shapes below
    are whole-graph. An unheld eval pass keeps its input, not ``aggregated``.
    """

    logits: np.ndarray          # (n, k_out)
    hidden: np.ndarray          # (n, h) post-ReLU, pre-dropout
    aggregated: np.ndarray | None     # (n, d) A_hat @ Drop(X), or the held rows in eval
    dropped_input: np.ndarray | None  # (n, d) X, from an eval pass with no held rows
    dropped_hidden: np.ndarray  # (n, h) Drop(hidden)
    relu_mask: np.ndarray       # (n, h) bool, pre-activation > 0
    field: ReceptiveField
    drop_mask_input: np.ndarray | None = None   # bool keep masks, unscaled
    drop_mask_hidden: np.ndarray | None = None
    dropout_scale: float = 1.0                  # 2¹⁶/t, applied with the masks


def init_params(input_dim: int, hidden_dim: int, output_dim: int,
                seed: int) -> GcnParams:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    if min(input_dim, hidden_dim, output_dim) < 1:
        raise ValueError("all dimensions must be >= 1")
    rng = np.random.default_rng(seed)

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    return GcnParams(
        w1=glorot(input_dim, hidden_dim),
        b1=np.zeros(hidden_dim),
        w2=glorot(hidden_dim, output_dim),
        b2=np.zeros(output_dim),
    )


@dataclass(frozen=True)
class ReceptiveField:
    """The rows and adjacency blocks a two-layer pass needs for its outputs.

    ``rows`` holds the sorted node ids F0 ⊆ F1 ⊆ F2 (or ``slice(None)`` for
    the whole graph; a grown field's F2 is ``slice(None)`` when it holds every
    node). ``layer1`` is ``A_hat[F1][:, F2]`` and ``layer2`` is
    ``A_hat[F0][:, F1]``. ``layer2_t`` is ``layer2``'s transpose, a CSC view
    sharing its arrays, built once per field for the backward pass. ``held``
    is ``(A_hat @ X)[F1]`` on a field from ``holding``; an eval pass on it
    reads neither ``X`` nor ``layer1``.
    """

    rows: tuple[np.ndarray | slice, np.ndarray | slice, np.ndarray | slice]
    layer1: sp.spmatrix
    layer2: sp.spmatrix
    held: np.ndarray | None = None

    @classmethod
    def whole(cls, adjacency: sp.spmatrix) -> "ReceptiveField":
        return cls((slice(None),) * 3, adjacency, adjacency)

    @functools.cached_property
    def layer2_t(self) -> sp.spmatrix:
        return self.layer2.T

    def holding(self, features: np.ndarray) -> "ReceptiveField":
        """This field holding ``layer1 @ features[F2]`` for eval passes, when it
        gathers its input rows; a field whose F2 is every node reads
        ``features`` in place and is returned as it is."""
        if isinstance(self.rows[2], slice):
            return self
        return dataclasses.replace(self, held=self.layer1 @ features[self.rows[2]])

    def local(self, node_ids: np.ndarray) -> np.ndarray:
        """Positions of ``node_ids`` (all in F0) among the field's output rows."""
        out = self.rows[0]
        return node_ids if isinstance(out, slice) else np.searchsorted(out, node_ids)


def _grow(adjacency: sp.spmatrix, rows: np.ndarray) -> np.ndarray:
    """``rows`` and their neighbours, sorted."""
    both = np.sort(np.concatenate([rows, adjacency[rows].indices]))
    keep = np.ones(both.size, dtype=bool)
    keep[1:] = both[1:] != both[:-1]
    return both[keep]


def receptive_field(adjacency: sp.csr_matrix, targets: np.ndarray,
                    hops: int = 0) -> ReceptiveField:
    """The field whose output rows F0 are ``targets`` grown by ``hops`` hops.

    ``hops`` covers a post-hoc step that reads neighbours of the targets'
    logits, such as ``energy_prop`` with that many iterations.
    """
    out = np.unique(np.asarray(targets, dtype=np.int64))
    for _ in range(hops):
        out = _grow(adjacency, out)
    mid = _grow(adjacency, out)
    inp = _grow(adjacency, mid)
    if inp.size == adjacency.shape[0]:
        inp = slice(None)          # forward then reads the features in place
    return ReceptiveField((out, mid, inp), adjacency[mid][:, inp], adjacency[out][:, mid])


def _keep_threshold(keep: float) -> int:
    """``keep`` in units of 2⁻¹⁶, the resolution of a mask's 16-bit lanes."""
    t = round(keep * 2**16)
    if not 0 < t <= 2**16:
        raise InputError(f"keep probability {keep!r} rounds to {t}/65536, outside (0, 1]")
    return t


_PHI = 0x9E3779B97F4A7C15   # splitmix64's counter step, 2⁶⁴ / golden ratio
_MASK_SPAN = 1 << 16        # words hashed per block, so its temporaries stay small and reused


def dropout_mask(key: int, rows: np.ndarray | slice, n: int, cols: int,
                 keep: float) -> np.ndarray:
    """Bool keep mask, ``(len(rows), cols)``, for ``rows`` of an ``(n, cols)`` mask.

    Entry (i, j) is lane ``j % 4`` of ``splitmix64(counter * φ + key)``, with
    ``counter = i * ceil(cols / 4) + j // 4`` and each uint64 read as four
    little-endian 16-bit lanes; it is kept when its lane is below
    ``t = round(keep * 2¹⁶)``. Any rows give the same bits as the whole mask.
    """
    t = _keep_threshold(keep)
    words = -(-cols // 4)
    # counter * φ + key, summed mod 2⁶⁴ as a row term plus a column term
    row_start = np.arange(n, dtype=np.uint64)[rows] * ((words * _PHI) % 2**64) + key
    step = max(1, _MASK_SPAN // words)
    mask = np.empty((row_start.size, cols), dtype=bool)
    for start in range(0, row_start.size, step):
        z = row_start[start:start + step, None] + np.arange(words, dtype=np.uint64) * _PHI
        for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z ^= z >> shift
            z *= multiplier
        z ^= z >> 31
        mask[start:start + step] = z.astype("<u8", copy=False).view("<u2")[:, :cols] < t
    return mask


def _propagate(adjacency: sp.spmatrix, x: np.ndarray, w: np.ndarray,
               project: bool) -> np.ndarray:
    """A_hat @ x @ w, as ``A_hat @ (x @ w)`` when ``project``, else ``(A_hat @ x) @ w``."""
    if project:
        return adjacency @ (x @ w)
    return (adjacency @ x) @ w


def forward(params: GcnParams, adjacency: sp.spmatrix | ReceptiveField,
            features: np.ndarray, *, training: bool = False, dropout: float = 0.0,
            rng: np.random.Generator | None = None, blocks: int = 1) -> ForwardTrace:
    """Forward pass on a field, or on the whole graph for a plain adjacency.

    ``features`` always holds every node; eval mode is deterministic and
    dropout-free, and on a field with ``held`` rows it reads those instead
    of ``features``. ``blocks`` is the number of models stacked in ``params``.
    Training keys the input mask (F2's rows) and one block's hidden mask (F1's
    rows) with ``rng.bit_generator.random_raw(2)``. Both keep at rate ``t / 2¹⁶``,
    ``1 - dropout`` rounded to a multiple of 2⁻¹⁶, and scale by ``2¹⁶ / t``.
    """
    if features.shape[1] != params.input_dim:
        raise ValueError(
            f"feature dim {features.shape[1]} != parameter input dim {params.input_dim}"
        )
    use_dropout = training and dropout > 0.0
    if use_dropout and rng is None:
        raise ValueError("training-mode dropout needs an rng")
    field = (adjacency if isinstance(adjacency, ReceptiveField)
             else ReceptiveField.whole(adjacency))
    _, mid, inp = field.rows
    keep, scale = 1.0 - dropout, 1.0
    width, out_dim = params.hidden_dim // blocks, params.output_dim // blocks

    mask_in = mask_h = None
    if use_dropout:
        scale = 2**16 / _keep_threshold(keep)
        key_in, key_h = rng.bit_generator.random_raw(2)
        mask_in = dropout_mask(key_in, inp, *features.shape, keep)
        mask_h = np.tile(dropout_mask(key_h, mid, features.shape[0], width, keep), blocks)
        x = features[inp] * mask_in
        x *= scale
    elif training or field.held is None:
        x = features[inp]
    else:
        x = None                 # layer 1 is the held (A_hat @ X)[F1] @ W1
    if training:                 # W1 then meets F1's rows of A_hat @ X_d, not F2's of X_d
        aggregated, x = field.layer1 @ x, None
    else:
        aggregated = field.held  # None: an unheld eval pass keeps x and may project first
    pre_act = (aggregated @ params.w1 if aggregated is not None
               else _propagate(field.layer1, x, params.w1, width < params.input_dim)) + params.b1
    relu_mask = pre_act > 0
    hidden = pre_act * relu_mask
    h = hidden if mask_h is None else hidden * mask_h * scale
    logits = _propagate(field.layer2, h, params.w2, out_dim < width) + params.b2
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits in forward pass")

    return ForwardTrace(
        logits=logits, hidden=hidden, aggregated=aggregated, dropped_input=x, dropped_hidden=h,
        relu_mask=relu_mask, field=field,
        drop_mask_input=mask_in, drop_mask_hidden=mask_h, dropout_scale=scale,
    )


def backward(params: GcnParams, trace: ForwardTrace, grad_logits: np.ndarray,
             weight_decay: float = 0.0) -> dict[str, np.ndarray]:
    """Gradients of loss(logits) + (wd/2)*(|W1|^2 + |W2|^2) w.r.t. parameters.

    Weight decay touches the weight matrices only, never the biases. The
    gradients multiply by the blocks the forward pass used, layer 1's through
    ``aggregated``, so they are exact for any adjacency and either
    multiplication order. On a field, ``grad_logits`` holds the F0 rows, and
    the loss must read no other rows.
    """
    if grad_logits.shape != trace.logits.shape:
        raise ValueError("grad_logits shape does not match trace logits")
    field = trace.field
    prop_grad = field.layer2_t @ grad_logits
    grad_w2 = trace.dropped_hidden.T @ prop_grad
    grad_b2 = grad_logits.sum(axis=0)
    g = prop_grad @ params.w2.T
    if trace.drop_mask_hidden is not None:
        g *= trace.drop_mask_hidden
        g *= trace.dropout_scale
    g *= trace.relu_mask
    aggregated = trace.aggregated
    if aggregated is None:
        aggregated = field.layer1 @ trace.dropped_input
    grad_w1 = aggregated.T @ g
    grad_b1 = g.sum(axis=0)
    if weight_decay:
        grad_w1 = grad_w1 + weight_decay * params.w1
        grad_w2 = grad_w2 + weight_decay * params.w2
    return {"w1": grad_w1, "b1": grad_b1, "w2": grad_w2, "b2": grad_b2}


_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam(params: GcnParams | dict[str, np.ndarray]) -> AdamState:
    tensors = params.tensors() if isinstance(params, GcnParams) else params
    return AdamState(
        m={k: np.zeros_like(v) for k, v in tensors.items()},
        v={k: np.zeros_like(v) for k, v in tensors.items()},
    )


def adam_step(state: AdamState, params: GcnParams | dict[str, np.ndarray],
              grads: dict[str, np.ndarray], learning_rate: float) -> None:
    """One bias-corrected Adam update, in place."""
    tensors = params.tensors() if isinstance(params, GcnParams) else params
    state.t += 1
    bc1 = 1.0 - _ADAM_BETA1 ** state.t
    bc2 = 1.0 - _ADAM_BETA2 ** state.t
    for name, p in tensors.items():
        g = grads[name]
        state.m[name] = _ADAM_BETA1 * state.m[name] + (1.0 - _ADAM_BETA1) * g
        state.v[name] = _ADAM_BETA2 * state.v[name] + (1.0 - _ADAM_BETA2) * (g * g)
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p -= learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def gradient_check(
    objective: Callable[[GcnParams], tuple[float, dict[str, np.ndarray]]],
    params: GcnParams,
    *,
    step: float = 1e-4,
    rng: np.random.Generator | None = None,
    max_coords_per_tensor: int = 24,
) -> float:
    """Max relative error between analytic gradients and central differences.

    The objective must be deterministic (eval-mode forward or frozen masks).
    A subset of coordinates is probed per tensor when tensors are large.
    """
    if step <= 0:
        raise ValueError("invalid step")
    if rng is None:
        rng = np.random.default_rng(0)
    loss0, grads = objective(params)
    if not np.isfinite(loss0):
        raise ValueError("non-finite loss")

    worst = 0.0
    for name, tensor in params.tensors().items():
        flat = tensor.reshape(-1)
        size = flat.size
        if size <= max_coords_per_tensor:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=max_coords_per_tensor, replace=False)
        analytic_flat = grads[name].reshape(-1)
        for i in coords:
            original = flat[i]
            flat[i] = original + step
            loss_plus, _ = objective(params)
            flat[i] = original - step
            loss_minus, _ = objective(params)
            flat[i] = original
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            analytic = analytic_flat[i]
            rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            worst = max(worst, rel)
    return worst


@dataclass
class TrainConfig:
    """Hyperparameters for classifier training and exposure regularization."""

    hidden_dim: int = 32
    learning_rate: float = 0.01
    dropout: float = 0.5
    weight_decay: float = 5e-4
    # Read by nothing: runs take their weights from ExperimentConfig.exposure_weights.
    # It stays because config_hash covers it, so removing it would move every hash.
    exposure_weight: float = 0.05
    margin_id: float = DEFAULT_MARGIN_ID
    margin_ood: float = DEFAULT_MARGIN_OOD
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.dropout < 1.0:
            raise InputError("dropout must lie in [0, 1)")
        _keep_threshold(1.0 - self.dropout)
        for name, low in (("hidden_dim", 1), ("max_epochs", 1), ("weight_decay", 0)):
            if getattr(self, name) < low:
                raise InputError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise InputError("learning_rate must be positive")
        if self.patience > self.max_epochs:
            raise InputError("patience must not exceed max_epochs")
        if not self.margin_ood > self.margin_id:
            raise InputError("margin_ood must exceed margin_id")

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        return cls(**known_keys(cls, data, "train"))


def known_keys(cls, data: dict, section: str) -> dict:
    """``data`` as keyword arguments of the dataclass ``cls``; an unknown key fails."""
    names = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in names:
            raise InputError(f"unknown {section} key {key!r}")
    return data


@dataclass
class TrainResult:
    """The best epoch's parameters (``GcnParams``, or a binary head's weight
    vector), the per-epoch history, and the early-stopping state."""

    params: GcnParams | np.ndarray
    history: list[dict] = dataclasses.field(default_factory=list)
    best_epoch: int = 0
    best_val_score: float = -np.inf
    bad_epochs: int = 0   # consecutive epochs since the best

    def record(self, entry: dict, snapshot: Callable[[], GcnParams | np.ndarray]) -> None:
        """Log one epoch; keep ``snapshot()`` if its val score beats every earlier one."""
        self.history.append(entry)
        if entry["val_score"] > self.best_val_score:
            self.best_val_score = entry["val_score"]
            self.params = snapshot()
            self.best_epoch = entry["epoch"]
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1


def _take_blocks(tensors: dict, blocks: np.ndarray, hidden: int, out: int) -> dict:
    """Copies of the stacked ``tensors`` restricted to the models at ``blocks``."""
    rows = (blocks[:, None] * hidden + np.arange(hidden)).ravel()
    cols = (blocks[:, None] * out + np.arange(out)).ravel()
    return {"w1": tensors["w1"][:, rows], "b1": tensors["b1"][rows],
            "w2": tensors["w2"][np.ix_(rows, cols)], "b2": tensors["b2"][cols]}


def train_classifier(
    features: np.ndarray,
    adjacency: sp.spmatrix,
    labels: np.ndarray,
    split,
    config: TrainConfig,
    objective: str,
    *,
    id_class_count: int,
    pseudo_ood_ids: np.ndarray | None = None,
    exposure_weights: Sequence[float] = (0.0,),
    val_scorer: str = "energy",
    prop_alpha: float = 0.5,
    prop_iterations: int = 2,
) -> list[TrainResult]:
    """Full-batch training of ``objective`` (an ``objectives`` kind, with the
    margins of ``config``), one model per exposure weight, with early stopping
    on val accuracy + val AUROC under ``val_scorer`` (a ``scoring.score_nodes``
    tag). Returns one result per weight, in order. The model has
    ``id_class_count`` outputs, one more under ``KPLUS1``; a ``SUPERVISED``
    objective ignores ``pseudo_ood_ids``.

    Every epoch trains on the receptive field of the nodes the loss reads
    (train and pseudo-OOD) and validates on the field of ``val_id`` and
    ``val_ood``, grown by ``prop_iterations`` hops when the val scorer is
    ``energy_prop``. Both give the full-graph loss, gradients and scores.
    The val field holds ``(A_hat @ X)[F1]`` when it does not hold every node,
    so an eval pass multiplies only F1's rows by ``W1``; when d > h that moves
    the val logits by last-bit rounding against the projecting-first order.
    ``energy_prop`` propagates over ``row_stochastic_adjacency`` of the val
    field's block of ``adjacency``; only its outermost ring is renormalized,
    and no val node's score reads those rows. Each model keeps the parameters
    of its best epoch (ties resolved to the earliest) and stops after
    ``config.patience`` consecutive non-improving epochs.

    The weights train as one stacked model. The models start from the same
    parameters and share each epoch's dropout masks, and ``W2``'s off-diagonal
    blocks get no gradient, so each block is exactly the model its weight
    would train alone. Each block stops early on its own and then leaves the
    stack; the loop ends when the last one stops.
    """
    config.validate()
    if objective not in (SUPERVISED, EXPOSURE, KPLUS1):
        raise ValueError(f"unknown objective kind {objective!r}")
    if objective == SUPERVISED:
        pseudo_ood_ids = None
    elif pseudo_ood_ids is None or len(pseudo_ood_ids) == 0:
        raise ValueError("exposure requested but no pseudo-OOD available")
    if len(exposure_weights) == 0 or min(exposure_weights) < 0:
        raise ValueError(f"exposure_weights must be non-empty and non-negative, "
                         f"got {list(exposure_weights)}")
    train_ids = np.asarray(split.train_id)
    if train_ids.size == 0:
        raise ValueError("empty training set")
    labels = np.asarray(labels)

    train_field = receptive_field(adjacency, train_ids if pseudo_ood_ids is None
                                  else np.concatenate([train_ids, pseudo_ood_ids]))
    train_labels = labels[train_field.rows[0]]
    local_train = train_field.local(train_ids)
    local_pseudo = None if pseudo_ood_ids is None else train_field.local(pseudo_ood_ids)

    propagated = val_scorer == "energy_prop"
    val_field = receptive_field(adjacency, np.concatenate([split.val_id, split.val_ood]),
                                prop_iterations if propagated else 0).holding(features)
    val_rows = val_field.rows[0]
    val_labels = labels[val_rows]
    val_id, val_ood = val_field.local(split.val_id), val_field.local(split.val_ood)
    val_prop = row_stochastic_adjacency(adjacency[val_rows][:, val_rows]) if propagated else None

    hidden, out = config.hidden_dim, id_class_count + (objective == KPLUS1)
    single = init_params(features.shape[1], hidden, out, config.seed)
    count = len(exposure_weights)
    params = GcnParams(w1=np.tile(single.w1, count), b1=np.tile(single.b1, count),
                       w2=np.kron(np.eye(count), single.w2), b2=np.tile(single.b2, count))
    state = init_adam(params)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(_STREAM_DROPOUT,)))

    results = [TrainResult(single.copy()) for _ in range(count)]
    active = list(range(count))  # the weight of each block in the stack
    in_blocks = np.kron(np.eye(count), np.ones((hidden, out)))  # W2 gets no gradient across blocks

    for epoch in range(1, config.max_epochs + 1):
        trace = forward(params, train_field, features, training=True,
                        dropout=config.dropout, rng=rng, blocks=len(active))
        grad_logits = np.empty_like(trace.logits)
        losses = []
        for pos, i in enumerate(active):
            cols = slice(pos * out, (pos + 1) * out)
            loss, grad_logits[:, cols] = objective_loss(
                trace.logits[:, cols], train_labels, local_train, objective, local_pseudo,
                exposure_weights[i], config.margin_id, config.margin_ood)
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite loss at epoch {epoch} "
                                         f"(objective {objective})")
            losses.append(loss)
        grads = backward(params, trace, grad_logits, weight_decay=config.weight_decay)
        del trace
        grads["w2"] *= in_blocks
        adam_step(state, params, grads, config.learning_rate)

        logits = forward(params, val_field, features, blocks=len(active)).logits
        for pos, i in enumerate(active):
            block = logits[:, pos * out:(pos + 1) * out]
            scores = scoring.score_nodes(block, val_scorer, row_stochastic=val_prop,
                                         alpha=prop_alpha, iterations=prop_iterations)
            val_acc = metrics.id_accuracy(block, val_labels, val_id, id_class_count=id_class_count)
            val_auroc = metrics.auroc(scores[val_id], scores[val_ood])
            results[i].record(
                {"epoch": epoch, "loss": losses[pos], "val_acc": val_acc,
                 "val_auroc": val_auroc, "val_score": val_acc + val_auroc},
                lambda: GcnParams(**_take_blocks(params.tensors(), np.array([pos]), hidden, out)))

        going = np.array([pos for pos, i in enumerate(active)
                          if results[i].bad_epochs < config.patience], dtype=np.int64)
        if going.size == 0:
            break
        if going.size < len(active):
            params = GcnParams(**_take_blocks(params.tensors(), going, hidden, out))
            state.m, state.v = (_take_blocks(t, going, hidden, out) for t in (state.m, state.v))
            active = [active[pos] for pos in going]
            in_blocks = in_blocks[:going.size * hidden, :going.size * out]

    return results


def train_binary_head(
    hidden: np.ndarray,
    id_ids: np.ndarray,
    ood_ids: np.ndarray,
    split,
    config: TrainConfig,
    *,
    backbone_val_acc: float,
) -> TrainResult:
    """Fit a linear OOD head on frozen hidden features.

    The backbone's validation accuracy is constant during this stage, so the
    early-stopping criterion reduces to validation AUROC plus that constant.
    The result's ``params`` is the best epoch's head weight vector.
    """
    config.validate()
    id_ids = np.asarray(id_ids)
    ood_ids = np.asarray(ood_ids)
    if id_ids.size == 0 or ood_ids.size == 0:
        raise ValueError("empty node set for binary head")

    h = hidden.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(_STREAM_HEAD_INIT,)))
    limit = np.sqrt(6.0 / (h + 1))
    weights = {"w": rng.uniform(-limit, limit, size=h)}
    state = init_adam(weights)
    result = TrainResult(weights["w"].copy())

    for epoch in range(1, config.max_epochs + 1):
        z = hidden @ weights["w"]
        loss, grad_z = binary_head_loss(z, id_ids, ood_ids)
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite head loss at epoch {epoch}")
        grads = {"w": hidden.T @ grad_z}
        adam_step(state, weights, grads, config.learning_rate)

        scores = scoring.binary_head_score(hidden, weights["w"])
        val_auroc = metrics.auroc(scores[split.val_id], scores[split.val_ood])
        result.record({"epoch": epoch, "loss": loss, "val_auroc": val_auroc,
                       "val_score": backbone_val_acc + val_auroc},
                      lambda: weights["w"].copy())
        if result.bad_epochs >= config.patience:
            break

    return result


def save_params(params: GcnParams, path: Path | str) -> None:
    """params.bin: u32 d, u32 h, u32 k_out header, then f32 tensors in order."""
    with Path(path).open("wb") as fh:
        fh.write(struct.pack("<III", params.input_dim, params.hidden_dim,
                             params.output_dim))
        for tensor in params.tensors().values():
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())

