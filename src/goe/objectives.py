"""Training objectives over classifier logits.

Every loss returns ``(value, gradient)`` where the gradient matches the logit
matrix shape, with zero rows for nodes the loss does not touch. The OOD score
convention throughout is ``energy(z) = -logsumexp(z)``: larger means more
likely OOD, so confident in-distribution predictions sit at very negative
energies.
"""

from __future__ import annotations

import numpy as np

SUPERVISED = "supervised"
EXPOSURE = "exposure"
KPLUS1 = "kplus1"

DEFAULT_MARGIN_ID = -5.0
DEFAULT_MARGIN_OOD = -1.0


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))


def energy(logits: np.ndarray) -> np.ndarray | float:
    """Max-shifted negative logsumexp along the last axis.

    energy([0]*K) = -ln K; adding a constant c to every logit subtracts c.
    """
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max(axis=-1, keepdims=True)
    out = -(np.squeeze(m, axis=-1) + np.log(np.exp(logits - m).sum(axis=-1)))
    if out.ndim == 0:
        return float(out)
    return out


def _cross_entropy(logits: np.ndarray, ids: np.ndarray,
                   targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of the rows ``ids`` against the classes ``targets``."""
    if np.any(targets < 0) or np.any(targets >= logits.shape[1]):
        raise ValueError("training label outside [0, K)")
    sub = logits[ids]
    rows = np.arange(ids.size)
    loss = float(-log_softmax(sub)[rows, targets].mean())
    delta = softmax(sub)
    delta[rows, targets] -= 1.0
    grad = np.zeros_like(logits)
    grad[ids] = delta / ids.size
    return loss, grad


def supervised_loss(logits: np.ndarray, labels: np.ndarray,
                    train_ids: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the labeled training nodes."""
    train_ids = np.asarray(train_ids)
    if train_ids.size == 0:
        raise ValueError("empty training set")
    return _cross_entropy(logits, train_ids, np.asarray(labels)[train_ids])


def exposure_loss(logits: np.ndarray, id_ids: np.ndarray, ood_ids: np.ndarray,
                  margin_id: float = DEFAULT_MARGIN_ID,
                  margin_ood: float = DEFAULT_MARGIN_OOD) -> tuple[float, np.ndarray]:
    """Squared-hinge margin penalty on per-node energies.

    Labeled nodes pay for energy above ``margin_id``; pseudo-OOD nodes pay
    for energy below ``margin_ood``. Each term is averaged over its own set.
    """
    id_ids = np.asarray(id_ids)
    ood_ids = np.asarray(ood_ids)
    if id_ids.size == 0:
        raise ValueError("empty ID set")
    if ood_ids.size == 0:
        raise ValueError("exposure requested but no pseudo-OOD available")
    if np.intersect1d(id_ids, ood_ids).size:
        raise ValueError("ID and pseudo-OOD sets overlap")
    if not margin_ood > margin_id:
        raise ValueError("margin_ood must exceed margin_id")

    grad = np.zeros_like(logits)

    e_id = np.atleast_1d(energy(logits[id_ids]))
    over = np.maximum(e_id - margin_id, 0.0)
    # d(energy)/dz = -softmax(z)
    coeff_id = 2.0 * over / id_ids.size
    grad[id_ids] -= coeff_id[:, None] * softmax(logits[id_ids])

    e_ood = np.atleast_1d(energy(logits[ood_ids]))
    short = np.maximum(margin_ood - e_ood, 0.0)
    coeff_ood = 2.0 * short / ood_ids.size
    grad[ood_ids] += coeff_ood[:, None] * softmax(logits[ood_ids])

    loss = float(np.mean(over ** 2) + np.mean(short ** 2))
    return loss, grad


def combined_loss(logits: np.ndarray, labels: np.ndarray, train_ids: np.ndarray,
                  ood_ids: np.ndarray, exposure_weight: float,
                  margin_id: float = DEFAULT_MARGIN_ID,
                  margin_ood: float = DEFAULT_MARGIN_OOD) -> tuple[float, np.ndarray]:
    """Cross-entropy plus weighted exposure penalty; gradients add."""
    if exposure_weight < 0:
        raise ValueError("exposure_weight must be non-negative")
    sup, sup_grad = supervised_loss(logits, labels, train_ids)
    expo, expo_grad = exposure_loss(logits, train_ids, ood_ids, margin_id, margin_ood)
    return sup + exposure_weight * expo, sup_grad + exposure_weight * expo_grad


def kplus1_loss(logits: np.ndarray, labels: np.ndarray, train_ids: np.ndarray,
                pseudo_ood_ids: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy over labeled nodes and pseudo-OOD nodes jointly.

    Logits carry K+1 columns; pseudo-OOD nodes target the extra class K.
    """
    train_ids = np.asarray(train_ids)
    pseudo_ood_ids = np.asarray(pseudo_ood_ids)
    if pseudo_ood_ids.size == 0:
        raise ValueError("exposure requested but no pseudo-OOD available")
    ids = np.concatenate([train_ids, pseudo_ood_ids])
    targets = np.concatenate([
        np.asarray(labels)[train_ids],
        np.full(pseudo_ood_ids.size, logits.shape[1] - 1, dtype=np.int64),
    ])
    return _cross_entropy(logits, ids, targets)


def binary_head_loss(head_logits: np.ndarray, id_ids: np.ndarray,
                     ood_ids: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy on sigmoid(head_logit), target 1 for OOD."""
    id_ids = np.asarray(id_ids)
    ood_ids = np.asarray(ood_ids)
    if id_ids.size == 0 or ood_ids.size == 0:
        raise ValueError("empty node set for binary head")
    ids = np.concatenate([id_ids, ood_ids])
    targets = np.concatenate([
        np.zeros(id_ids.size), np.ones(ood_ids.size),
    ])
    z = np.asarray(head_logits, dtype=np.float64)[ids]
    # Stable BCE-with-logits: max(z,0) - z*t + log(1 + exp(-|z|))
    per_node = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    loss = float(per_node.mean())
    grad = np.zeros_like(np.asarray(head_logits, dtype=np.float64))
    grad[ids] = (sigmoid(z) - targets) / ids.size
    return loss, grad


def objective_loss(logits: np.ndarray, labels: np.ndarray, train_ids: np.ndarray,
                   kind: str, pseudo_ood_ids: np.ndarray | None, exposure_weight: float,
                   margin_id: float, margin_ood: float) -> tuple[float, np.ndarray]:
    """Dispatch to the loss named by ``kind``; only ``EXPOSURE`` reads the
    weight and the margins, and ``SUPERVISED`` reads no pseudo-OOD ids."""
    if kind == SUPERVISED:
        return supervised_loss(logits, labels, train_ids)
    if kind == EXPOSURE:
        return combined_loss(logits, labels, train_ids, pseudo_ood_ids, exposure_weight,
                             margin_id, margin_ood)
    if kind == KPLUS1:
        return kplus1_loss(logits, labels, train_ids, pseudo_ood_ids)
    raise ValueError(f"unknown objective kind {kind!r}")
