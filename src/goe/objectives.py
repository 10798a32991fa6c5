"""Training objectives over classifier logits.

Every loss returns ``(value, gradient)`` where the gradient matches the logit
matrix shape, with zero rows for nodes the loss does not touch. The OOD score
convention throughout is ``energy(z) = -logsumexp(z)``: larger means more
likely OOD, so confident in-distribution predictions sit at very negative
energies.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def supervised_loss(logits: np.ndarray, labels: np.ndarray,
                    train_ids: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the labeled training nodes."""
    train_ids = np.asarray(train_ids)
    if train_ids.size == 0:
        raise ValueError("empty training set")
    k = logits.shape[1]
    y = np.asarray(labels)[train_ids]
    if np.any(y < 0) or np.any(y >= k):
        raise ValueError("training label outside [0, K)")
    sub = logits[train_ids]
    ls = log_softmax(sub)
    loss = float(-ls[np.arange(train_ids.size), y].mean())
    grad = np.zeros_like(logits)
    delta = softmax(sub)
    delta[np.arange(train_ids.size), y] -= 1.0
    grad[train_ids] = delta / train_ids.size
    return loss, grad


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
    if train_ids.size + pseudo_ood_ids.size == 0:
        raise ValueError("empty training set")
    k = logits.shape[1] - 1
    ids = np.concatenate([train_ids, pseudo_ood_ids])
    targets = np.concatenate([
        np.asarray(labels)[train_ids],
        np.full(pseudo_ood_ids.size, k, dtype=np.int64),
    ])
    if np.any(targets < 0) or np.any(targets > k):
        raise ValueError("training label outside [0, K)")
    sub = logits[ids]
    ls = log_softmax(sub)
    loss = float(-ls[np.arange(ids.size), targets].mean())
    grad = np.zeros_like(logits)
    delta = softmax(sub)
    delta[np.arange(ids.size), targets] -= 1.0
    grad[ids] = delta / ids.size
    return loss, grad


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


@dataclass
class ObjectiveSpec:
    """Which loss drives training, plus the pieces it needs.

    ``val_scorer`` names the post-hoc scorer used for validation AUROC during
    early stopping (one of the tags understood by ``scoring.score_nodes``).
    """

    kind: str = SUPERVISED
    exposure_weight: float = 0.05
    margin_id: float = DEFAULT_MARGIN_ID
    margin_ood: float = DEFAULT_MARGIN_OOD
    pseudo_ood_ids: np.ndarray | None = None
    val_scorer: str = "energy"

    def validate(self) -> None:
        if self.kind not in (SUPERVISED, EXPOSURE, KPLUS1):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind in (EXPOSURE, KPLUS1):
            if self.pseudo_ood_ids is None or len(self.pseudo_ood_ids) == 0:
                raise ValueError("exposure requested but no pseudo-OOD available")
        if self.exposure_weight < 0:
            raise ValueError("exposure_weight must be non-negative")


def objective_loss(logits: np.ndarray, labels: np.ndarray, train_ids: np.ndarray,
                   spec: ObjectiveSpec) -> tuple[float, np.ndarray]:
    """Dispatch to the loss named by ``spec.kind``."""
    if spec.kind == SUPERVISED:
        return supervised_loss(logits, labels, train_ids)
    if spec.kind == EXPOSURE:
        return combined_loss(
            logits, labels, train_ids, spec.pseudo_ood_ids,
            spec.exposure_weight, spec.margin_id, spec.margin_ood,
        )
    if spec.kind == KPLUS1:
        return kplus1_loss(logits, labels, train_ids, spec.pseudo_ood_ids)
    raise ValueError(f"unknown objective kind {spec.kind!r}")
