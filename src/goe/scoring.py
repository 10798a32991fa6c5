"""Post-hoc per-node OOD scorers.

Every scorer emits one real number per node under a single orientation:
larger score means more likely OOD. Baselines whose natural direction is the
opposite (max softmax probability) are flipped here so downstream metrics
never branch on method.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .objectives import energy, log_softmax, sigmoid, softmax


def msp_score(logits: np.ndarray) -> np.ndarray:
    """1 minus the maximum softmax probability; range [0, 1 - 1/K]."""
    if logits.shape[1] < 2:
        raise ValueError("msp needs at least 2 classes")
    return 1.0 - softmax(logits).max(axis=1)


def entropy_score(logits: np.ndarray) -> np.ndarray:
    """Shannon entropy of the softmax distribution, in nats; range [0, ln K]."""
    if logits.shape[1] < 2:
        raise ValueError("entropy needs at least 2 classes")
    p = softmax(logits)
    return -(p * log_softmax(logits)).sum(axis=1)


def energy_score(logits: np.ndarray) -> np.ndarray:
    """Per-node negative logsumexp of the logits."""
    return np.atleast_1d(energy(logits))


def kplus1_score(logits: np.ndarray) -> np.ndarray:
    """Softmax probability of the final (OOD) column of a K+1 model."""
    return softmax(logits)[:, -1]


def binary_head_score(hidden: np.ndarray, head_weights: np.ndarray) -> np.ndarray:
    """sigmoid(w . phi(x)) on the frozen classifier's hidden features."""
    hidden = np.asarray(hidden, dtype=np.float64)
    head_weights = np.asarray(head_weights, dtype=np.float64)
    if hidden.shape[1] != head_weights.shape[0]:
        raise ValueError("hidden feature dimension does not match head weights")
    return sigmoid(hidden @ head_weights)


def propagate_scores(scores: np.ndarray, row_stochastic: sp.spmatrix,
                     alpha: float = 0.5, iterations: int = 2) -> np.ndarray:
    """Smooth scores over the graph: s <- alpha*s + (1-alpha)*P*s.

    P must be row-stochastic with self-loops, so each update keeps every
    score inside the convex hull of its neighborhood. iterations = 0 returns
    the input unchanged.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    s = np.asarray(scores, dtype=np.float64).copy()
    for _ in range(iterations):
        s = alpha * s + (1.0 - alpha) * (row_stochastic @ s)
    return s


def score_nodes(
    logits: np.ndarray,
    method: str,
    *,
    hidden: np.ndarray | None = None,
    head_weights: np.ndarray | None = None,
    row_stochastic: sp.spmatrix | None = None,
    alpha: float = 0.5,
    iterations: int = 2,
) -> np.ndarray:
    """Score every node with the named scorer: msp, entropy, energy, energy_prop,
    kplus1 or binary_head."""
    if method == "msp":
        return msp_score(logits)
    if method == "entropy":
        return entropy_score(logits)
    if method == "energy":
        return energy_score(logits)
    if method == "energy_prop":
        if row_stochastic is None:
            raise ValueError("energy_prop needs a row-stochastic adjacency")
        return propagate_scores(energy_score(logits), row_stochastic, alpha, iterations)
    if method == "kplus1":
        return kplus1_score(logits)
    if method == "binary_head":
        if hidden is None or head_weights is None:
            raise ValueError("binary_head needs hidden features and head weights")
        return binary_head_score(hidden, head_weights)
    raise ValueError(f"unknown scoring method {method!r}")
