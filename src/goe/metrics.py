"""Detection and classification metrics.

All score-based metrics assume the repo-wide orientation: larger score means
more likely OOD, and OOD is the positive class.
"""

from __future__ import annotations

import numpy as np


def id_accuracy(logits: np.ndarray, labels: np.ndarray, node_ids: np.ndarray,
                *, id_class_count: int | None = None) -> float:
    """Fraction of ``node_ids`` whose argmax class matches the label.

    For models with an extra OOD column, ``id_class_count`` restricts the
    argmax to the first K columns. np.argmax resolves ties toward the lowest
    class index.
    """
    node_ids = np.asarray(node_ids)
    if node_ids.size == 0:
        raise ValueError("empty node set")
    cols = logits if id_class_count is None else logits[:, :id_class_count]
    preds = np.argmax(cols[node_ids], axis=1)
    return float(np.mean(preds == np.asarray(labels)[node_ids]))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their group's mean rank.

    The same result as ``scipy.stats.rankdata(values, method="average")``,
    without importing ``scipy.stats`` (about 1 s and 50 MB of RSS).
    """
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def auroc(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """Probability that a random OOD score outranks a random ID score.

    Rank-based Mann-Whitney statistic; ties receive half credit. Equals the
    exhaustive pairwise count.
    """
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise ValueError("empty score set")
    ranks = _average_ranks(np.concatenate([id_scores, ood_scores]))
    n_ood = ood_scores.size
    rank_sum = ranks[id_scores.size:].sum()
    u = rank_sum - n_ood * (n_ood + 1) / 2.0
    return float(u / (id_scores.size * n_ood))


def aupr(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """Area under the precision-recall curve with OOD as the positive class.

    Step-wise (non-interpolated) integration over every distinct threshold,
    descending, with tied scores grouped.
    """
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise ValueError("empty score set")
    scores = np.concatenate([id_scores, ood_scores])
    is_pos = np.concatenate([
        np.zeros(id_scores.size, dtype=bool), np.ones(ood_scores.size, dtype=bool),
    ])
    order = np.argsort(-scores, kind="mergesort")
    scores, is_pos = scores[order], is_pos[order]

    tp = np.cumsum(is_pos)
    fp = np.cumsum(~is_pos)
    # Last position within each tie group carries that threshold's counts.
    group_end = np.flatnonzero(np.append(scores[1:] != scores[:-1], True))
    tp, fp = tp[group_end], fp[group_end]
    precision = tp / (tp + fp)
    recall = tp / ood_scores.size
    recall_prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - recall_prev) * precision))


def fpr_at_95_tpr(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """ID false-positive rate at the loosest threshold detecting 95% of OOD.

    The threshold is the largest value tau such that at least 95% of OOD
    scores are >= tau, i.e. the ceil(0.95*n)-th largest OOD score (integer
    arithmetic, immune to float rounding of 0.95*n).
    """
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise ValueError("empty score set")
    n = ood_scores.size
    m = (19 * n + 19) // 20
    tau = np.sort(ood_scores)[n - m]
    return float(np.mean(id_scores >= tau))


def score_histogram(scores: np.ndarray, is_ood: np.ndarray,
                    bins: int = 50) -> list[dict]:
    """Fixed-width histogram of scores over the pooled range, split by group.

    Returns one row per bin: {bin_lo, bin_hi, count_id, count_ood}. A
    degenerate range (all scores equal) collapses into the first bin.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_ood = np.asarray(is_ood, dtype=bool)
    if scores.size == 0:
        raise ValueError("empty score set")
    if bins <= 0:
        raise ValueError("bin count must be positive")
    lo, hi = float(scores.min()), float(scores.max())
    if lo == hi:
        rows = [{"bin_lo": lo, "bin_hi": hi, "count_id": 0, "count_ood": 0}
                for _ in range(bins)]
        rows[0]["count_id"] = int(np.sum(~is_ood))
        rows[0]["count_ood"] = int(np.sum(is_ood))
        return rows
    edges = np.linspace(lo, hi, bins + 1)
    count_id, _ = np.histogram(scores[~is_ood], bins=edges)
    count_ood, _ = np.histogram(scores[is_ood], bins=edges)
    return [
        {
            "bin_lo": float(edges[b]),
            "bin_hi": float(edges[b + 1]),
            "count_id": int(count_id[b]),
            "count_ood": int(count_ood[b]),
        }
        for b in range(bins)
    ]
