"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from goe.graph import TextAttributedGraph, canonicalize_edges, normalize_adjacency
from goe.synthetic import make_planted_tag


@pytest.fixture(scope="session")
def planted():
    """The default planted three-community graph (600 nodes, dim 16)."""
    return make_planted_tag(seed=0)


def build_random_graph(seed: int, n: int = 20, dim: int = 6,
                       edge_prob: float = 0.2, num_classes: int = 2):
    """Small random graph for gradient checks: features, adjacency, labels."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_prob]
    if not pairs:
        pairs = [(0, 1)]
    graph = TextAttributedGraph(
        node_count=n,
        edges=canonicalize_edges(np.array(pairs, dtype=np.int64), n),
        texts=[f"node {i}" for i in range(n)],
        embeddings=rng.standard_normal((n, dim)).astype(np.float32),
        labels=rng.integers(0, num_classes, size=n).astype(np.int64),
    )
    features = graph.embeddings.astype(np.float64)
    return graph, features, normalize_adjacency(graph), graph.labels


# ---------------------------------------------------------------------------
# Independent metric oracles (brute force; never share code with goe.metrics)
# ---------------------------------------------------------------------------

def pairwise_auroc_oracle(id_scores, ood_scores) -> float:
    """O(n^2) pairwise count: wins + half credit for ties."""
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    wins = (ood_scores[:, None] > id_scores[None, :]).sum()
    ties = (ood_scores[:, None] == id_scores[None, :]).sum()
    return (wins + 0.5 * ties) / (id_scores.size * ood_scores.size)


def brute_force_aupr_oracle(id_scores, ood_scores) -> float:
    """Recount TP/FP at every distinct threshold, descending."""
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    thresholds = np.unique(np.concatenate([id_scores, ood_scores]))[::-1]
    area = 0.0
    recall_prev = 0.0
    for tau in thresholds:
        tp = int((ood_scores >= tau).sum())
        fp = int((id_scores >= tau).sum())
        precision = tp / (tp + fp)
        recall = tp / ood_scores.size
        area += (recall - recall_prev) * precision
        recall_prev = recall
    return area


def brute_force_fpr_at_95_oracle(id_scores, ood_scores) -> float:
    """Walk the distinct OOD scores downward; at the first that detects at
    least 95% of OOD (integer test), return the share of ID scores at or above it."""
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    for tau in np.unique(ood_scores)[::-1]:
        if 20 * int((ood_scores >= tau).sum()) >= 19 * ood_scores.size:
            return float((id_scores >= tau).sum() / id_scores.size)
    raise AssertionError("unreachable: the lowest OOD score detects every OOD node")


def random_score_sets(seed: int, count: int = 200):
    """Randomized ID/OOD score pairs of sizes 1..100 with ties injected."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        n_id = int(rng.integers(1, 101))
        n_ood = int(rng.integers(1, 101))
        if rng.random() < 0.5:
            # quantized scores force ties, including across the two groups
            id_s = rng.integers(0, 12, size=n_id) / 3.0
            ood_s = rng.integers(0, 12, size=n_ood) / 3.0
        else:
            id_s = rng.normal(size=n_id)
            ood_s = rng.normal(loc=0.5, size=n_ood)
        sets.append((id_s.astype(np.float64), ood_s.astype(np.float64)))
    return sets


# ---------------------------------------------------------------------------
# Independent planted-graph oracle (the original per-node loop; shares no code with goe)
# ---------------------------------------------------------------------------

def reference_planted_pairs(seed: int, nodes_per_class: int, intra_degree: int = 4,
                            cross_edge_fraction: float = 0.03, dim: int = 16) -> list:
    """The planted graph's (node, partner) pairs as the per-node loop drew them:
    the same generator, the embedding draw first, then one `choice` per node
    for its class partners, one `random`, and one `choice` for a cross edge."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(900,)))
    n = 3 * nodes_per_class
    rng.standard_normal((n, dim))
    labels = np.repeat(np.arange(3), nodes_per_class)
    same = [np.flatnonzero(labels == c) for c in range(3)]
    other = [np.flatnonzero(labels != c) for c in range(3)]
    pairs = []
    for i in range(n):
        cls = labels[i]
        partners = rng.choice(same[cls], size=intra_degree, replace=False)
        for j in partners:
            if i != j:
                pairs.append((i, int(j)))
        if rng.random() < cross_edge_fraction:
            pairs.append((i, int(rng.choice(other[cls]))))
    return pairs
