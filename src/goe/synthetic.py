"""Seeded synthetic text-attributed graphs for desk-scale benchmarking.

The planted graph has three Gaussian communities in embedding space: two
in-distribution topics on opposite sides of the first axis and one
out-of-distribution topic placed off-axis but leaning toward the first ID
community, so a classifier trained on ID labels alone is overconfident on
OOD nodes. Node texts mention their community's category name, which lets
the deterministic mock chat model act as a well-informed annotator.
"""

from __future__ import annotations

import numpy as np

from .graph import DatasetManifest, TextAttributedGraph, canonicalize_edges
from .llm import hash_unit_vector

PLANTED_CATEGORIES = ("Alpha Dynamics", "Beta Kinetics", "Gamma Morphology")
PLANTED_ID_CLASSES = [0, 1]


def make_planted_tag(
    *,
    seed: int = 0,
    nodes_per_class: int = 200,
    dim: int = 16,
    id_separation: float = 2.2,
    ood_shift: tuple[float, float] = (2.0, 0.9),
    noise: float = 1.0,
    intra_degree: int = 4,
    cross_edge_fraction: float = 0.03,
    object_kind: str = "report",
) -> tuple[TextAttributedGraph, DatasetManifest]:
    """Three-community planted graph with class-mean Gaussian embeddings.

    Classes 0 and 1 are the intended ID classes; class 2 is OOD. Edges are
    mostly intra-community (homophilous), with a small fraction of random
    cross-community links.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(900,)))
    n_classes = len(PLANTED_CATEGORIES)
    n = nodes_per_class * n_classes

    means = np.zeros((n_classes, dim))
    means[0, 0] = +id_separation
    means[1, 0] = -id_separation
    means[2, 0] = ood_shift[0]
    means[2, 1] = ood_shift[1]

    labels = np.repeat(np.arange(n_classes), nodes_per_class).astype(np.int64)
    embeddings = (means[labels] + noise * rng.standard_normal((n, dim))).astype(np.float32)

    texts = [
        f"{PLANTED_CATEGORIES[labels[i]]} {object_kind} {i}: synthetic field notes "
        f"on {PLANTED_CATEGORIES[labels[i]].lower()} observed in trial {i % 17}."
        for i in range(n)
    ]

    same = [np.flatnonzero(labels == c) for c in range(n_classes)]
    other = [np.flatnonzero(labels != c) for c in range(n_classes)]
    pairs = []
    for i in range(n):
        cls = labels[i]
        partners = rng.choice(same[cls], size=intra_degree, replace=False)
        for j in partners:
            if i != j:
                pairs.append((i, int(j)))
        if rng.random() < cross_edge_fraction:
            pairs.append((i, int(rng.choice(other[cls]))))
    edges = canonicalize_edges(np.array(pairs, dtype=np.int64), n)

    graph = TextAttributedGraph(
        node_count=n, edges=edges, texts=texts,
        embeddings=embeddings, labels=labels,
    )
    graph.validate()
    manifest = DatasetManifest(
        name=f"planted-{seed}",
        object_kind=object_kind,
        category_names=list(PLANTED_CATEGORIES),
        embedding_dim=dim,
        node_count=n,
    )
    return graph, manifest


class CentroidEmbeddingProvider:
    """Embeds a text near the centroid of the category it mentions.

    Stands in for a semantic sentence encoder at desk scale: any text that
    names a known category lands at that category's embedding centroid plus a
    small deterministic jitter derived from the text hash. Texts naming no
    category get a pure hash vector scaled to the data's typical norm.
    """

    def __init__(self, graph: TextAttributedGraph, manifest: DatasetManifest,
                 jitter: float = 0.3):
        self._dim = graph.embedding_dim
        self.jitter = jitter
        self._names = list(manifest.category_names)
        emb = graph.embeddings.astype(np.float64)
        self._centroids = {}
        for idx, name in enumerate(self._names):
            members = graph.labels == idx
            if members.any():
                self._centroids[name.lower()] = emb[members].mean(axis=0)
        self._typical_norm = float(np.linalg.norm(emb, axis=1).mean())

    @property
    def dim(self) -> int:
        return self._dim

    def embed(self, texts: list[str]) -> np.ndarray:
        out = np.zeros((len(texts), self._dim), dtype=np.float64)
        for i, text in enumerate(texts):
            lower = text.lower()
            centroid = None
            for name, center in self._centroids.items():
                if name in lower:
                    centroid = center
                    break
            direction = hash_unit_vector(text, self._dim)
            if centroid is not None:
                out[i] = centroid + self.jitter * direction
            else:
                out[i] = self._typical_norm * direction
        return out
