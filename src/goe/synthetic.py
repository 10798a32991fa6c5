"""Seeded synthetic text-attributed graphs for desk-scale benchmarking.

The planted graph has three Gaussian communities in embedding space: two
in-distribution topics on opposite sides of the first axis and one
out-of-distribution topic placed off-axis but leaning toward the first ID
community, so a classifier trained on ID labels alone is overconfident on
OOD nodes. Node texts mention their community's category name, which lets
the deterministic mock chat model act as a well-informed annotator. The
edges are a contract: seed for seed, they equal what a per-node loop of
`rng.choice(same_class, size=intra_degree, replace=False)`, `rng.random()` and,
below `cross_edge_fraction`, `rng.choice(other_classes)` draws. `_planted_pairs`
replays that stream in blocks of nodes, within Floyd's domain (checked).
"""

from __future__ import annotations

import numpy as np

from .graph import DatasetManifest, InputError, TextAttributedGraph, canonicalize_edges
from .llm import hash_unit_vector

PLANTED_CATEGORIES = ("Alpha Dynamics", "Beta Kinetics", "Gamma Morphology")
PLANTED_OBJECT_KIND = "report"
ID_SEPARATION = 2.2      # the ID class means, ± on the first axis
OOD_SHIFT = (2.0, 0.9)   # the OOD class mean on the first two axes
_BLOCK_NODES = 4096  # nodes replayed from one batch of generator words


def _planted_pairs(rng: np.random.Generator, pop: int, degree: int,
                   cross_fraction: float) -> np.ndarray:
    """The module docstring's loop for three classes of `pop` nodes, as (node, partner) rows.

    Node i draws 32 bits on [0, j] per Floyd step j = pop-degree .. pop-1 (none
    when j = 0) and on [0, k] per shuffle swap k = degree-1 .. 1, a double, and,
    if that is below `cross_fraction`, 32 bits on [0, 2*pop - 1]. 32 bits are the
    low half of a fresh word or the high half the last one left held; a double
    takes a fresh word. At a rejected Lemire draw numpy redraws that node.
    """
    def lemire(u, top):  # numpy's bounded draw on [0, top] from 32 bits: (values, rejected)
        m = u.astype(np.uint64) * (top + 1)
        return (m >> 32).astype(np.int64), (m & 0xFFFFFFFF) < (0xFFFFFFFF - top) % (top + 1)

    bitgen = rng.bit_generator
    floyd = np.arange(pop - degree, pop)
    tops = np.concatenate([floyd[floyd > 0], np.arange(degree - 1, 0, -1)]).astype(np.uint64)
    draws = len(tops)
    out, start, n = [], 0, 3 * pop
    while start < n:
        state, count = bitgen.state, min(_BLOCK_NODES, n - start)
        # word 0 holds the generator's buffered half, if any, as its high half
        words = np.concatenate([[np.uint64(state["uinteger"]) << np.uint64(32)],
                                bitgen.random_raw(count * ((draws + 1) // 2 + 2))])
        halves = words.astype("<u8", copy=False).view("<u4")
        crossing = ((words >> np.uint64(11)) * 2.0 ** -53 < cross_fraction).tolist()
        pos, held = 1, (1 if state["has_uint32"] else -1)  # next fresh word, buffered half
        marks, crossings = [], []
        for i in range(count):
            marks.append((pos, held))
            if draws:  # `fresh` halves come from fresh words; an odd count leaves one held
                fresh = draws - (held >= 0)
                pos += (fresh + 1) // 2
                held = 2 * pos - 1 if fresh % 2 else -1
            pos += 1
            if crossing[pos - 1]:
                crossings.append((i, held if held >= 0 else 2 * pos))
                pos, held = (pos, -1) if held >= 0 else (pos + 1, 2 * pos + 1)
        starts, helds = np.array(marks + [(pos, held)]).T
        buf = helds >= 0
        at = 2 * starts[:-1, None] - buf[:-1, None] + np.arange(draws)
        at = np.where((np.arange(draws) == 0) & buf[:-1, None], helds[:-1, None], at)
        values, bad = lemire(halves[at], tops)
        crossers, cross_at = np.array(crossings, dtype=np.int64).reshape(-1, 2).T
        targets, bad_cross = lemire(halves[cross_at], np.uint64(2 * pop - 1))
        cut = int(min([*np.flatnonzero(bad.any(axis=1)), *crossers[bad_cross]], default=count))
        picks = values[:cut, :degree] if pop > degree else np.tile(np.arange(pop), (cut, 1))
        for t in range(1, degree):  # Floyd: a value already picked becomes j
            picks[(picks[:, :t] == picks[:, t:t + 1]).any(axis=1), t] = pop - degree + t
        nodes = start + np.arange(cut)
        partners = picks + (nodes - nodes % pop)[:, None]
        mine = partners != nodes[:, None]
        crossers, targets = crossers[crossers < cut] + start, targets[crossers < cut]
        out += [np.column_stack([np.repeat(nodes, mine.sum(axis=1)), partners[mine]]),
                np.column_stack([crossers, targets + pop * (targets >= crossers - crossers % pop)])]
        # leave the generator where node start + cut begins
        bitgen.state = state
        bitgen.state = {**bitgen.advance(int(starts[cut]) - 1).state, "has_uint32": int(buf[cut]),
                        "uinteger": int(halves[helds[cut]]) if buf[cut] else 0}
        start += cut
        if cut < count:  # a rejected draw: numpy draws this node itself
            base = start - start % pop
            partners = [j for j in rng.choice(pop, degree, replace=False) + base if j != start]
            if rng.random() < cross_fraction:
                partners.append(rng.choice(np.r_[:base, base + pop:n]))
            out.append(np.array([(start, j) for j in partners], dtype=np.int64).reshape(-1, 2))
            start += 1
    return np.concatenate(out)


def make_planted_tag(
    *,
    seed: int = 0,
    nodes_per_class: int = 200,
    dim: int = 16,
    intra_degree: int = 4,
    cross_edge_fraction: float = 0.03,
) -> tuple[TextAttributedGraph, DatasetManifest]:
    """Three-community planted graph with class-mean Gaussian embeddings.

    Classes 0 and 1 are the intended ID classes; class 2 is OOD. Edges are
    mostly intra-community (homophilous), with a small fraction of random
    cross-community links, equal to the per-node `Generator.choice` loop's
    (module docstring) within Floyd's domain; the checks below raise InputError.
    """
    for ok, rule in (
            (intra_degree >= 0, "intra_degree >= 0"), (dim >= 2, "dim >= 2"),
            (nodes_per_class >= max(1, intra_degree), "nodes_per_class >= max(1, intra_degree)"),
            (0 <= cross_edge_fraction <= 1, "0 <= cross_edge_fraction <= 1"),
            (nodes_per_class <= 10_000 or intra_degree <= nodes_per_class // 50,
             "intra_degree <= nodes_per_class // 50 when nodes_per_class > 10000")):
        if not ok:
            raise InputError(f"planted graph needs {rule}; got nodes_per_class={nodes_per_class}, "
                             f"intra_degree={intra_degree}, dim={dim}, cross={cross_edge_fraction}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(900,)))
    n_classes = len(PLANTED_CATEGORIES)
    n = nodes_per_class * n_classes

    means = np.zeros((n_classes, dim))
    means[:2, 0] = ID_SEPARATION, -ID_SEPARATION
    means[2, :2] = OOD_SHIFT

    labels = np.repeat(np.arange(n_classes), nodes_per_class).astype(np.int64)
    embeddings = (means[labels] + rng.standard_normal((n, dim))).astype(np.float32)

    heads = [f"{name} {PLANTED_OBJECT_KIND} " for name in PLANTED_CATEGORIES]
    tails = [f": synthetic field notes on {name.lower()} observed in trial "
             for name in PLANTED_CATEGORIES]
    texts = [f"{heads[c]}{i}{tails[c]}{i % 17}." for i, c in enumerate(labels.tolist())]
    edges = canonicalize_edges(
        _planted_pairs(rng, nodes_per_class, intra_degree, cross_edge_fraction), n)

    graph = TextAttributedGraph(
        node_count=n, edges=edges, texts=texts,
        embeddings=embeddings, labels=labels,
    )
    graph.validate()
    manifest = DatasetManifest(
        name=f"planted-{seed}",
        object_kind=PLANTED_OBJECT_KIND,
        category_names=list(PLANTED_CATEGORIES),
        embedding_dim=dim,
        node_count=n,
    )
    return graph, manifest


CENTROID_JITTER = 0.3


class CentroidEmbeddingProvider:
    """Embeds a text near the centroid of the category it mentions.

    Stands in for a semantic sentence encoder at desk scale: any text that
    names a known category lands at that category's embedding centroid plus a
    small deterministic jitter derived from the text hash. Texts naming no
    category get a pure hash vector scaled to the data's typical norm.
    """

    def __init__(self, graph: TextAttributedGraph, manifest: DatasetManifest):
        self._dim = graph.embedding_dim
        self._names = list(manifest.category_names)
        emb = graph.embeddings.astype(np.float64)
        self._centroids = {}
        for idx, name in enumerate(self._names):
            members = graph.labels == idx
            if members.any():
                self._centroids[name.lower()] = emb[members].mean(axis=0)
        self._typical_norm = float(np.linalg.norm(emb, axis=1).mean())

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
                out[i] = centroid + CENTROID_JITTER * direction
            else:
                out[i] = self._typical_norm * direction
        return out
