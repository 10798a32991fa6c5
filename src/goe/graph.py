"""Text-attributed graph data model, on-disk dataset format, and node splits.

A dataset directory holds four files:

    manifest.json    {name, object_kind, category_names[], embedding_dim, node_count}
    nodes.jsonl      one object per line: {"id": int, "text": str, "label": int}
    edges.tsv        one edge per line: two base-10 integers (ASCII digits with an
                     optional sign) separated by whitespace; blank lines are
                     skipped and ``#`` is not a comment
    embeddings.bin   8-byte header (u32 rows, u32 cols, little-endian) followed by
                     rows*cols IEEE-754 float32 values, row-major

A malformed line of nodes.jsonl or edges.tsv is reported as an ``InputError``
naming the file and the line's 1-based number.

Node splits travel as split.json with the node-id sets for training,
validation and test.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

LABEL_UNAVAILABLE = -1

# Independent seed streams so resizing one split set never perturbs the others.
_STREAM_TRAIN = 0
_STREAM_VAL_ID = 1
_STREAM_VAL_OOD = 2
_STREAM_TEST_ID = 3
_STREAM_TEST_OOD = 4
STREAM_ANNOTATION_POOL = 5
STREAM_HEAD_BALANCE = 6
STREAM_PSEUDO_VAL = 7


class InputError(ValueError):
    """A fault in what the user gave (a file, a flag or a config value); the CLI
    prints it as one ``Error:`` line, while any other exception keeps its traceback."""


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Named RNG stream derived from a base seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


@dataclass
class TextAttributedGraph:
    """Undirected graph whose nodes carry free text and an embedding row.

    Edges are canonical (i < j) and deduplicated. Labels use
    ``LABEL_UNAVAILABLE`` (-1) when a node has no known class.
    """

    node_count: int
    edges: np.ndarray        # (E, 2) int64, canonical i < j
    texts: list[str]
    embeddings: np.ndarray   # (n, d) float32
    labels: np.ndarray       # (n,) int64

    @property
    def embedding_dim(self) -> int:
        return int(self.embeddings.shape[1])

    def validate(self) -> None:
        n = self.node_count
        if len(self.texts) != n:
            raise InputError(f"row-count mismatch: {len(self.texts)} texts for {n} nodes")
        if self.embeddings.shape[0] != n:
            raise InputError(
                f"row-count mismatch: {self.embeddings.shape[0]} embedding rows for {n} nodes"
            )
        if self.labels.shape[0] != n:
            raise InputError(f"row-count mismatch: {self.labels.shape[0]} labels for {n} nodes")
        if not np.all(np.isfinite(self.embeddings)):
            raise InputError("non-finite embedding entry")
        if self.edges.size:
            if self.edges.min() < 0 or self.edges.max() >= n:
                raise InputError("edge index out of range")
            if np.any(self.edges[:, 0] == self.edges[:, 1]):
                raise InputError("self-loop in edge list")
            if np.any(self.edges[:, 0] > self.edges[:, 1]):
                raise InputError("edge list not canonical (expected i < j)")
            key = self.edges[:, 0].astype(np.int64) * n + self.edges[:, 1]
            # Sorted edge lists (every list this module builds) skip the sort.
            if np.any(key[1:] <= key[:-1]) and np.any(np.diff(np.sort(key)) == 0):
                raise InputError("duplicate undirected edge")


@dataclass
class DatasetManifest:
    name: str
    object_kind: str
    category_names: list[str]
    embedding_dim: int
    node_count: int

    def validate(self) -> None:
        if self.embedding_dim <= 0:
            raise InputError("embedding_dim must be positive")
        if not self.category_names:
            raise InputError("category_names must be non-empty")


@dataclass
class ClassSplit:
    """Partition of original label values into ID classes and OOD classes."""

    id_classes: list[int]
    ood_classes: list[int]
    compact_index: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        self.compact_index = {c: i for i, c in enumerate(self.id_classes)}

    @property
    def num_id_classes(self) -> int:
        return len(self.id_classes)

    def compact_labels(self, labels: np.ndarray) -> np.ndarray:
        """Map original labels to [0, K) for ID classes, -1 for everything else."""
        out = np.full(labels.shape, -1, dtype=np.int64)
        for original, idx in self.compact_index.items():
            out[labels == original] = idx
        return out


@dataclass
class DataSplit:
    """Disjoint labeled/validation/test node-id sets (stored sorted)."""

    train_id: np.ndarray
    val_id: np.ndarray
    val_ood: np.ndarray
    test_id: np.ndarray
    test_ood: np.ndarray
    seed: int

    def all_sets(self) -> dict[str, np.ndarray]:
        return {
            "train_id": self.train_id,
            "val_id": self.val_id,
            "val_ood": self.val_ood,
            "test_id": self.test_id,
            "test_ood": self.test_ood,
        }

    def evaluation_nodes(self) -> np.ndarray:
        return np.concatenate(list(self.all_sets().values()))

    def validate(self, labels: np.ndarray, class_split: ClassSplit) -> None:
        sets = self.all_sets()
        union = np.concatenate(list(sets.values()))
        if union.size and (union.min() < 0 or union.max() >= len(labels)):
            raise InputError("split holds a node id outside the graph")
        if len(np.unique(union)) != len(union):
            raise InputError("split sets are not pairwise disjoint")
        for name in ("train_id", "val_id", "test_id"):
            if not np.all(np.isin(labels[sets[name]], class_split.id_classes)):
                raise InputError(f"{name} contains a node whose label is not an ID class")
        for name in ("val_ood", "test_ood"):
            if not np.all(np.isin(labels[sets[name]], class_split.ood_classes)):
                raise InputError(f"{name} contains a node whose label is not an OOD class")


def unique_edges(lo: np.ndarray, hi: np.ndarray, node_count: int) -> np.ndarray:
    """Rows (lo, hi) sorted by lo, then hi, with repeats dropped.

    Sorts the 1-D key ``lo * node_count + hi`` (needs ``0 <= hi < node_count``)
    and keeps each key that differs from its predecessor: the rows
    ``np.unique(np.stack([lo, hi], 1), axis=0)`` gives, at a fraction of the
    cost of its row-wise sort.
    """
    key = lo * node_count + hi
    key.sort()
    keep = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    return np.stack(np.divmod(key[keep], node_count), axis=1)


def canonicalize_edges(pairs: np.ndarray, node_count: int) -> np.ndarray:
    """Orient every pair as (min, max) and drop duplicates."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if pairs.min() < 0 or pairs.max() >= node_count:
        raise InputError("edge index out of range")
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise InputError("self-loop in edge list")
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return unique_edges(lo, hi, node_count)


# ---------------------------------------------------------------------------
# Dataset directory IO
# ---------------------------------------------------------------------------

def _read_embeddings_bin(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if len(raw) < 8:
        raise InputError(f"{path.name}: truncated header")
    rows, cols = struct.unpack("<II", raw[:8])
    expected = 8 + rows * cols * 4
    if len(raw) != expected:
        raise InputError(f"{path.name}: expected {expected} bytes, found {len(raw)}")
    mat = np.frombuffer(raw, dtype="<f4", offset=8).reshape(rows, cols)
    return np.ascontiguousarray(mat)


def _write_embeddings_bin(path: Path, mat: np.ndarray) -> None:
    rows, cols = mat.shape
    with path.open("wb") as fh:
        fh.write(struct.pack("<II", rows, cols))
        fh.write(np.ascontiguousarray(mat, dtype="<f4").tobytes())


# nodes.jsonl is parsed one block of lines (about this many bytes) at a time,
# and both text files are written this many rows at a time, so neither a
# whole file nor a dict for every node is held at once.
_NODE_BLOCK_BYTES = 1 << 18
_WRITE_CHUNK_ROWS = 8192

_EDGE_TOKEN = re.compile(r"[+-]?[0-9]+")


def _read_nodes(path: Path) -> tuple[list[int], list[str], list[int]]:
    """Ids, texts and labels of nodes.jsonl, in file order."""
    ids: list[int] = []
    texts: list[str] = []
    labels: list[int] = []
    first = 1   # line number of the block's first line
    try:
        with path.open(encoding="utf-8") as fh:
            while lines := fh.readlines(_NODE_BLOCK_BYTES):
                block = _parse_node_block(lines)
                if block is None:
                    block = _parse_node_lines(lines, first, path.name)
                ids += block[0]
                texts += block[1]
                labels += block[2]
                first += len(lines)
    except UnicodeDecodeError:
        raise InputError(f"{path} is not UTF-8 text") from None
    return ids, texts, labels


def _parse_node_block(lines: list[str]) -> tuple[list, list, list] | None:
    """Parse a block of lines with one ``json.loads``, or return None.

    Only takes blocks in the written form: every line is ``{...}`` with no
    other ``{``. A JSON string cannot hold a raw newline, so each line's
    last ``}`` must close the object its first ``{`` opened, and the one
    parse accepts exactly what the line-by-line parse accepts. Any other
    block (blank lines included), and any record whose id or label is not
    an int or whose text is not a string, is left to ``_parse_node_lines``.
    """
    text = "".join(lines)
    k = len(lines)
    if not (text.startswith("{") and text.endswith(("}", "}\n"))
            and text.count("}\n{") == k - 1 and text.count("{") == k):
        return None
    try:
        records = json.loads("[" + ",".join(lines) + "]")
        ids = [r["id"] for r in records]
        texts = [r["text"] for r in records]
        labels = [r["label"] for r in records]
    except (ValueError, KeyError):
        return None
    if set(map(type, ids)) | set(map(type, labels)) != {int} or set(map(type, texts)) != {str}:
        return None
    return ids, texts, labels


def _parse_node_lines(lines: list[str], first: int, name: str) -> tuple[list, list, list]:
    """Parse one JSON record per non-blank line; name the first bad line. As in
    the block parse, id and label must be JSON ints and text a string."""
    ids, texts, labels = [], [], []
    for number, line in enumerate(lines, first):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            node_id, text, label = obj["id"], obj["text"], obj["label"]
        except json.JSONDecodeError as exc:
            raise InputError(f"{name} line {number}: invalid JSON "
                             f"({exc.msg} at column {exc.colno})") from None
        except (KeyError, TypeError) as exc:
            raise InputError(f"{name} line {number}: bad node record ({exc!r})") from None
        kinds = (type(node_id), type(text), type(label))
        if kinds != (int, str, int):
            raise InputError(f"{name} line {number}: bad node record (id, text, label are "
                             f"{', '.join(kind.__name__ for kind in kinds)})")
        ids.append(node_id)
        texts.append(text)
        labels.append(label)
    return ids, texts, labels


def _int64(values: list[int], error: str) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise InputError(error) from None


def _id_order(ids: np.ndarray) -> np.ndarray | None:
    """The permutation that sorts the records by id; None if they already are.

    Raises when an id repeats (naming the first repeat in file order) or
    when the ids are not exactly 0..n-1.
    """
    n = len(ids)
    if np.array_equal(ids, np.arange(n)):
        return None
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if repeats.size:
        raise InputError(f"duplicate node id {ids[repeats.min()]}")
    if ranked[0] != 0 or ranked[-1] != n - 1:
        raise InputError("node ids must be exactly 0..n-1")
    return order


def _parse_edge_lines(path: Path, node_count: int) -> np.ndarray:
    """The edge-line rule applied line by line; raises naming the first bad line."""
    pairs = []
    with path.open(encoding="utf-8", errors="replace") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            bad = [token for token in tokens if not _EDGE_TOKEN.fullmatch(token)]
            if len(tokens) != 2:
                reason = f"malformed edge line: {line!r}"
            elif bad:
                reason = f"non-integer edge token {bad[0]!r}"
            else:
                i, j = map(int, tokens)
                if not (0 <= i < node_count and 0 <= j < node_count):
                    reason = "edge index out of range"
                elif i == j:
                    reason = "self-loop in edge list"
                else:
                    pairs.append((i, j))
                    continue
            raise InputError(f"{path.name} line {number}: {reason}")
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _read_edges(path: Path, node_count: int) -> np.ndarray:
    """Canonical edges of an edge file.

    The file is read line by line only when ``loadtxt`` or the checks fail,
    to name the first bad line.
    """
    try:
        pairs = np.zeros((0, 2), dtype=np.int64)
        if path.stat().st_size:
            pairs = np.loadtxt(path, dtype=np.int64, ndmin=2, comments=None)
        if pairs.shape[1] == 2:   # loadtxt takes any consistent column count
            return canonicalize_edges(pairs, node_count)
    except ValueError:
        pass
    return canonicalize_edges(_parse_edge_lines(path, node_count), node_count)


# manifest.json's fields, as JSON types: ints are ints, not floats or bools
_MANIFEST_FIELDS = {"name": (str, "a string"), "object_kind": (str, "a string"),
                    "category_names": (list, "a list of strings"),
                    "embedding_dim": (int, "an integer"), "node_count": (int, "an integer")}


def load_manifest(directory: Path | str) -> DatasetManifest:
    path = Path(directory) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"missing file: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise InputError(f"manifest.json: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise InputError("manifest.json: not a JSON object")
    for name, (kind, what) in _MANIFEST_FIELDS.items():
        value = data.get(name)
        if type(value) is not kind or (kind is list and {type(v) for v in value} - {str}):
            got = json.dumps(value) if name in data else "nothing"
            raise InputError(f"manifest.json: {name} must be {what}, got {got}")
    manifest = DatasetManifest(**{name: data[name] for name in _MANIFEST_FIELDS})
    manifest.validate()
    return manifest


def load_dataset(directory: Path | str) -> tuple[TextAttributedGraph, DatasetManifest]:
    """Read a dataset directory and return a validated graph plus its manifest."""
    directory = Path(directory)
    manifest = load_manifest(directory)
    for name in ("nodes.jsonl", "edges.tsv", "embeddings.bin"):
        if not (directory / name).exists():
            raise FileNotFoundError(f"missing file: {directory / name}")

    ids, texts, labels = _read_nodes(directory / "nodes.jsonl")
    n = len(ids)
    order = _id_order(_int64(ids, "node ids must be exactly 0..n-1"))
    labels = _int64(labels, "label out of range for manifest category_names")
    if order is not None:
        texts = [texts[i] for i in order]
        labels = labels[order]
    num_classes = len(manifest.category_names)
    bad = (labels != LABEL_UNAVAILABLE) & ((labels < 0) | (labels >= num_classes))
    if np.any(bad):
        raise InputError("label out of range for manifest category_names")

    edges = _read_edges(directory / "edges.tsv", n)

    embeddings = _read_embeddings_bin(directory / "embeddings.bin")
    if embeddings.shape[1] != manifest.embedding_dim:
        raise InputError("embedding_dim in manifest does not match embeddings.bin")
    if manifest.node_count != n:
        raise InputError("node_count in manifest does not match nodes.jsonl")

    graph = TextAttributedGraph(
        node_count=n, edges=edges, texts=texts, embeddings=embeddings, labels=labels
    )
    graph.validate()
    return graph, manifest


def save_dataset(graph: TextAttributedGraph, manifest: DatasetManifest,
                 directory: Path | str) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    graph.validate()
    manifest.validate()
    (directory / "manifest.json").write_text(json.dumps({
        "name": manifest.name,
        "object_kind": manifest.object_kind,
        "category_names": manifest.category_names,
        "embedding_dim": manifest.embedding_dim,
        "node_count": manifest.node_count,
    }, indent=2) + "\n", encoding="utf-8")
    # Each line is byte for byte what json.dumps of the record writes.
    encode = json.JSONEncoder().encode
    with (directory / "nodes.jsonl").open("w", encoding="utf-8") as fh:
        for start in range(0, graph.node_count, _WRITE_CHUNK_ROWS):
            stop = start + _WRITE_CHUNK_ROWS
            labels = graph.labels[start:stop].astype(np.int64).tolist()
            fh.write("".join(
                f'{{"id": {i}, "text": {encode(text)}, "label": {label}}}\n'
                for i, text, label in zip(range(start, stop), graph.texts[start:stop], labels)))
    with (directory / "edges.tsv").open("w", encoding="utf-8") as fh:
        for start in range(0, len(graph.edges), _WRITE_CHUNK_ROWS):
            rows = graph.edges[start:start + _WRITE_CHUNK_ROWS]
            fh.write(("%d\t%d\n" * len(rows)) % tuple(rows.ravel().tolist()))
    _write_embeddings_bin(directory / "embeddings.bin", graph.embeddings)


# ---------------------------------------------------------------------------
# Adjacency operators
# ---------------------------------------------------------------------------

def normalize_adjacency(graph: TextAttributedGraph) -> sp.csr_matrix:
    """Symmetric degree-normalized adjacency with self-loops.

    Entry (i, j) is 1/sqrt(deg_i * deg_j) for connected pairs and along the
    diagonal, where degrees count the self-loop. Exactly symmetric because
    each off-diagonal pair is computed as the same commutative product.
    """
    n = graph.node_count
    edges = graph.edges if graph.edges.size else np.zeros((0, 2), dtype=np.int64)
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([edges[:, 0], edges[:, 1], diag])
    cols = np.concatenate([edges[:, 1], edges[:, 0], diag])
    deg_inv_sqrt = 1.0 / np.sqrt(np.bincount(rows, minlength=n).astype(np.float64))
    values = deg_inv_sqrt[rows] * deg_inv_sqrt[cols]
    return sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()


def row_stochastic_adjacency(adjacency: sp.csr_matrix) -> sp.csr_matrix:
    """The row-normalized pattern of ``adjacency``: entry (i, j) is 1 / (entries in
    row i), on ``adjacency``'s own ``indices`` and ``indptr``. On
    ``normalize_adjacency(graph)`` that is D⁻¹(A+I) bit for bit; on a block of
    it, only the rows that lost neighbours differ."""
    counts = np.diff(adjacency.indptr)
    values = np.repeat(1.0 / counts, counts)
    return sp.csr_matrix((values, adjacency.indices, adjacency.indptr), shape=adjacency.shape)


# ---------------------------------------------------------------------------
# Class and node splits
# ---------------------------------------------------------------------------

def make_class_split(labels: np.ndarray, id_class_list: list[int]) -> ClassSplit:
    """Declare which original label values count as in-distribution.

    The remaining observed label values (excluding the -1 sentinel) become
    the OOD classes. At least two ID classes are required so the ID
    classification task is well posed.
    """
    if len(id_class_list) < 2:
        raise InputError("at least 2 ID classes are required")
    if len(set(id_class_list)) != len(id_class_list):
        raise InputError("duplicate values in id_class_list")
    present = set(int(v) for v in np.unique(labels) if v != LABEL_UNAVAILABLE)
    for value in id_class_list:
        if value not in present:
            raise InputError(f"unknown label value {value}")
    ood = sorted(present - set(id_class_list))
    return ClassSplit(id_classes=[int(v) for v in id_class_list], ood_classes=ood)


def compute_id_ratio(labels: np.ndarray, class_split: ClassSplit) -> float:
    """Fraction of all nodes whose label is one of the ID classes."""
    return float(np.isin(labels, class_split.id_classes).mean())


def sample_data_split(
    graph: TextAttributedGraph,
    class_split: ClassSplit,
    seed: int,
    *,
    train_per_class: int = 20,
    val_per_class: int = 10,
    test_id_size: int = 500,
    test_ood_size: int = 500,
) -> DataSplit:
    """Sample disjoint train/val/test node sets without replacement.

    Training and ID validation are balanced per ID class; OOD validation and
    both test sets are drawn from the relevant pools at large. Each set uses
    its own seed stream, so changing the test sizes leaves the training draw
    untouched.
    """
    labels = graph.labels
    k = class_split.num_id_classes

    rng_train = stream_rng(seed, _STREAM_TRAIN)
    rng_val_id = stream_rng(seed, _STREAM_VAL_ID)
    rng_val_ood = stream_rng(seed, _STREAM_VAL_OOD)
    rng_test_id = stream_rng(seed, _STREAM_TEST_ID)
    rng_test_ood = stream_rng(seed, _STREAM_TEST_OOD)

    train_parts, val_parts = [], []
    for cls in class_split.id_classes:
        pool = np.flatnonzero(labels == cls)
        if len(pool) < train_per_class + val_per_class:
            raise InputError(f"insufficient ID nodes in class {cls}")
        picked = rng_train.choice(pool, size=train_per_class, replace=False)
        train_parts.append(picked)
        remaining = np.setdiff1d(pool, picked)
        val_parts.append(rng_val_id.choice(remaining, size=val_per_class, replace=False))
    train_id = np.sort(np.concatenate(train_parts))
    val_id = np.sort(np.concatenate(val_parts))

    id_pool = np.flatnonzero(np.isin(labels, class_split.id_classes))
    id_remaining = np.setdiff1d(id_pool, np.concatenate([train_id, val_id]))
    if len(id_remaining) < test_id_size:
        raise InputError("insufficient ID nodes")
    test_id = np.sort(rng_test_id.choice(id_remaining, size=test_id_size, replace=False))

    ood_pool = np.flatnonzero(np.isin(labels, class_split.ood_classes))
    if len(ood_pool) < val_per_class * k + test_ood_size:
        raise InputError("insufficient OOD nodes")
    val_ood = np.sort(rng_val_ood.choice(ood_pool, size=val_per_class * k, replace=False))
    ood_remaining = np.setdiff1d(ood_pool, val_ood)
    test_ood = np.sort(rng_test_ood.choice(ood_remaining, size=test_ood_size, replace=False))

    split = DataSplit(
        train_id=train_id, val_id=val_id, val_ood=val_ood,
        test_id=test_id, test_ood=test_ood, seed=seed,
    )
    split.validate(labels, class_split)
    return split


def save_split(split: DataSplit, path: Path | str,
               id_classes: list[int] | None = None) -> None:
    payload: dict = {"seed": split.seed}
    for name, ids in split.all_sets().items():
        payload[name] = [int(v) for v in ids]
    if id_classes is not None:
        payload["id_classes"] = [int(v) for v in id_classes]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_split(path: Path | str) -> tuple[DataSplit, list[int] | None]:
    """Read split.json. A node-id set or ``id_classes`` that is not a list of
    JSON integers fails, and so does a ``seed`` that is not one."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise InputError("not a JSON object")

    def ints(name: str, what: str) -> list[int]:
        values = data.get(name)
        if not (isinstance(values, list) and all(type(v) is int for v in values)):
            raise InputError(f"{name} is not a list of integer {what}")
        return values

    sets = {name: _int64(sorted(ints(name, "node ids")),
                         f"{name} holds a node id outside the graph")
            for name in ("train_id", "val_id", "val_ood", "test_id", "test_ood")}
    if type(data.get("seed")) is not int:
        raise InputError("seed is not an integer")
    id_classes = ints("id_classes", "label values") if "id_classes" in data else None
    return DataSplit(**sets, seed=data["seed"]), id_classes
