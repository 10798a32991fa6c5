"""Dataset format, adjacency operators, and split sampling."""

import hashlib
import json
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goe import graph as graph_module
from goe.graph import (
    DatasetManifest,
    TextAttributedGraph,
    canonicalize_edges,
    compute_id_ratio,
    load_dataset,
    load_split,
    make_class_split,
    normalize_adjacency,
    row_stochastic_adjacency,
    sample_data_split,
    save_dataset,
    save_split,
)
from goe.llm import augment_graph


def _write_dataset(directory, texts, labels, edges, embeddings, dim=None):
    n = len(texts)
    dim = embeddings.shape[1] if dim is None else dim
    (directory / "manifest.json").write_text(json.dumps({
        "name": "tiny", "object_kind": "paper",
        "category_names": [f"c{i}" for i in range(int(max(labels)) + 1)],
        "embedding_dim": dim, "node_count": n,
    }))
    with (directory / "nodes.jsonl").open("w") as fh:
        for i in range(n):
            fh.write(json.dumps({"id": i, "text": texts[i], "label": int(labels[i])}) + "\n")
    (directory / "edges.tsv").write_text(
        "".join(f"{i}\t{j}\n" for i, j in edges))
    with (directory / "embeddings.bin").open("wb") as fh:
        fh.write(struct.pack("<II", embeddings.shape[0], embeddings.shape[1]))
        fh.write(embeddings.astype("<f4").tobytes())


def test_load_three_node_dataset(tmp_path):
    emb = np.arange(6, dtype=np.float32).reshape(3, 2)
    _write_dataset(tmp_path, ["a", "b", "c"], [0, 1, 0], [(0, 1)], emb)
    graph, manifest = load_dataset(tmp_path)
    assert graph.node_count == 3
    assert graph.edges.tolist() == [[0, 1]]
    assert manifest.embedding_dim == 2
    assert np.array_equal(graph.embeddings, emb)


def test_load_dedups_reversed_edges(tmp_path):
    emb = np.zeros((2, 2), dtype=np.float32)
    _write_dataset(tmp_path, ["a", "b"], [0, 1], [(0, 1), (1, 0)], emb)
    graph, _ = load_dataset(tmp_path)
    assert graph.edges.tolist() == [[0, 1]]


def test_load_row_count_mismatch(tmp_path):
    emb = np.zeros((2, 2), dtype=np.float32)  # 2 rows for 3 nodes
    _write_dataset(tmp_path, ["a", "b", "c"], [0, 1, 0], [(0, 1)], emb)
    with pytest.raises(ValueError, match="row-count mismatch"):
        load_dataset(tmp_path)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path)


def test_load_edge_out_of_range(tmp_path):
    emb = np.zeros((2, 2), dtype=np.float32)
    _write_dataset(tmp_path, ["a", "b"], [0, 1], [(0, 5)], emb)
    with pytest.raises(ValueError, match="out of range"):
        load_dataset(tmp_path)


def test_load_non_finite_embedding(tmp_path):
    emb = np.zeros((2, 2), dtype=np.float32)
    emb[1, 1] = np.nan
    _write_dataset(tmp_path, ["a", "b"], [0, 1], [(0, 1)], emb)
    with pytest.raises(ValueError, match="non-finite"):
        load_dataset(tmp_path)


def test_dataset_roundtrip_identical(planted, tmp_path):
    graph, manifest = planted
    save_dataset(graph, manifest, tmp_path)
    loaded, loaded_manifest = load_dataset(tmp_path)
    assert loaded.texts == graph.texts
    assert np.array_equal(loaded.labels, graph.labels)
    assert np.array_equal(loaded.edges, graph.edges)
    assert np.array_equal(loaded.embeddings, graph.embeddings)
    assert loaded_manifest == manifest


def test_planted_graph_seed_0_is_pinned(planted):
    """The generator's output is part of every benchmark and fixture; a
    faster generator must draw the same rng sequence and give the same bytes."""
    graph, _ = planted

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    assert digest(graph.edges.astype("<i8").tobytes()) == (
        "973cd7119f7f0503930d801bd234acf06a3772f88d59fa2e328f6a8e4042e918")
    assert digest(graph.embeddings.astype("<f4").tobytes()) == (
        "33d2e224a9088031f2c4b71c833590171aea4d999d6620d29341b8350c05ec7e")
    assert digest(graph.labels.astype("<i8").tobytes()) == (
        "298179e3bf74b4faeb7aef5820646a0d68de85b0530fcb1c2e34cf85a2d3ff66")
    assert digest("\n".join(graph.texts).encode("utf-8")) == (
        "0fc9cd8e9155072cf518227b6e19058eb1280da186ca60bb9d13cb189869302b")


def test_save_dataset_bytes_are_pinned(planted, tmp_path):
    """The written text files are what the per-record json.dumps writer wrote."""
    graph, manifest = planted
    save_dataset(graph, manifest, tmp_path)

    def digest(name: str) -> str:
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert digest("nodes.jsonl") == (
        "ea4018ab140026cd276057bdb983dc3f5067c155d17f105a4b7909d11e884873")
    assert digest("edges.tsv") == (
        "30bf747c2866db45286b4b400075d4a15219cab324748378d86c7407ff6ecf89")


# ---------------------------------------------------------------------------
# Loader properties
# ---------------------------------------------------------------------------

# Quotes, backslashes, newlines, braces, non-ASCII and astral characters.
_TEXTS = st.text(st.sampled_from('ab "\\\n\t{}[]é€😀\u2028') | st.characters(), max_size=12)


@st.composite
def _small_graphs(draw, min_nodes=0):
    n = draw(st.integers(min_nodes, 8))
    num_classes = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    values = draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                           min_size=n * dim, max_size=n * dim))
    graph = TextAttributedGraph(
        node_count=n,
        edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
        texts=draw(st.lists(_TEXTS, min_size=n, max_size=n)),
        embeddings=np.array(values, dtype=np.float32).reshape(n, dim),
        labels=np.array(draw(st.lists(st.integers(-1, num_classes - 1),
                                      min_size=n, max_size=n)), dtype=np.int64),
    )
    manifest = DatasetManifest(name="h", object_kind="paper",
                               category_names=[f"c{i}" for i in range(num_classes)],
                               embedding_dim=dim, node_count=n)
    return graph, manifest


# 1 byte parses nodes.jsonl one line per block; the default takes it whole.
_BLOCK_SIZES = st.sampled_from([1, 64, graph_module._NODE_BLOCK_BYTES])


@settings(max_examples=60, deadline=None)
@given(sample=_small_graphs(), block_bytes=_BLOCK_SIZES)
def test_save_load_round_trips_random_graphs(sample, block_bytes):
    graph, manifest = sample
    with tempfile.TemporaryDirectory() as d, \
            mock.patch.object(graph_module, "_NODE_BLOCK_BYTES", block_bytes):
        save_dataset(graph, manifest, d)
        assert Path(d, "nodes.jsonl").read_text() == "".join(
            json.dumps({"id": i, "text": graph.texts[i], "label": int(graph.labels[i])}) + "\n"
            for i in range(graph.node_count))
        assert Path(d, "edges.tsv").read_text() == "".join(
            f"{i}\t{j}\n" for i, j in graph.edges.tolist())
        loaded, loaded_manifest = load_dataset(d)
    assert loaded.texts == graph.texts
    assert loaded.labels.tolist() == graph.labels.tolist()
    assert loaded.edges.tolist() == graph.edges.tolist()
    assert loaded.embeddings.tobytes() == graph.embeddings.tobytes()
    assert loaded_manifest == manifest


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_canonicalize_matches_set_oracle(data):
    n = data.draw(st.integers(2, 12))
    node = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]),
                               max_size=30))
    # reversed copies and repeats of drawn pairs
    pairs += [(b, a) for a, b in data.draw(st.lists(st.sampled_from(pairs)))] if pairs else []
    pairs += data.draw(st.lists(st.sampled_from(pairs))) if pairs else []
    oracle = sorted({(min(a, b), max(a, b)) for a, b in pairs})
    edges = canonicalize_edges(np.array(pairs, dtype=np.int64).reshape(-1, 2), n)
    assert edges.dtype == np.int64 and edges.shape == (len(oracle), 2)
    assert [tuple(e) for e in edges.tolist()] == oracle


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_validate_finds_duplicates_in_any_order(data):
    n = data.draw(st.integers(2, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=20))
    if data.draw(st.booleans()):
        edges = sorted(set(edges))
    graph = TextAttributedGraph(
        node_count=n, edges=np.array(edges, dtype=np.int64), texts=["t"] * n,
        embeddings=np.zeros((n, 1), dtype=np.float32), labels=np.zeros(n, dtype=np.int64))
    if len(set(edges)) < len(edges):
        with pytest.raises(ValueError, match="duplicate undirected edge"):
            graph.validate()
    else:
        graph.validate()


def _insert_line(path: Path, data, line: str) -> int:
    """Insert a line and a blank line at drawn positions; return the line's number."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(data.draw(st.integers(0, len(lines))), line)
    lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(["\n", " \t\n"])))
    path.write_text("".join(lines), encoding="utf-8")
    return lines.index(line) + 1


def _edit_node(path: Path, index: int, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    lines[index] = edit(lines[index])
    path.write_text("".join(lines))


def _set_field(key, value):
    return lambda line: json.dumps({**json.loads(line), key: value}) + "\n"


def _truncated_embeddings(d: Path, data, n, classes) -> str:
    path = d / "embeddings.bin"
    raw = path.read_bytes()
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    return r"^embeddings\.bin: (truncated header|expected \d+ bytes, found \d+)$"


def _three_column_edge(d: Path, data, n, classes) -> str:
    number = _insert_line(d / "edges.tsv", data, "0\t1\t2\n")
    return rf"^edges\.tsv line {number}: malformed edge line: '0\\t1\\t2'$"


def _non_integer_edge(d: Path, data, n, classes) -> str:
    token = data.draw(st.sampled_from(["x", "1.5", "1_0", "0x1", "1e3", "#1", "١"]))
    number = _insert_line(d / "edges.tsv", data, f"0\t{token}\n")
    return rf"^edges\.tsv line {number}: non-integer edge token '{token}'$"


def _edge_out_of_range(d: Path, data, n, classes) -> str:
    bad = data.draw(st.sampled_from([n, n + 7, -1, 2 ** 63 - 1, 2 ** 64]))
    number = _insert_line(d / "edges.tsv", data, f"0 {bad}\n")
    return rf"^edges\.tsv line {number}: edge index out of range$"


def _self_loop(d: Path, data, n, classes) -> str:
    node = data.draw(st.integers(0, n - 1))
    number = _insert_line(d / "edges.tsv", data, f"{node} {node}\n")
    return rf"^edges\.tsv line {number}: self-loop in edge list$"


def _duplicate_id(d: Path, data, n, classes) -> str:
    later = data.draw(st.integers(1, n - 1))
    earlier = data.draw(st.integers(0, later - 1))
    _edit_node(d / "nodes.jsonl", later, _set_field("id", earlier))
    return rf"^duplicate node id {earlier}$"


def _missing_id(d: Path, data, n, classes) -> str:
    path = d / "nodes.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    del lines[data.draw(st.integers(0, n - 2))]
    path.write_text("".join(lines))
    return r"^node ids must be exactly 0\.\.n-1$"


def _label_out_of_range(d: Path, data, n, classes) -> str:
    label = data.draw(st.sampled_from([classes, classes + 3, -2, 2 ** 70]))
    _edit_node(d / "nodes.jsonl", data.draw(st.integers(0, n - 1)), _set_field("label", label))
    return r"^label out of range for manifest category_names$"


def _bad_json_line(d: Path, data, n, classes) -> str:
    index = data.draw(st.integers(0, n - 1))
    cut = data.draw(st.integers(1, 20))
    _edit_node(d / "nodes.jsonl", index, lambda line: line.rstrip("\n")[:cut] + "\n")
    return rf"^nodes\.jsonl line {index + 1}: invalid JSON \(.+ at column \d+\)$"


def _mistyped_field(key, values):
    def defect(d: Path, data, n, classes) -> str:
        index = data.draw(st.integers(0, n - 1))
        _edit_node(d / "nodes.jsonl", index, _set_field(key, data.draw(st.sampled_from(values))))
        return rf"^nodes\.jsonl line {index + 1}: bad node record \(id, text, label are .+\)$"
    defect.__name__ = f"_mistyped_{key}"
    return defect


_mistyped_id = _mistyped_field("id", [0.7, 1.0, True, "0", None])
_mistyped_label = _mistyped_field("label", [1.9, 0.0, True, False, "1", None])
_mistyped_text = _mistyped_field("text", [12345, 1.5, None, ["a"], {"a": "b"}])

_DEFECTS = [_truncated_embeddings, _three_column_edge, _non_integer_edge, _edge_out_of_range,
            _self_loop, _duplicate_id, _missing_id, _label_out_of_range, _bad_json_line,
            _mistyped_id, _mistyped_label, _mistyped_text]


@pytest.mark.parametrize("defect", _DEFECTS, ids=[f.__name__[1:] for f in _DEFECTS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_malformed_dataset_raises_a_one_line_error_naming_the_defect(defect, data):
    graph, manifest = data.draw(_small_graphs(min_nodes=3))
    block_bytes = data.draw(_BLOCK_SIZES)
    with tempfile.TemporaryDirectory() as d, \
            mock.patch.object(graph_module, "_NODE_BLOCK_BYTES", block_bytes):
        save_dataset(graph, manifest, d)
        expected = defect(Path(d), data, graph.node_count, len(manifest.category_names))
        with pytest.raises(ValueError, match=expected):
            load_dataset(d)


def test_records_sharing_or_spanning_lines_are_rejected(tmp_path):
    # As one JSON array these three lines parse to three valid records; read
    # line by line, the first holds two values.
    emb = np.zeros((3, 2), dtype=np.float32)
    _write_dataset(tmp_path, ["a", "b", "c"], [0, 1, 0], [(0, 1)], emb)
    (tmp_path / "nodes.jsonl").write_text(
        '{"id": 0, "text": "a", "label": 0}, {"id": 1, "text": "b", "label": 1}\n'
        '{"id": 2, "text": "c"\n'
        '"label": 0}\n')
    with pytest.raises(ValueError, match="^nodes.jsonl line 1: invalid JSON"):
        load_dataset(tmp_path)


def test_consistent_three_column_edge_file_is_rejected(tmp_path):
    emb = np.zeros((3, 2), dtype=np.float32)
    _write_dataset(tmp_path, ["a", "b", "c"], [0, 1, 0], [], emb)
    (tmp_path / "edges.tsv").write_text("0 1 2\n1 2 0\n")
    with pytest.raises(ValueError, match="^edges.tsv line 1: malformed edge line: '0 1 2'$"):
        load_dataset(tmp_path)


def test_first_repeated_id_in_file_order_is_named(tmp_path):
    emb = np.zeros((5, 2), dtype=np.float32)
    _write_dataset(tmp_path, list("abcde"), [0, 1, 0, 1, 0], [(0, 1)], emb)
    lines = (tmp_path / "nodes.jsonl").read_text().splitlines(keepends=True)
    ids = [2, 0, 1, 0, 2]
    (tmp_path / "nodes.jsonl").write_text("".join(
        json.dumps({**json.loads(line), "id": i}) + "\n" for line, i in zip(lines, ids)))
    with pytest.raises(ValueError, match="^duplicate node id 0$"):
        load_dataset(tmp_path)


def test_bad_line_is_numbered_across_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(graph_module, "_NODE_BLOCK_BYTES", 100)
    n = 50
    emb = np.zeros((n, 2), dtype=np.float32)
    texts = [f"text {{{i}}}" if i % 7 == 0 else f"text {i}" for i in range(n)]
    _write_dataset(tmp_path, texts, [i % 2 for i in range(n)], [(0, 1)], emb)
    lines = (tmp_path / "nodes.jsonl").read_text().splitlines(keepends=True)
    lines.insert(10, "\n")
    lines[40] = '{"id": 39, "text": "t", "label": 1\n'
    (tmp_path / "nodes.jsonl").write_text("".join(lines))
    with pytest.raises(ValueError, match="^nodes.jsonl line 41: invalid JSON"):
        load_dataset(tmp_path)
    lines[40] = '{"id": 39, "text": "t", "label": 1}\n'
    (tmp_path / "nodes.jsonl").write_text("".join(lines))
    graph, _ = load_dataset(tmp_path)
    assert graph.texts == texts[:39] + ["t"] + texts[40:]


def test_canonicalize_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        canonicalize_edges(np.array([[1, 1]]), 3)


def _graph_from_edges(n, edges, dim=2):
    return TextAttributedGraph(
        node_count=n,
        edges=canonicalize_edges(np.array(edges, dtype=np.int64).reshape(-1, 2), n),
        texts=["t"] * n,
        embeddings=np.zeros((n, dim), dtype=np.float32),
        labels=np.zeros(n, dtype=np.int64),
    )


class TestNormalizeAdjacency:
    def test_isolated_node(self):
        a = normalize_adjacency(_graph_from_edges(1, [])).toarray()
        assert a.tolist() == [[1.0]]

    def test_two_node_edge(self):
        # degrees with self-loops: (2, 2), so every entry is 1/sqrt(2*2)
        a = normalize_adjacency(_graph_from_edges(2, [(0, 1)])).toarray()
        np.testing.assert_allclose(a, 0.5)

    def test_path_graph_entry(self):
        a = normalize_adjacency(_graph_from_edges(3, [(0, 1), (1, 2)])).toarray()
        assert a[0, 1] == pytest.approx(1.0 / np.sqrt(2 * 3), abs=1e-12)

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(3)
        n = 40
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.1]
        a = normalize_adjacency(_graph_from_edges(n, edges)).toarray()
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) > 0)
        assert np.all(a.sum(axis=1) > 0)

    def test_exactly_symmetric_on_planted_and_knn_augmented(self, planted):
        # normalize_adjacency promises exact symmetry, and the pinned outputs rely on it
        graph, _ = planted
        rows = np.random.default_rng(0).normal(size=(20, graph.embedding_dim))
        augmented = augment_graph(graph, [f"t{i}. b" for i in range(20)], rows, edge_mode="knn")
        for g in (graph, augmented):
            a = normalize_adjacency(g)
            assert (a - a.T).nnz == 0

    def test_regular_graph_rows_sum_to_one(self):
        # 6-cycle: every node is 2-regular, so each entry is 1/3
        n = 6
        ring = [(i, (i + 1) % n) for i in range(n)]
        a = normalize_adjacency(_graph_from_edges(n, ring))
        rows = np.asarray(a.sum(axis=1)).ravel()
        np.testing.assert_allclose(rows, 1.0, atol=1e-12)

    def test_row_stochastic_rows_sum_to_one(self):
        g = _graph_from_edges(5, [(0, 1), (1, 2), (0, 4)])
        p = row_stochastic_adjacency(normalize_adjacency(g))
        np.testing.assert_allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0, atol=1e-15)

    def test_operators_on_planted_graph_are_pinned(self, planted):
        """The CSR bytes of both operators; the row-stochastic one is built on the
        normalized one's pattern."""
        graph, _ = planted

        def digests(a):
            return [hashlib.sha256(arr.astype(dtype).tobytes()).hexdigest()
                    for arr, dtype in ((a.data, "<f8"), (a.indices, "<i8"), (a.indptr, "<i8"))]

        structure = ["3ac3b70a7f9c6a0d9b61b22b5034f43e929f419a9386cfa704ca042706ed6d28",
                     "21a041c8a037c2928dbe9dd47b4528bf9436547f88aa9551ea2a75eebce796ef"]
        assert digests(normalize_adjacency(graph)) == [
            "d19e472f16c1c262167ef9c3aad0632b9ae8ec58334dc56172240c04021eb61f", *structure]
        assert digests(row_stochastic_adjacency(normalize_adjacency(graph))) == [
            "0019d8b7a4afeef67b604d792a2557ee32cf2b9124cdd82d1c61b5b9152cfabf", *structure]


class TestClassSplit:
    def test_counts(self):
        labels = np.array([0, 1, 2, 3, 4, 5, 6] * 3)
        cs = make_class_split(labels, [2, 4, 5, 6])
        assert cs.num_id_classes == 4
        assert len(cs.ood_classes) == 3
        assert cs.compact_index == {2: 0, 4: 1, 5: 2, 6: 3}

    def test_two_class_split(self):
        labels = np.array([0, 1, 2] * 4)
        cs = make_class_split(labels, [0, 1])
        assert cs.num_id_classes == 2
        assert cs.ood_classes == [2]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_class_split(np.array([0, 1]), [0])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown label"):
            make_class_split(np.array([0, 1]), [0, 7])

    def test_sentinel_not_an_ood_class(self):
        labels = np.array([0, 1, 2, -1, -1])
        cs = make_class_split(labels, [0, 1])
        assert cs.ood_classes == [2]

    def test_compact_labels(self):
        labels = np.array([5, 2, 9, 2])
        cs = make_class_split(labels, [2, 5])
        assert cs.compact_labels(labels).tolist() == [1, 0, -1, 0]


def test_id_ratio_all_id():
    labels = np.array([0, 1, 0, 1])
    cs = make_class_split(labels, [0, 1])
    assert compute_id_ratio(labels, cs) == 1.0


def test_id_ratio_fraction(planted):
    graph, _ = planted
    cs = make_class_split(graph.labels, [0, 1])
    assert compute_id_ratio(graph.labels, cs) == pytest.approx(2 / 3, abs=1e-12)


def _big_synthetic_graph(seed=0, n_id=3000, n_ood=1500):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([
        rng.integers(0, 2, size=n_id),       # ID classes 0, 1
        np.full(n_ood, 2, dtype=np.int64),   # OOD class 2
    ]).astype(np.int64)
    n = labels.size
    return TextAttributedGraph(
        node_count=n, edges=np.zeros((0, 2), dtype=np.int64),
        texts=["t"] * n,
        embeddings=np.zeros((n, 2), dtype=np.float32), labels=labels,
    )


class TestSampleDataSplit:
    def test_paper_protocol_sizes(self):
        graph = _big_synthetic_graph()
        cs = make_class_split(graph.labels, [0, 1])
        split = sample_data_split(graph, cs, seed=0)
        sizes = {k: len(v) for k, v in split.all_sets().items()}
        assert sizes == {"train_id": 40, "val_id": 20, "val_ood": 20,
                         "test_id": 500, "test_ood": 500}

    def test_disjoint_and_label_respecting(self):
        graph = _big_synthetic_graph()
        cs = make_class_split(graph.labels, [0, 1])
        split = sample_data_split(graph, cs, seed=1)
        union = split.evaluation_nodes()
        assert len(np.unique(union)) == 40 + 20 + 20 + 1000
        for name in ("train_id", "val_id", "test_id"):
            assert np.all(np.isin(graph.labels[split.all_sets()[name]], [0, 1]))
        for name in ("val_ood", "test_ood"):
            assert np.all(graph.labels[split.all_sets()[name]] == 2)

    def test_same_seed_identical(self):
        graph = _big_synthetic_graph()
        cs = make_class_split(graph.labels, [0, 1])
        a = sample_data_split(graph, cs, seed=7)
        b = sample_data_split(graph, cs, seed=7)
        for name in a.all_sets():
            assert np.array_equal(a.all_sets()[name], b.all_sets()[name])

    def test_test_size_does_not_perturb_train(self):
        graph = _big_synthetic_graph()
        cs = make_class_split(graph.labels, [0, 1])
        a = sample_data_split(graph, cs, seed=3, test_id_size=500, test_ood_size=500)
        b = sample_data_split(graph, cs, seed=3, test_id_size=100, test_ood_size=100)
        assert np.array_equal(a.train_id, b.train_id)
        assert np.array_equal(a.val_id, b.val_id)

    def test_insufficient_id_nodes(self):
        graph = _big_synthetic_graph(n_id=30, n_ood=1500)
        cs = make_class_split(graph.labels, [0, 1])
        with pytest.raises(ValueError, match="insufficient ID nodes"):
            sample_data_split(graph, cs, seed=0)

    def test_insufficient_ood_nodes(self):
        graph = _big_synthetic_graph(n_id=3000, n_ood=50)
        cs = make_class_split(graph.labels, [0, 1])
        with pytest.raises(ValueError, match="insufficient OOD nodes"):
            sample_data_split(graph, cs, seed=0)


def test_split_json_roundtrip(tmp_path):
    graph = _big_synthetic_graph()
    cs = make_class_split(graph.labels, [0, 1])
    split = sample_data_split(graph, cs, seed=5)
    path = tmp_path / "split.json"
    save_split(split, path, id_classes=[0, 1])
    loaded, id_classes = load_split(path)
    assert id_classes == [0, 1]
    assert loaded.seed == 5
    for name in split.all_sets():
        assert np.array_equal(loaded.all_sets()[name], split.all_sets()[name])


@pytest.mark.parametrize("ids", [[0.5], ["3"], [True], None, 7],
                         ids=["fraction", "string", "bool", "missing", "not_a_list"])
def test_load_split_rejects_a_set_that_is_not_integer_ids(tmp_path, ids):
    payload = {"seed": 0, "train_id": [1, 2], "val_id": [3], "val_ood": ids,
               "test_id": [5], "test_ood": [6]}
    path = tmp_path / "split.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="^val_ood is not a list of integer node ids$"):
        load_split(path)


def test_split_validate_rejects_ids_outside_the_graph():
    labels = np.array([0, 1, 2, 0, 1, 2])
    cs = make_class_split(labels, [0, 1])
    for bad in (-1, 6):
        split = graph_module.DataSplit(train_id=np.array([0, 1]), val_id=np.array([3]),
                                       val_ood=np.array([2]), test_id=np.array([4]),
                                       test_ood=np.array([bad]), seed=0)
        with pytest.raises(ValueError, match="outside the graph"):
            split.validate(labels, cs)


def test_manifest_validation():
    with pytest.raises(ValueError):
        DatasetManifest(name="x", object_kind="paper", category_names=[],
                        embedding_dim=4, node_count=1).validate()
