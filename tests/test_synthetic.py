"""The planted-graph generator: its edges against the per-node loop, its
argument checks, and pins on the rewind path of its vectorised replay."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_planted_pairs
from goe import synthetic
from goe.synthetic import make_planted_tag


def _canonical(pairs) -> np.ndarray:
    rows = sorted({(min(i, j), max(i, j)) for i, j in pairs if i != j})
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


@st.composite
def _planted_args(draw):
    nodes_per_class = draw(st.integers(1, 60))
    return dict(seed=draw(st.integers(0, 2**32 - 1)), nodes_per_class=nodes_per_class,
                intra_degree=draw(st.integers(0, min(6, nodes_per_class))),
                cross_edge_fraction=draw(st.sampled_from([0.0, 0.03, 0.5, 1.0])))


@settings(max_examples=80, deadline=None)
@given(_planted_args())
@example(dict(seed=0, nodes_per_class=4, intra_degree=4, cross_edge_fraction=0.5))
@example(dict(seed=3, nodes_per_class=1, intra_degree=1, cross_edge_fraction=1.0))
@example(dict(seed=5, nodes_per_class=1, intra_degree=0, cross_edge_fraction=0.5))
@example(dict(seed=7, nodes_per_class=60, intra_degree=0, cross_edge_fraction=0.0))
def test_edges_equal_the_per_node_choice_loop(args):
    """Including the self-partner case (nodes_per_class == intra_degree),
    where every class member is picked and the node itself is dropped. Blocks
    of 5 nodes make many block boundaries, with and without a buffered half."""
    expected = _canonical(reference_planted_pairs(**args))
    assert np.array_equal(make_planted_tag(**args)[0].edges, expected)
    with mock.patch.object(synthetic, "_BLOCK_NODES", 5):
        assert np.array_equal(make_planted_tag(**args)[0].edges, expected)


def test_edges_equal_the_loop_across_blocks():
    """Three blocks of nodes, with the default degree and cross fraction."""
    graph, _ = make_planted_tag(seed=1835504127, nodes_per_class=3000)
    assert np.array_equal(graph.edges, _canonical(reference_planted_pairs(1835504127, 3000)))


@pytest.mark.parametrize("seed, digest", [
    # one rewind, with no buffered half (node 29,885)
    (11, "330e17f4d810085850f29f0050663290dba34677312f45f9740ade54b919e66b"),
    # two rewinds
    (25, "8f7ba92b3bcabda88d2d7223b2f8e40fefdb931cea40c1ae7c00de961552f93b"),
    # one rewind with a buffered half (node 22,448)
    (27, "4205ea03818161b755ea14438e27ca9ec948d11bd8f39d2d06fa5ab392003705"),
])
def test_rejected_draws_are_pinned(seed, digest):
    """Seeds whose 30k-node graphs hit a rejected Lemire draw; digests
    computed with the per-node loop."""
    graph, _ = make_planted_tag(seed=seed, nodes_per_class=10_000)
    assert hashlib.sha256(graph.edges.astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("kwargs, rule", [
    (dict(intra_degree=-1), "intra_degree >= 0"),
    (dict(nodes_per_class=3), "nodes_per_class >= max(1, intra_degree)"),
    (dict(nodes_per_class=0, intra_degree=0), "nodes_per_class >= max(1, intra_degree)"),
    (dict(nodes_per_class=-2), "nodes_per_class >= max(1, intra_degree)"),
    (dict(dim=1), "dim >= 2"),
    (dict(dim=0), "dim >= 2"),
    (dict(cross_edge_fraction=-0.01), "0 <= cross_edge_fraction <= 1"),
    (dict(cross_edge_fraction=1.5), "0 <= cross_edge_fraction <= 1"),
    (dict(cross_edge_fraction=math.nan), "0 <= cross_edge_fraction <= 1"),
    (dict(nodes_per_class=10_001, intra_degree=201),
     "intra_degree <= nodes_per_class // 50 when nodes_per_class > 10000"),
])
def test_bad_arguments_raise_one_line(kwargs, rule):
    with pytest.raises(ValueError) as info:
        make_planted_tag(**kwargs)
    message = str(info.value)
    assert f"needs {rule};" in message
    assert "\n" not in message


def test_limits_themselves_are_accepted():
    graph, _ = make_planted_tag(nodes_per_class=1, intra_degree=1, dim=2,
                                cross_edge_fraction=1.0)
    assert graph.node_count == 3
    graph, _ = make_planted_tag(nodes_per_class=2, intra_degree=0, cross_edge_fraction=0.0)
    assert len(graph.edges) == 0
