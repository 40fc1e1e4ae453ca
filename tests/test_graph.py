"""The in-repo graph module against its oracle, networkx.

Shortest paths feed SWAP routing and QEC corrections, and the BFS order
picks a circuit's layout, so the port must agree with networkx node for
node, not just by length.  Each networkx graph here is built by the same
``add_edge`` calls as its in-repo twin, and the twins' adjacency orders are
checked equal first.
"""

import random

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from repro.qec.codes import SurfaceCode
from repro.qec.codes.base import BOUNDARY
from repro.quantum.topology import CouplingMap
from repro.utils import graph as g


class _RecordingMap(CouplingMap):
    """A coupling map that keeps the edge list it was built from."""

    def __init__(self, edges, name="custom"):
        self.edge_list = [(int(a), int(b)) for a, b in edges]
        super().__init__(self.edge_list, name=name)


def _twins(edges, nodes=()):
    ours, theirs = g.Graph(), nx.Graph()
    ours.add_nodes_from(nodes)
    theirs.add_nodes_from(nodes)
    for a, b in edges:
        ours.add_edge(a, b)
        theirs.add_edge(a, b)
    return ours, theirs


def _coupling_twins(cmap):
    ours, theirs = _twins(cmap.edge_list)
    assert {q: list(n) for q, n in cmap.adjacency.items()} == {
        q: list(n) for q, n in ours.adj.items()
    }
    return cmap, ours, theirs


def _random_edges(rnd, n, extra, connected=True):
    """A random graph on shuffled labels: a random tree plus ``extra`` chords
    (or, when not ``connected``, two separate such pieces)."""
    labels = list(range(n))
    rnd.shuffle(labels)
    pieces = [labels] if connected else [labels[: n // 2], labels[n // 2 :]]
    edges = []
    for piece in pieces:
        for i in range(1, len(piece)):
            edges.append((piece[rnd.randrange(i)], piece[i]))
        for _ in range(extra):
            a, b = rnd.sample(piece, 2)
            edges.append((a, b))
    rnd.shuffle(edges)
    return [(a, b) if rnd.random() < 0.5 else (b, a) for a, b in edges]


def _nx_matching_graph(code, error_type):
    """The matching graph as ``CSSCode.matching_graph`` built it on networkx."""
    checks = code._checks_for(error_type)
    graph = nx.Graph()
    graph.add_node(BOUNDARY)
    graph.add_nodes_from(range(checks.shape[0]))
    for qubit in range(checks.shape[1]):
        touching = np.flatnonzero(checks[:, qubit])
        if len(touching) == 1:
            graph.add_edge(int(touching[0]), BOUNDARY, fault=qubit, weight=1)
        elif len(touching) == 2:
            graph.add_edge(int(touching[0]), int(touching[1]), fault=qubit, weight=1)
    return graph


def _graph_cases():
    cases = {}
    for label, cmap in [
        ("brisbane", _RecordingMap.brisbane()),
        ("grid5x5", _RecordingMap.grid(5, 5)),
        ("ring9", _RecordingMap.ring(9)),
    ]:
        _, ours, theirs = _coupling_twins(cmap)
        cases[label] = (ours, theirs)
    rnd = random.Random(2025)
    for i in range(50):
        n = rnd.randrange(2, 30)
        cases[f"random{i}"] = _twins(_random_edges(rnd, n, rnd.randrange(0, 2 * n)))
    for d in (3, 5, 7):
        code = SurfaceCode(d)
        ours, theirs = code.matching_graph("x"), _nx_matching_graph(code, "x")
        cases[f"surface{d}"] = (ours, theirs)
        spatial_ours, spatial_theirs = ours.copy(), theirs.copy()
        spatial_ours.remove_node(BOUNDARY)
        spatial_theirs.remove_node(BOUNDARY)
        cases[f"surface{d}-spatial"] = (spatial_ours, spatial_theirs)
    return cases


CASES = _graph_cases()
IDS = sorted(CASES)


def _adjacency(graph):
    return [(u, list(nbrs)) for u, nbrs in graph.adj.items()]


@pytest.mark.parametrize("case", IDS)
def test_adjacency_order_matches(case):
    ours, theirs = CASES[case]
    assert _adjacency(ours) == _adjacency(theirs)
    assert list(ours.edges(data=True)) == list(theirs.edges(data=True))


@pytest.mark.parametrize("case", IDS)
def test_shortest_path_node_for_node(case):
    ours, theirs = CASES[case]
    for a in theirs:
        for b in theirs:
            assert g.shortest_path(ours.adj, a, b) == nx.shortest_path(theirs, a, b)


@pytest.mark.parametrize("case", IDS)
def test_bfs_edges_order(case):
    ours, theirs = CASES[case]
    for source in theirs:
        assert list(g.bfs_edges(ours.adj, source)) == list(
            nx.bfs_edges(theirs, source)
        )


@pytest.mark.parametrize("case", IDS)
def test_length_tables(case):
    ours, theirs = CASES[case]
    for source in theirs:
        expected = nx.single_source_shortest_path_length(theirs, source)
        got = g.single_source_shortest_path_length(ours.adj, source)
        assert list(got.items()) == list(expected.items())


def _check_spanning_forest(ours, theirs, roots):
    forest = g.spanning_forest(ours.adj, roots)
    tree = nx.Graph(forest)
    tree.add_nodes_from(theirs)
    assert nx.is_forest(tree)
    assert all(ours.has_edge(a, b) for a, b in forest)
    # One tree per component, over the same members.
    assert {frozenset(c) for c in nx.connected_components(tree)} == {
        frozenset(c) for c in nx.connected_components(theirs)
    }
    reached = set()
    for parent, child in forest:  # a parent is reached before its child
        reached.add(parent)
        assert child not in reached
        reached.add(child)
    assert g.is_connected(ours.adj) == nx.is_connected(theirs)
    return forest


@pytest.mark.parametrize("case", IDS)
def test_spanning_forest_components(case):
    ours, theirs = CASES[case]
    _check_spanning_forest(ours, theirs, ())


def test_spanning_forest_of_disconnected_graphs():
    rnd = random.Random(11)
    for _ in range(30):
        n = rnd.randrange(4, 24)
        ours, theirs = _twins(_random_edges(rnd, n, rnd.randrange(0, n), False))
        ours.add_node("isolated")
        theirs.add_node("isolated")
        root = rnd.choice(list(ours.adj))
        forest = _check_spanning_forest(ours, theirs, [root, "absent"])
        if ours.degree(root):
            assert forest[0][0] == root  # the named root roots its tree
        assert not g.is_connected(ours.adj)


def test_no_path_raises():
    ours, _ = _twins([(0, 1), (2, 3)])
    with pytest.raises(g.NoPath):
        g.shortest_path(ours.adj, 0, 3)
    with pytest.raises(g.NoPath):
        g.shortest_path(ours.adj, 0, 99)
    assert g.shortest_path(ours.adj, 2, 2) == [2]


# -- grid embedding -------------------------------------------------------------


def _grid_hosts():
    hosts = {}
    for rows, cols in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]:
        hosts[f"grid{rows}x{cols}"] = _RecordingMap.grid(rows, cols).edge_list
    rnd = random.Random(5)
    for rows, cols in [(3, 3), (3, 4), (4, 4)]:
        edges = _RecordingMap.grid(rows, cols).edge_list
        for k in rnd.sample(range(len(edges)), 3):
            hosts[f"grid{rows}x{cols}-minus{k}"] = edges[:k] + edges[k + 1 :]
    for n in (4, 6, 9, 12):
        hosts[f"ring{n}"] = _RecordingMap.ring(n).edge_list
    for long_rows, row_length in [(2, 5), (3, 5), (3, 7)]:
        hosts[f"heavyhex{long_rows}x{row_length}"] = _RecordingMap.heavy_hex(
            long_rows, row_length
        ).edge_list
    for i in range(40):
        n = rnd.randrange(4, 13)
        hosts[f"random{i}"] = _random_edges(rnd, n, rnd.randrange(0, 3 * n))
    return hosts


GRID_HOSTS = _grid_hosts()
SHAPES = [(1, 2), (1, 4), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4), (4, 4)]


@pytest.mark.parametrize("host", sorted(GRID_HOSTS))
def test_embeds_grid_matches_graph_matcher(host):
    ours, theirs = _twins(GRID_HOSTS[host])
    for rows, cols in SHAPES:
        if rows * cols > len(theirs):
            continue
        expected = GraphMatcher(
            theirs, nx.grid_2d_graph(rows, cols)
        ).subgraph_is_monomorphic()
        assert g.embeds_grid(ours.adj, rows, cols) == expected, (rows, cols)


def test_subgraph_has_grid_on_coupling_maps():
    assert CouplingMap.grid(4, 4).subgraph_has_grid(3, 4)
    assert CouplingMap.grid(4, 4).subgraph_has_grid(4, 4)
    assert not CouplingMap.grid(4, 4).subgraph_has_grid(2, 9)
    assert not CouplingMap.brisbane().subgraph_has_grid(2, 2)
    assert CouplingMap.brisbane().subgraph_has_grid(1, 30)
