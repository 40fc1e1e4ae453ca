"""The in-repo blossom against its oracle, ``networkx.max_weight_matching``.

The MWPM decoder's results were defined by networkx's matcher, so the port
must return the same *matching* — the same edge set, not merely one of
equal weight — on every graph: the graphs the decoder builds, and random
graphs whose many equal-weight optima exercise each tie-break.
"""

import random

import networkx as nx
import numpy as np
import pytest

from repro.qec import matching
from repro.qec.blossom import max_weight_matching
from repro.qec.codes.repetition import RepetitionCode
from repro.qec.codes.surface import SurfaceCode
from repro.qec.matching import MWPMDecoder
from repro.qec.syndrome import sample_memory


def networkx_matching(edges):
    graph = nx.Graph()
    for u, v, weight in edges:
        graph.add_edge(u, v, weight=weight)
    return {
        frozenset(edge)
        for edge in nx.max_weight_matching(graph, maxcardinality=True)
    }


def port_matching(num_vertices, edges):
    mate = max_weight_matching(num_vertices, edges)
    assert len(mate) == num_vertices
    for v, partner in enumerate(mate):
        if partner is not None:
            assert mate[partner] == v
    return {
        frozenset((v, partner))
        for v, partner in enumerate(mate)
        if partner is not None
    }


def assert_same_matching(num_vertices, edges):
    assert port_matching(num_vertices, edges) == networkx_matching(edges)


# -- graphs the decoder builds ----------------------------------------------------

DECODER_CASES = [
    (SurfaceCode, 3, "x", 8),
    (SurfaceCode, 3, "z", 8),
    (SurfaceCode, 5, "x", 4),
    (SurfaceCode, 5, "z", 4),
    (SurfaceCode, 7, "x", 3),
    (SurfaceCode, 7, "z", 3),
    (RepetitionCode, 5, "x", 8),
    (RepetitionCode, 9, "x", 4),
]


@pytest.mark.parametrize("time_weight", [1.0, 0.5])
@pytest.mark.parametrize(
    "code_factory,distance,error_type,shots",
    DECODER_CASES,
    ids=[f"{f.__name__}{d}-{e}" for f, d, e, _ in DECODER_CASES],
)
def test_decoder_graphs(
    monkeypatch, code_factory, distance, error_type, shots, time_weight
):
    graphs = []

    def recording(num_vertices, edges):
        graphs.append((num_vertices, list(edges)))
        return max_weight_matching(num_vertices, edges)

    monkeypatch.setattr(matching, "max_weight_matching", recording)
    code = code_factory(distance)
    decoder = MWPMDecoder(code, error_type, time_weight=time_weight)
    for p in (0.02, 0.04, 0.06):
        for shot in range(shots):
            rng = np.random.default_rng([distance, shot, int(p * 100)])
            history = sample_memory(code, distance, p, p, rng, error_type)
            decoder.decode(history)
    assert graphs
    for num_vertices, edges in graphs:
        assert_same_matching(num_vertices, edges)


# -- random graphs ------------------------------------------------------------------


def random_graph(rnd, num_vertices, density, weight):
    """Edges in shuffled order and orientation, so the scan order is too."""
    edges = []
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if rnd.random() < density:
                edges.append((u, v) if rnd.random() < 0.5 else (v, u))
    rnd.shuffle(edges)
    return [(u, v, weight(rnd)) for u, v in edges]


WEIGHTS = {
    "ties": lambda rnd: rnd.randint(0, 3),
    "signed-ties": lambda rnd: rnd.randint(-2, 4),
    "halves": lambda rnd: rnd.randint(0, 8) / 2.0,
    "floats": lambda rnd: rnd.uniform(-1.0, 5.0),
}


@pytest.mark.parametrize("kind", sorted(WEIGHTS))
@pytest.mark.parametrize("block", range(4))
def test_random_graphs(kind, block):
    rnd = random.Random(f"{kind}-{block}")
    for _ in range(150):
        num_vertices = rnd.randint(1, 17)
        density = rnd.choice([0.2, 0.5, 0.8, 1.0])
        edges = random_graph(rnd, num_vertices, density, WEIGHTS[kind])
        assert_same_matching(num_vertices, edges)


def test_all_equal_weights():
    """Every perfect matching is optimal: only the tie-breaks decide."""
    for num_vertices in range(2, 13):
        rnd = random.Random(num_vertices)
        edges = random_graph(rnd, num_vertices, 1.0, lambda rnd: 1.0)
        assert_same_matching(num_vertices, edges)


def test_no_edges():
    assert max_weight_matching(3, []) == [None, None, None]


def test_vertices_outside_edges_stay_single():
    assert max_weight_matching(4, [(2, 1, 5.0)]) == [None, 2, 1, None]
