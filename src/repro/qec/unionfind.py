"""Union-find decoder (Delfosse & Nickerson, simplified).

An almost-linear-time alternative to MWPM with slightly worse accuracy —
exactly the trade-off the paper's "topology-agnostic decoder" future-work
discussion cares about.  The implementation follows the standard two phases:

1. **Cluster growth** — clusters seeded at space-time detection events grow by
   half-edges on the space-time decoding graph until every cluster has even
   defect parity or touches the spatial boundary.
2. **Peeling** — within a spanning forest of the grown edges, leaves are
   peeled off; a leaf edge joins the correction iff it is needed to pair up
   defects.

Every step iterates sorted defects, insertion-ordered dicts and a
breadth-first forest, never a set, so the corrections do not depend on
string hashing (``PYTHONHASHSEED``): the boundary node is a string tuple.

Corrections only collect *space* edges (data-qubit faults); time edges
represent measurement errors and need no data correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecodingError
from repro.qec.codes.base import BOUNDARY, CSSCode
from repro.qec.syndrome import SyndromeHistory
from repro.utils.graph import Graph, spanning_forest


#: The space-time graph's boundary node (one for every round).
_BOUNDARY = ("B",)


@dataclass
class UnionFindResult:
    correction: np.ndarray
    num_growth_rounds: int
    cluster_count: int


class _DisjointSet:
    """Union-find with parity and boundary tracking per root."""

    def __init__(self) -> None:
        self.parent: dict = {}
        self.rank: dict = {}
        self.parity: dict = {}
        self.touches_boundary: dict = {}

    def add(self, node, defect: bool, boundary: bool) -> None:
        if node in self.parent:
            return
        self.parent[node] = node
        self.rank[node] = 0
        self.parity[node] = 1 if defect else 0
        self.touches_boundary[node] = boundary

    def find(self, node):
        root = node
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[node] != root:
            self.parent[node], node = root, self.parent[node]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.parity[ra] = (self.parity[ra] + self.parity[rb]) % 2
        self.touches_boundary[ra] = (
            self.touches_boundary[ra] or self.touches_boundary[rb]
        )

    def is_odd(self, node) -> bool:
        root = self.find(node)
        return self.parity[root] == 1 and not self.touches_boundary[root]


class UnionFindDecoder:
    """Union-find decoding of multi-round syndrome histories."""

    def __init__(self, code: CSSCode, error_type: str = "x") -> None:
        self.code = code
        self.error_type = error_type
        self._space_graph = code.matching_graph(error_type)
        #: Space-time graphs by ``rounds``; decoding only reads them.
        self._graphs: dict[int, Graph] = {}

    # -- space-time graph -----------------------------------------------------

    def _graph(self, rounds: int) -> Graph:
        """The space-time graph for ``rounds``, built on first use."""
        graph = self._graphs.get(rounds)
        if graph is None:
            graph = self._graphs[rounds] = self._build_graph(rounds)
        return graph

    def _build_graph(self, rounds: int) -> Graph:
        """Replicate the spatial graph across rounds; add time edges."""
        graph = Graph()
        graph.add_node(_BOUNDARY)
        checks = [n for n in self._space_graph.nodes if n != BOUNDARY]
        for t in range(rounds + 1):
            for c in checks:
                graph.add_node((t, c))
            for a, b, data in self._space_graph.edges(data=True):
                fault = data["fault"]
                if a == BOUNDARY:
                    graph.add_edge((t, b), _BOUNDARY, fault=fault)
                elif b == BOUNDARY:
                    graph.add_edge((t, a), _BOUNDARY, fault=fault)
                else:
                    graph.add_edge((t, a), (t, b), fault=fault)
            if t > 0:
                for c in checks:
                    # Time edges are measurement errors: no data fault.
                    graph.add_edge((t - 1, c), (t, c), fault=None)
        return graph

    # -- decoding -----------------------------------------------------------------

    def decode(self, history_or_events, rounds: int | None = None) -> UnionFindResult:
        """Decode detection events; ``rounds`` required for raw event lists."""
        if isinstance(history_or_events, SyndromeHistory):
            events = history_or_events.detection_events
            rounds = history_or_events.rounds
        else:
            events = list(history_or_events)
            if rounds is None:
                rounds = max((t for t, _ in events), default=0)
        n = self.code.num_data_qubits
        if not events:
            return UnionFindResult(np.zeros(n, dtype=bool), 0, 0)

        graph = self._graph(rounds)
        defects = sorted({(t, c) for t, c in events})
        for node in defects:
            if node not in graph:
                raise DecodingError(f"detection event {node} outside the graph")

        dsu = _DisjointSet()
        dsu.add(_BOUNDARY, defect=False, boundary=True)
        for node in defects:
            dsu.add(node, defect=True, boundary=False)

        growth: dict[tuple, int] = {}  # edge key -> half-edges grown (0..2)
        # Insertion-ordered stand-ins for sets: keys only, values unused.
        in_cluster = dict.fromkeys(defects)
        grown_edges: dict[tuple, None] = {}
        max_rounds = 2 * (graph.number_of_nodes() + 1)
        rounds_used = 0
        while any(dsu.is_odd(node) for node in list(in_cluster)):
            rounds_used += 1
            if rounds_used > max_rounds:
                raise DecodingError("union-find growth failed to converge")
            # Grow all boundary edges of odd clusters by one half-step.
            frontier = []
            for node in list(in_cluster):
                if not dsu.is_odd(node):
                    continue
                for nbr in graph.neighbors(node):
                    key = _edge_key(node, nbr)
                    if growth.get(key, 0) < 2:
                        frontier.append((node, nbr, key))
            for node, nbr, key in frontier:
                growth[key] = growth.get(key, 0) + 1
                if growth[key] >= 2 and key not in grown_edges:
                    grown_edges[key] = None
                    if nbr not in dsu.parent:
                        dsu.add(nbr, defect=False, boundary=nbr == _BOUNDARY)
                    in_cluster[nbr] = None
                    dsu.union(node, nbr)

        correction = self._peel(graph, grown_edges, defects)
        clusters = {dsu.find(n) for n in in_cluster}
        return UnionFindResult(correction, rounds_used, len(clusters))

    # -- peeling ---------------------------------------------------------------------

    def _peel(self, graph: Graph, grown_edges: dict, defects: list) -> np.ndarray:
        """Peel a BFS spanning forest of the grown edges, leaves first.

        The boundary node roots its tree, so it absorbs a leftover defect;
        every other tree holds an even number of defects.  Walking the tree
        edges in reverse visiting order reaches each subtree before its
        parent edge: a marked child flips its edge and passes the mark up.
        """
        correction = np.zeros(self.code.num_data_qubits, dtype=bool)
        erasure = Graph()
        for a, b in grown_edges:
            erasure.add_edge(a, b)
        marked = set(defects)
        for parent, child in reversed(spanning_forest(erasure.adj, [_BOUNDARY])):
            if child in marked:
                fault = graph.edges[parent, child]["fault"]
                if fault is not None:
                    correction[fault] ^= True
                marked ^= {parent, child}
        return correction


def _edge_key(a, b) -> tuple:
    return (a, b) if repr(a) <= repr(b) else (b, a)
