"""Device topologies: coupling maps and standard lattice constructors.

The QEC agent (paper Section III-A, Agent #3) consumes a
:class:`CouplingMap` to decide whether a surface code can be laid out on the
device, and the transpiler uses it for SWAP routing.  ``heavy_hex`` builds the
IBM Eagle-class lattice used by :class:`repro.quantum.backend.FakeBrisbane`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from types import MappingProxyType

from repro.errors import TranspilerError
from repro.utils import graph


class CouplingMap:
    """An undirected qubit-connectivity graph.

    Two-qubit gates are permitted only between coupled qubits once a circuit
    has been routed.  Construction from an edge list::

        cmap = CouplingMap([(0, 1), (1, 2)])
    """

    def __init__(self, edges: Iterable[tuple[int, int]], name: str = "custom") -> None:
        self.name = name
        self._graph = graph.Graph()
        for a, b in edges:
            if a == b:
                raise TranspilerError(f"self-loop edge ({a}, {b}) in coupling map")
            self._graph.add_edge(int(a), int(b))
        if self._graph.number_of_nodes() == 0:
            raise TranspilerError("coupling map has no edges")
        # Ensure node ids are contiguous 0..n-1.
        nodes = sorted(self._graph.nodes)
        if nodes != list(range(len(nodes))):
            raise TranspilerError(
                "coupling map qubit ids must be contiguous integers from 0"
            )

    # -- properties -----------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def edges(self) -> list[tuple[int, int]]:
        return sorted(tuple(sorted(e)) for e in self._graph.edges())

    @property
    def adjacency(self) -> MappingProxyType:
        """Read-only ``{qubit: {neighbour: {}}}``, qubits and neighbours in
        the order the edges first named them."""
        return MappingProxyType(self._graph.adj)

    def neighbors(self, qubit: int) -> list[int]:
        return sorted(self._graph.neighbors(qubit))

    def degree(self, qubit: int) -> int:
        return self._graph.degree(qubit)

    def are_coupled(self, a: int, b: int) -> bool:
        return self._graph.has_edge(a, b)

    def is_connected(self) -> bool:
        return graph.is_connected(self._graph.adj)

    def distance(self, a: int, b: int) -> int:
        return len(self.shortest_path(a, b)) - 1

    def shortest_path(self, a: int, b: int) -> list[int]:
        try:
            return graph.shortest_path(self._graph.adj, a, b)
        except graph.NoPath as exc:
            raise TranspilerError(f"qubits {a} and {b} are not connected") from exc

    def max_degree(self) -> int:
        return max(len(nbrs) for nbrs in self._graph.adj.values())

    def subgraph_has_grid(self, rows: int, cols: int) -> bool:
        """Check whether a ``rows x cols`` grid embeds as a subgraph.

        Used by the QEC agent to decide if a surface-code patch fits the
        device.  Exact subgraph isomorphism is exponential, so sizes are kept
        small by callers (code distances <= 7).
        """
        if rows * cols > self.num_qubits:
            return False
        return graph.embeds_grid(self._graph.adj, rows, cols)

    def __repr__(self) -> str:
        return (
            f"CouplingMap(name='{self.name}', qubits={self.num_qubits}, "
            f"edges={len(self.edges)})"
        )

    # -- constructors ------------------------------------------------------------

    @classmethod
    def linear(cls, num_qubits: int) -> "CouplingMap":
        if num_qubits < 2:
            raise TranspilerError("linear coupling map needs >= 2 qubits")
        return cls([(i, i + 1) for i in range(num_qubits - 1)], name=f"linear-{num_qubits}")

    @classmethod
    def ring(cls, num_qubits: int) -> "CouplingMap":
        if num_qubits < 3:
            raise TranspilerError("ring coupling map needs >= 3 qubits")
        edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
        return cls(edges, name=f"ring-{num_qubits}")

    @classmethod
    def grid(cls, rows: int, cols: int) -> "CouplingMap":
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise TranspilerError("grid coupling map needs >= 2 qubits")
        edges = []
        for r in range(rows):
            for c in range(cols):
                q = r * cols + c
                if c + 1 < cols:
                    edges.append((q, q + 1))
                if r + 1 < rows:
                    edges.append((q, q + cols))
        return cls(edges, name=f"grid-{rows}x{cols}")

    @classmethod
    def full(cls, num_qubits: int) -> "CouplingMap":
        if num_qubits < 2:
            raise TranspilerError("full coupling map needs >= 2 qubits")
        edges = [
            (i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)
        ]
        return cls(edges, name=f"full-{num_qubits}")

    @classmethod
    def heavy_hex(
        cls, long_rows: int = 7, row_length: int = 15, name: str | None = None
    ) -> "CouplingMap":
        """IBM Eagle-style heavy-hex lattice.

        The lattice alternates *long rows* (horizontal chains of
        ``row_length`` qubits; the first and last rows are one qubit shorter,
        as on the 127-qubit Eagle) with rows of four *connector* qubits that
        bridge vertically.  Connector attachment columns alternate between
        ``0, 4, 8, ...`` and ``2, 6, 10, ...`` on successive connector rows,
        reproducing the heavy-hex unit cell.

        ``heavy_hex(7, 15)`` yields exactly 127 qubits (Brisbane-class).
        """
        if long_rows < 2 or row_length < 5:
            raise TranspilerError("heavy-hex needs >= 2 long rows of >= 5 qubits")
        edges: list[tuple[int, int]] = []
        next_id = 0
        row_ids: list[list[int]] = []
        for r in range(long_rows):
            length = row_length - 1 if r in (0, long_rows - 1) else row_length
            ids = list(range(next_id, next_id + length))
            next_id += length
            row_ids.append(ids)
            edges.extend((ids[i], ids[i + 1]) for i in range(len(ids) - 1))
            if r < long_rows - 1:
                # Connector columns alternate by row parity.
                offset = 0 if r % 2 == 0 else 2
                cols = list(range(offset, row_length, 4))
                connector_ids = list(range(next_id, next_id + len(cols)))
                next_id += len(cols)
                row_ids.append(connector_ids)
                for cid, col in zip(connector_ids, cols):
                    upper = row_ids[-2]
                    upper_col = min(col, len(upper) - 1)
                    edges.append((upper[upper_col], cid))
                # Defer lower attachments until the next long row exists.
        # Second pass: attach connectors downward.
        long_positions = [i for i in range(len(row_ids)) if i % 2 == 0]
        for idx, pos in enumerate(long_positions[:-1]):
            connector = row_ids[pos + 1]
            lower = row_ids[long_positions[idx + 1]]
            offset = 0 if idx % 2 == 0 else 2
            cols = list(range(offset, row_length, 4))
            for cid, col in zip(connector, cols):
                lower_col = min(col, len(lower) - 1)
                edges.append((cid, lower[lower_col]))
        cmap = cls(edges, name=name or f"heavy-hex-{long_rows}x{row_length}")
        return cmap

    @classmethod
    def brisbane(cls) -> "CouplingMap":
        """The 127-qubit Brisbane-class heavy-hex lattice."""
        return cls.heavy_hex(7, 15, name="brisbane")
