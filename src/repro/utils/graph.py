"""Small undirected graphs over insertion-ordered adjacency dicts.

The transpiler's coupling maps and the QEC decoders need a handful of graph
algorithms: breadth-first search, unweighted shortest paths, a spanning
forest and a grid-embedding test.  They live here,
written against plain adjacency mappings ``{node: {neighbour: attrs}}``
(:attr:`Graph.adj`).

Orders are part of the results.  A shortest path picks the SWAPs a routed
circuit gets and the data qubits a QEC correction flips, and the BFS order
picks a circuit's layout.  So every function visits neighbours in insertion
order and keeps the visiting order of its ``networkx`` counterpart (for
:func:`shortest_path`, the same fringe alternation and early exit as
``networkx``'s bidirectional search).  ``tests/test_graph.py`` checks them
against networkx node for node; networkx itself is a test-only dependency.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping

Adjacency = Mapping[Hashable, Mapping[Hashable, object]]


class NoPath(LookupError):
    """No path joins the two nodes (or one of them is not in the graph)."""


class Graph:
    """An undirected graph without parallel edges.

    ``adj[u][v]`` is the attribute dict of edge ``u``–``v``; both directions
    share one dict.  Nodes and each node's neighbours keep insertion order,
    as in ``networkx.Graph``.
    """

    def __init__(self) -> None:
        self.adj: dict = {}

    def add_node(self, node) -> None:
        self.adj.setdefault(node, {})

    def add_nodes_from(self, nodes: Iterable) -> None:
        for node in nodes:
            self.adj.setdefault(node, {})

    def add_edge(self, u, v, **attrs) -> None:
        nbrs_u = self.adj.setdefault(u, {})
        nbrs_v = self.adj.setdefault(v, {})
        data = nbrs_u.get(v)
        if data is None:
            data = {}
        data.update(attrs)
        nbrs_u[v] = nbrs_v[u] = data

    def remove_node(self, node) -> None:
        for nbr in self.adj.pop(node):
            if nbr != node:
                del self.adj[nbr][node]

    def copy(self) -> "Graph":
        """An independent copy, built the way ``networkx.Graph.copy`` builds
        one: every adjacency entry re-added in node order.  A node's
        neighbours therefore come back as its earlier-node neighbours first,
        so paths on the copy follow networkx's copy, not the original."""
        new = Graph()
        new.add_nodes_from(self.adj)
        for u, nbrs in self.adj.items():
            for v, data in nbrs.items():
                new.add_edge(u, v, **data)
        return new

    @property
    def nodes(self):
        return self.adj.keys()

    @property
    def edges(self) -> "_Edges":
        """``edges()`` / ``edges(data=True)`` iterate each edge once, from its
        earlier endpoint; ``edges[u, v]`` is the edge's attribute dict."""
        return _Edges(self.adj)

    def neighbors(self, node) -> Iterator:
        return iter(self.adj[node])

    def degree(self, node) -> int:
        return len(self.adj[node])

    def has_edge(self, u, v) -> bool:
        return v in self.adj.get(u, ())

    def number_of_nodes(self) -> int:
        return len(self.adj)

    def __contains__(self, node) -> bool:
        return node in self.adj


class _Edges:
    __slots__ = ("_adj",)

    def __init__(self, adj: dict) -> None:
        self._adj = adj

    def __call__(self, data: bool = False) -> Iterator[tuple]:
        done = set()
        for u, nbrs in self._adj.items():
            for v, attrs in nbrs.items():
                if v not in done:
                    yield (u, v, attrs) if data else (u, v)
            done.add(u)

    def __getitem__(self, edge: tuple) -> dict:
        u, v = edge
        return self._adj[u][v]


# -- traversal ------------------------------------------------------------------


def _bfs(adj: Adjacency, source, seen: set) -> Iterator[tuple]:
    """Tree edges ``(parent, child)`` of a BFS from ``source`` over nodes not
    in ``seen``; adds every node it reaches to ``seen``."""
    level = [source]
    while level:
        following = []
        for parent in level:
            for child in adj[parent]:
                if child not in seen:
                    seen.add(child)
                    following.append(child)
                    yield parent, child
        level = following


def bfs_edges(adj: Adjacency, source) -> Iterator[tuple]:
    """Tree edges of a breadth-first search from ``source``, in visiting
    order (``networkx.bfs_edges``)."""
    return _bfs(adj, source, {source})


def spanning_forest(adj: Adjacency, roots: Iterable = ()) -> list[tuple]:
    """BFS spanning forest as tree edges ``(parent, child)`` in visiting order.

    Each tree is rooted at the first of ``roots`` it contains (roots not in
    the graph are skipped), or else at its first node in ``adj``.  A child's
    edge always comes after its parent's, so the reversed list visits every
    subtree before its root.
    """
    seen: set = set()
    forest: list[tuple] = []
    for root in (*roots, *adj):
        if root not in seen and root in adj:
            seen.add(root)
            forest.extend(_bfs(adj, root, seen))
    return forest


def is_connected(adj: Adjacency) -> bool:
    """Whether the graph is non-empty and one piece (its spanning forest is
    a single tree)."""
    return bool(adj) and len(spanning_forest(adj)) == len(adj) - 1


# -- shortest paths -------------------------------------------------------------


def single_source_shortest_path_length(adj: Adjacency, source) -> dict:
    """Hop count from ``source`` to every reachable node, in BFS order."""
    lengths = {source: 0}
    level = [source]
    depth = 0
    while level:
        depth += 1
        following = []
        for v in level:
            for w in adj[v]:
                if w not in lengths:
                    lengths[w] = depth
                    following.append(w)
        level = following
    return lengths


def shortest_path(adj: Adjacency, source, target) -> list:
    """One shortest path from ``source`` to ``target``, node for node the one
    ``networkx.shortest_path`` returns on an unweighted graph.

    A bidirectional BFS: the smaller fringe grows by one level (the forward
    one on ties), scanning neighbours in insertion order, and the search
    stops at the first node both sides have reached.

    Raises:
        NoPath: if a node is missing or the two are not connected.
    """
    for node in (source, target):
        if node not in adj:
            raise NoPath(f"node {node!r} is not in the graph")
    if source == target:
        return [source]
    pred = {source: None}
    succ = {target: None}
    forward, reverse = [source], [target]
    meet = None
    while forward and reverse and meet is None:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            for v in level:
                for w in adj[v]:
                    if w not in pred:
                        forward.append(w)
                        pred[w] = v
                    if w in succ:
                        meet = w
                        break
                if meet is not None:
                    break
        else:
            level, reverse = reverse, []
            for v in level:
                for w in adj[v]:
                    if w not in succ:
                        succ[w] = v
                        reverse.append(w)
                    if w in pred:
                        meet = w
                        break
                if meet is not None:
                    break
    if meet is None:
        raise NoPath(f"no path between {source!r} and {target!r}")
    path = []
    node = meet
    while node is not None:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = succ[meet]
    while node is not None:
        path.append(node)
        node = succ[node]
    return path


# -- grid embedding -------------------------------------------------------------


def embeds_grid(adj: Adjacency, rows: int, cols: int) -> bool:
    """Whether a ``rows x cols`` grid is a (not necessarily induced) subgraph.

    Backtracking over the grid's cells in row-major order: a cell's image
    must be an unused neighbour of its left and upper cells' images, with at
    least the cell's degree.  Exponential in the worst case, so callers keep
    it to small devices (n <= 64).
    """
    cells = rows * cols
    if cells == 0:
        return True
    if cells > len(adj):
        return False
    grid_degree = [
        (r > 0) + (r < rows - 1) + (c > 0) + (c < cols - 1)
        for r in range(rows)
        for c in range(cols)
    ]
    # Counting filter: for every k, the host needs at least as many nodes of
    # degree >= k as the grid has cells of degree >= k.
    host_degrees = sorted((len(nbrs) for nbrs in adj.values()), reverse=True)
    if any(h < g for h, g in zip(host_degrees, sorted(grid_degree, reverse=True))):
        return False
    image: list = [None] * cells
    used: set = set()

    def place(i: int) -> bool:
        if i == cells:
            return True
        r, c = divmod(i, cols)
        left = image[i - 1] if c > 0 else None
        up = image[i - cols] if r > 0 else None
        anchor = left if left is not None else up
        candidates = adj if anchor is None else adj[anchor]
        for node in candidates:
            if (
                node in used
                or len(adj[node]) < grid_degree[i]
                or (left is not None and up is not None and node not in adj[up])
            ):
                continue
            image[i] = node
            used.add(node)
            if place(i + 1):
                return True
            used.discard(node)
        image[i] = None
        return False

    return place(0)
