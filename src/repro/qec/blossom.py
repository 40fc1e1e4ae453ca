"""Maximum-weight maximum-cardinality matching (Edmonds' blossom algorithm).

A port of Joris van Rantwijk's primal-dual blossom algorithm as networkx
ships it in ``networkx.max_weight_matching``, specialised to
``maxcardinality=True`` and run over plain Python lists instead of a graph
object: vertices are the integers ``0..n-1``, non-trivial blossoms take ids
``n..2n-1`` from a free list, and every per-vertex or per-blossom map of the
original becomes a list indexed by that id.  The MWPM decoder calls it once
per shot, where the original's per-edge ``G[v][w].get("weight")`` lookups in
``slack()`` dominated the whole memory experiment.

The port keeps every tie-break of the original, so for the same graph it
returns the same matching, edge for edge:

* vertices are scanned in the order they first appear in ``edges`` (the
  node order of an ``nx.Graph`` built by ``add_edge`` over the same list),
  and each vertex's neighbours in edge order;
* the S-vertex queue is LIFO, every least-slack/least-delta comparison is a
  strict ``<``, and top-level blossoms are visited in creation order;
* delta3 always halves with ``/ 2.0`` -- networkx's float-weight branch.
  With integer weights networkx divides exactly (``// 2`` of an even
  slack), which gives the same values, so the matching is still the same.

``tests/qec/test_blossom.py`` checks the port against networkx itself.

The original is distributed under the 3-clause BSD license:

   Copyright (c) 2004-2025, NetworkX Developers
   Aric Hagberg <hagberg@lanl.gov>
   Dan Schult <dschult@colgate.edu>
   Pieter Swart <swart@lanl.gov>
   All rights reserved.

   Redistribution and use in source and binary forms, with or without
   modification, are permitted provided that the following conditions are
   met:

     * Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

     * Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

     * Neither the name of the NetworkX Developers nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations


def max_weight_matching(
    num_vertices: int, edges: list[tuple[int, int, float]]
) -> list[int | None]:
    """Maximum-weight matching among the maximum-cardinality matchings.

    ``edges`` lists ``(u, v, weight)`` with ``u != v`` and each vertex pair
    at most once; the graph is the one ``nx.Graph().add_edge`` would build
    from the same list in the same order.  Returns ``mate`` with
    ``mate[v]`` the partner of ``v``, or ``None`` when ``v`` is single (or
    appears in no edge).
    """
    n = num_vertices
    # Vertex scan order, neighbour lists and 2*weight table (doubling a
    # float is exact, so slack() is bit-identical to 2 * weight on the fly).
    gnodes: list[int] = []
    neighbours: list[list[int]] = [[] for _ in range(n)]
    twice: list[list[float]] = [[0.0] * n for _ in range(n)]
    maxweight = 0
    for u, v, wt in edges:
        if not neighbours[u]:
            gnodes.append(u)
        if not neighbours[v]:
            gnodes.append(v)
        neighbours[u].append(v)
        neighbours[v].append(u)
        twice[u][v] = twice[v][u] = 2 * wt
        if wt > maxweight:
            maxweight = wt

    mate: list[int | None] = [None] * n
    if not gnodes:
        return mate

    # Ids 0..n-1 are vertices (trivial blossoms), n..2n-1 non-trivial
    # blossoms.  label: 0 free, 1 S, 2 T, 5 breadcrumb (scanBlossom).
    label = [0] * (2 * n)
    labeledge: list[tuple[int, int] | None] = [None] * (2 * n)
    inblossom = list(range(n))
    blossomparent: list[int | None] = [None] * (2 * n)
    blossombase: list[int | None] = list(range(n)) + [None] * n
    blossomchilds: list[list[int] | None] = [None] * (2 * n)
    blossomedges: list[list[tuple[int, int]] | None] = [None] * (2 * n)
    mybestedges: list[list[tuple[int, int]] | None] = [None] * (2 * n)
    bestedge: list[tuple[int, int] | None] = [None] * (2 * n)
    dualvar = [maxweight] * n
    # z(b) of each live non-trivial blossom; a dict so that iteration runs
    # in creation order, as networkx's does.
    blossomdual: dict[int, float] = {}
    unusedblossoms = list(range(2 * n - 1, n - 1, -1))
    allowedge: set[tuple[int, int]] = set()
    queue: list[int] = []

    def slack(v, w):
        return dualvar[v] + dualvar[w] - twice[v][w]

    def leaves(b):
        # Depth-first, last child first: networkx's Blossom.leaves().
        stack = list(blossomchilds[b])
        out = []
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(blossomchilds[t])
            else:
                out.append(t)
        return out

    def assignLabel(w, t, v):
        while True:
            b = inblossom[w]
            label[w] = label[b] = t
            labeledge[w] = labeledge[b] = None if v is None else (v, w)
            bestedge[w] = bestedge[b] = None
            if t == 1:
                if b >= n:
                    queue.extend(leaves(b))
                else:
                    queue.append(b)
                return
            # T-blossom: label its base's mate S.
            base = blossombase[b]
            w, t, v = mate[base], 1, base

    def scanBlossom(v, w):
        # Trace back from v and w, placing breadcrumbs; return the base of
        # a new blossom, or None if the paths meet no common blossom.
        path = []
        base = None
        while v is not None:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                v = None
            else:
                v = labeledge[b][0]
                b = inblossom[v]
                v = labeledge[b][0]
            if w is not None:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def addBlossom(base, v, w):
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = None
        blossomparent[bb] = b
        blossomchilds[b] = path = []
        blossomedges[b] = edgs = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            w = labeledge[bw][0]
            bw = inblossom[w]
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        # Least-slack edges from b to each neighbouring S-blossom, keyed in
        # first-seen order.
        bestedgeto: dict[int, tuple[int, int]] = {}
        for bv in path:
            if bv >= n:
                if mybestedges[bv] is not None:
                    nblist = mybestedges[bv]
                    mybestedges[bv] = None
                else:
                    nblist = [(v, w) for v in leaves(bv) for w in neighbours[v]]
            else:
                nblist = [(bv, w) for w in neighbours[bv]]
            for k in nblist:
                (i, j) = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label[bj] == 1
                    and (
                        (bj not in bestedgeto)
                        or slack(i, j) < slack(*bestedgeto[bj])
                    )
                ):
                    bestedgeto[bj] = k
            bestedge[bv] = None
        mybestedges[b] = list(bestedgeto.values())
        mybestedge = None
        for k in mybestedges[b]:
            kslack = slack(*k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    def expandBlossom(b, endstage):
        # Recursion flattened into a stack of generators, as in networkx.
        def _recurse(b, endstage):
            for s in blossomchilds[b]:
                blossomparent[s] = None
                if s >= n:
                    if endstage and blossomdual[s] == 0:
                        yield s
                    else:
                        for v in leaves(s):
                            inblossom[v] = s
                else:
                    inblossom[s] = s
            if (not endstage) and label[b] == 2:
                # Relabel the sub-blossoms of an expanding T-blossom, from
                # the one it was entered through round to the base.
                childs = blossomchilds[b]
                edges_b = blossomedges[b]
                entrychild = inblossom[labeledge[b][1]]
                j = childs.index(entrychild)
                if j & 1:
                    j -= len(childs)
                    jstep = 1
                else:
                    jstep = -1
                v, w = labeledge[b]
                while j != 0:
                    if jstep == 1:
                        p, q = edges_b[j]
                    else:
                        q, p = edges_b[j - 1]
                    label[w] = 0
                    label[q] = 0
                    assignLabel(w, 2, v)
                    allowedge.add((p, q))
                    allowedge.add((q, p))
                    j += jstep
                    if jstep == 1:
                        v, w = edges_b[j]
                    else:
                        w, v = edges_b[j - 1]
                    allowedge.add((v, w))
                    allowedge.add((w, v))
                    j += jstep
                bw = childs[j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                j += jstep
                while childs[j] != entrychild:
                    bv = childs[j]
                    if label[bv] == 1:
                        j += jstep
                        continue
                    if bv >= n:
                        for v in leaves(bv):
                            if label[v]:
                                break
                    else:
                        v = bv
                    if label[v]:
                        label[v] = 0
                        label[mate[blossombase[bv]]] = 0
                        assignLabel(v, 2, labeledge[v][0])
                    j += jstep
            label[b] = 0
            labeledge[b] = None
            bestedge[b] = None
            blossomparent[b] = None
            blossombase[b] = None
            blossomchilds[b] = None
            blossomedges[b] = None
            mybestedges[b] = None
            del blossomdual[b]
            unusedblossoms.append(b)

        stack = [_recurse(b, endstage)]
        while stack:
            top = stack[-1]
            for s in top:
                stack.append(_recurse(s, endstage))
                break
            else:
                stack.pop()

    def augmentBlossom(b, v):
        # Swap matched/unmatched edges along the alternating path through
        # blossom b from vertex v to its base; recursion flattened likewise.
        def _recurse(b, v):
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            if t >= n:
                yield (t, v)
            childs = blossomchilds[b]
            edges_b = blossomedges[b]
            i = j = childs.index(t)
            if i & 1:
                j -= len(childs)
                jstep = 1
            else:
                jstep = -1
            while j != 0:
                j += jstep
                t = childs[j]
                if jstep == 1:
                    w, x = edges_b[j]
                else:
                    x, w = edges_b[j - 1]
                if t >= n:
                    yield (t, w)
                j += jstep
                t = childs[j]
                if t >= n:
                    yield (t, x)
                mate[w] = x
                mate[x] = w
            blossomchilds[b] = childs[i:] + childs[:i]
            blossomedges[b] = edges_b[i:] + edges_b[:i]
            blossombase[b] = blossombase[blossomchilds[b][0]]

        stack = [_recurse(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(_recurse(*args))
                break
            else:
                stack.pop()

    def augmentMatching(v, w):
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augmentBlossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                s, j = labeledge[bt]
                if bt >= n:
                    augmentBlossom(bt, j)
                mate[j] = s

    while True:
        # A stage: find one augmenting path.
        label[:] = [0] * (2 * n)
        labeledge[:] = [None] * (2 * n)
        bestedge[:] = [None] * (2 * n)
        for b in blossomdual:
            mybestedges[b] = None
        allowedge.clear()
        queue.clear()
        for v in gnodes:
            if mate[v] is None and label[inblossom[v]] == 0:
                assignLabel(v, 1, None)

        augmented = False
        while True:
            # A substage: grow the alternating forest from the queue.
            while queue and not augmented:
                v = queue.pop()
                # Duals stay fixed while v's edges are scanned.
                dualv = dualvar[v]
                twicev = twice[v]
                for w in neighbours[v]:
                    bv = inblossom[v]
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    if (v, w) in allowedge:
                        allowed = True
                    else:
                        kslack = dualv + dualvar[w] - twicev[w]
                        allowed = kslack <= 0
                        if allowed:
                            allowedge.add((v, w))
                            allowedge.add((w, v))
                    if allowed:
                        if label[bw] == 0:
                            assignLabel(w, 2, v)
                        elif label[bw] == 1:
                            base = scanBlossom(v, w)
                            if base is not None:
                                addBlossom(base, v, w)
                            else:
                                augmentMatching(v, w)
                                augmented = True
                                break
                        elif label[w] == 0:
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label[bw] == 1:
                        if bestedge[bv] is None or kslack < slack(*bestedge[bv]):
                            bestedge[bv] = (v, w)
                    elif label[w] == 0:
                        if bestedge[w] is None or kslack < slack(*bestedge[w]):
                            bestedge[w] = (v, w)

            if augmented:
                break

            # No augmenting path under the current duals: find the least
            # delta (duals and slacks are pre-multiplied by two).
            deltatype = -1
            delta = deltaedge = deltablossom = None

            # delta2: least slack from an S-vertex to a free vertex.
            for v in gnodes:
                if label[inblossom[v]] == 0 and bestedge[v] is not None:
                    d = slack(*bestedge[v])
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]

            # delta3: half the least slack between two S-blossoms; vertices
            # first, then blossoms, as networkx iterates blossomparent.
            for b in (*gnodes, *blossomdual):
                if (
                    blossomparent[b] is None
                    and label[b] == 1
                    and bestedge[b] is not None
                ):
                    d = slack(*bestedge[b]) / 2.0
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]

            # delta4: least z of a top-level T-blossom.
            for b in blossomdual:
                if (
                    blossomparent[b] is None
                    and label[b] == 2
                    and (deltatype == -1 or blossomdual[b] < delta)
                ):
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b

            if deltatype == -1:
                # Maximum cardinality reached.  networkx makes one last
                # dual update here only so its optimum can be verified;
                # the matching is final.
                break

            for v in gnodes:
                vlabel = label[inblossom[v]]
                if vlabel == 1:
                    dualvar[v] -= delta
                elif vlabel == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta

            if deltatype == 4:
                expandBlossom(deltablossom, False)
            else:
                # delta2/delta3: the least-slack edge is now tight.
                (v, w) = deltaedge
                allowedge.add((v, w))
                allowedge.add((w, v))
                queue.append(v)

        if not augmented:
            break

        # End of a stage: expand every top-level S-blossom with zero dual.
        for b in list(blossomdual):
            if b not in blossomdual:
                continue
            if blossomparent[b] is None and label[b] == 1 and blossomdual[b] == 0:
                expandBlossom(b, True)

    return mate
