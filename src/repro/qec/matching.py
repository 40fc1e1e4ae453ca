"""Minimum-weight perfect matching (MWPM) decoder.

The workhorse surface-code decoder (paper Fig. 2c: "we pass multiple faulty
syndromes into the decoder to get the required set of corrections").
Detection events from a multi-round syndrome history are matched pairwise —
or to the spatial boundary — with cost equal to their space-time separation;
the corrections are the data qubits along the spatial part of each matched
path.

Matching runs on a graph over the events plus one *boundary twin* per event:
event–event edges cost the space-time distance, each event–twin edge costs
the event's distance to the boundary, and twins interconnect at zero cost.
A minimum-cost perfect matching of that graph is the standard exact
reduction of boundary matching.  It is found as a maximum-weight
maximum-cardinality matching with weights ``10_000 - cost`` by the in-repo
blossom algorithm (:mod:`repro.qec.blossom`), which breaks ties exactly as
``networkx.max_weight_matching`` does, so the pairs, and with them every
correction, are the same as networkx would give.

Spatial distances and correction paths depend only on the code, so the
decoder computes the distance tables once and memoises each path's faults
the first time a matching uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.errors import DecodingError
from repro.qec.blossom import max_weight_matching
from repro.qec.codes.base import BOUNDARY, CSSCode
from repro.qec.syndrome import DetectionEvent, SyndromeHistory


@dataclass
class MatchingResult:
    """Decoder output.

    Attributes:
        correction: bool vector over data qubits (which to flip back).
        matched_pairs: list of (event, event-or-None) — None means matched
            to the boundary.
        weight: total matching cost (space + time edges).
    """

    correction: np.ndarray
    matched_pairs: list[tuple[DetectionEvent, DetectionEvent | None]]
    weight: float


class MWPMDecoder:
    """MWPM over the space-time decoding graph of one error type."""

    def __init__(
        self, code: CSSCode, error_type: str = "x", time_weight: float = 1.0
    ) -> None:
        self.code = code
        self.error_type = error_type
        self.time_weight = float(time_weight)
        self._graph = code.matching_graph(error_type)
        self._spatial = self._graph.copy()
        self._spatial.remove_node(BOUNDARY)
        # Spatial distance between every pair of checks, and from each check
        # to the boundary; ``inf`` where no path exists.
        num_checks = self._spatial.number_of_nodes()
        self._dist = [[math.inf] * num_checks for _ in range(num_checks)]
        for c1, lengths in nx.all_pairs_shortest_path_length(self._spatial):
            for c2, length in lengths.items():
                self._dist[c1][c2] = length
        self._boundary_dist = [math.inf] * num_checks
        for node, length in nx.single_source_shortest_path_length(
            self._graph, BOUNDARY
        ).items():
            if node != BOUNDARY:
                self._boundary_dist[node] = float(length)
        # Correction paths, memoised: (c1, c2) or c1 -> (faults, cost).
        self._pair_paths: dict[tuple[int, int], tuple[tuple[int, ...], float]] = {}
        self._boundary_paths: dict[int, tuple[tuple[int, ...], float]] = {}

    # -- decoding -------------------------------------------------------------------

    def decode(self, history_or_events) -> MatchingResult:
        """Decode a :class:`SyndromeHistory` or a raw event list."""
        events = (
            history_or_events.detection_events
            if isinstance(history_or_events, SyndromeHistory)
            else list(history_or_events)
        )
        n = self.code.num_data_qubits
        if not events:
            return MatchingResult(np.zeros(n, dtype=bool), [], 0.0)

        pairs = self._match(events)
        correction = np.zeros(n, dtype=bool)
        total = 0.0
        for event, partner in pairs:
            if partner is None:
                path_faults, cost = self._path_to_boundary(event[1])
            else:
                path_faults, cost = self._path_between(event[1], partner[1])
                cost += self.time_weight * abs(event[0] - partner[0])
            for fault in path_faults:
                correction[fault] ^= True
            total += cost
        return MatchingResult(correction, pairs, total)

    def _match(
        self, events: list[DetectionEvent]
    ) -> list[tuple[DetectionEvent, DetectionEvent | None]]:
        num_checks = len(self._boundary_dist)
        for _, check in events:
            if not 0 <= check < num_checks:
                raise DecodingError(
                    f"{self.code.name}: detection event on check {check} "
                    "outside the matching graph"
                )
        k = len(events)
        dist = self._dist
        time_weight = self.time_weight
        # Event nodes 0..k-1; boundary twins k..2k-1.  The edge order fixes
        # the blossom algorithm's scan order, hence its tie-breaks.
        big = 10_000.0
        edges: list[tuple[int, int, float]] = []
        for i in range(k):
            t1, c1 = events[i]
            row = dist[c1]
            for j in range(i + 1, k):
                t2, c2 = events[j]
                d = row[c2] + time_weight * abs(t1 - t2)
                if math.isfinite(d):
                    edges.append((i, j, big - d))
                edges.append((k + i, k + j, big - 0.0))  # twin-twin edges are free
            bdist = self._boundary_dist[c1]
            if math.isfinite(bdist):
                edges.append((i, k + i, big - bdist))
        mate = max_weight_matching(2 * k, edges)
        if any(mate[i] is None for i in range(k)):
            raise DecodingError(
                f"{self.code.name}: matching left a detection event unpaired"
            )
        pairs: list[tuple[DetectionEvent, DetectionEvent | None]] = []
        seen: set[int] = set()
        for i in range(k):
            if i in seen:
                continue
            j = mate[i]
            seen.add(i)
            if j < k:
                seen.add(j)
                pairs.append((events[i], events[j]))
            else:
                pairs.append((events[i], None))
        return pairs

    # -- correction paths ---------------------------------------------------------

    def _path_between(self, c1: int, c2: int) -> tuple[tuple[int, ...], float]:
        if c1 == c2:
            return (), 0.0
        cached = self._pair_paths.get((c1, c2))
        if cached is None:
            path = nx.shortest_path(self._spatial, c1, c2)
            cached = self._pair_paths[c1, c2] = self._faults_and_length(path)
        return cached

    def _path_to_boundary(self, check: int) -> tuple[tuple[int, ...], float]:
        cached = self._boundary_paths.get(check)
        if cached is None:
            path = nx.shortest_path(self._graph, check, BOUNDARY)
            cached = self._boundary_paths[check] = self._faults_and_length(path)
        return cached

    def _faults_and_length(self, path: list) -> tuple[tuple[int, ...], float]:
        faults = tuple(
            self._graph.edges[a, b]["fault"] for a, b in zip(path, path[1:])
        )
        return faults, float(len(path) - 1)
