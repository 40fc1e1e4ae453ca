"""MWPM decoder outputs pinned to literals.

The literals were recorded with ``networkx.max_weight_matching`` as the
matcher.  The decoder's own blossom must reproduce them exactly: the same
matched pairs (not just an equally cheap matching), hence the same
corrections and the same logical failure counts.
"""

import numpy as np

from repro.qec.codes.surface import SurfaceCode
from repro.qec.experiments import threshold_sweep
from repro.qec.matching import MWPMDecoder
from repro.qec.syndrome import sample_memory
from repro.quantum.execution import ExecutionService


def test_threshold_sweep_pinned():
    service = ExecutionService(max_workers=2)
    try:
        sweep = threshold_sweep(
            SurfaceCode, [3, 5], [0.03, 0.05], shots=40, seed=0, service=service
        )
    finally:
        service.shutdown()
    assert sweep == {
        3: [(0.03, 0.05), (0.05, 0.075)],
        5: [(0.03, 0.125), (0.05, 0.25)],
    }


def test_decode_pinned_d5():
    code = SurfaceCode(5)
    history = sample_memory(code, 5, 0.05, 0.05, np.random.default_rng(7), "x")
    result = MWPMDecoder(code, "x").decode(history)
    assert result.matched_pairs == [
        ((0, 1), (0, 3)),
        ((0, 7), (1, 7)),
        ((0, 10), (0, 11)),
        ((1, 0), None),
        ((2, 7), (2, 9)),
        ((2, 10), (3, 5)),
        ((2, 11), None),
    ]
    assert result.weight == 10.0
    assert np.flatnonzero(result.correction).tolist() == [0, 6, 14, 16, 19, 24]


def test_decode_pinned_d7_half_time_weight():
    """40 events with half-integer costs: dense ties and the float path."""
    code = SurfaceCode(7)
    history = sample_memory(code, 7, 0.05, 0.05, np.random.default_rng(11), "z")
    result = MWPMDecoder(code, "z", time_weight=0.5).decode(history)
    assert len(history.detection_events) == 40
    assert result.matched_pairs == [
        ((0, 1), (1, 4)),
        ((0, 11), (1, 11)),
        ((0, 17), (1, 17)),
        ((0, 20), (1, 20)),
        ((0, 23), (1, 23)),
        ((1, 3), (3, 3)),
        ((1, 9), None),
        ((1, 13), (2, 13)),
        ((2, 11), (3, 11)),
        ((4, 3), (5, 3)),
        ((4, 5), (5, 8)),
        ((4, 6), (6, 6)),
        ((4, 7), (5, 7)),
        ((4, 10), (6, 10)),
        ((4, 18), (5, 16)),
        ((4, 20), None),
        ((5, 0), (5, 4)),
        ((6, 0), (7, 0)),
        ((6, 1), (7, 1)),
        ((6, 13), (6, 16)),
        ((6, 15), (7, 15)),
    ]
    assert result.weight == 17.0
    assert np.flatnonzero(result.correction).tolist() == [2, 3, 12, 21, 31, 37, 48]
