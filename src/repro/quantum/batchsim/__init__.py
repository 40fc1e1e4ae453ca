"""``repro.quantum.batchsim`` — the vectorised batch statevector engine.

A numpy batch-axis simulator on the
:class:`~repro.quantum.execution.service.ExecutionService`'s one cache-miss
path: every miss is planned, and two or more ideal misses sharing a
compacted gate structure (per-unit seed/shots/parameters distinct) evolve
together as a ``(batch, 2**n)`` state with one stacked matmul per gate.
Every other miss runs serially on ``Backend.execute_circuit``, where noisy
trajectories are shot-batched by the simulator itself.  Results are
bit-identical to the serial engine per ``(seed, circuit, shots, noise)``.

The cooperating pieces:

* :mod:`~repro.quantum.batchsim.state` — the ``(batch, 2**n)`` state
  container over the one gate kernel,
  :func:`repro.quantum.statevector.apply_matrix`;
* :mod:`~repro.quantum.batchsim.planner` — groups miss units by compacted
  gate structure and classifies them ``ideal`` / ``serial``;
* :mod:`~repro.quantum.batchsim.engine` — executes ideal groups (shared
  evolution, per-unit sampling, tiled under a memory cap);
* :mod:`~repro.quantum.batchsim.dispatcher` — the service-facing entry that
  runs one group against a backend.

The service drives all of this transparently: submissions, caching,
single-flight dedup and counters are unchanged, and ``simulations_batched``
/ ``batch_groups`` in ``service.stats()`` report how much work took the
vectorised path.
"""

from repro.quantum.batchsim.dispatcher import dispatch
from repro.quantum.batchsim.engine import MAX_BATCH_AMPLITUDES, execute_group
from repro.quantum.batchsim.planner import (
    IDEAL,
    SERIAL,
    PlannedGroup,
    PlannedUnit,
    batchable_backend,
    plan,
    structure_fingerprint,
)
from repro.quantum.batchsim.state import BatchStatevector, batch_apply_matrix

__all__ = [
    "BatchStatevector",
    "IDEAL",
    "MAX_BATCH_AMPLITUDES",
    "PlannedGroup",
    "PlannedUnit",
    "SERIAL",
    "batch_apply_matrix",
    "batchable_backend",
    "dispatch",
    "execute_group",
    "plan",
    "structure_fingerprint",
]
