"""Group cache-miss work units into batchable execution groups.

The planner decides *what may share a batch*, and nothing else — it never
changes results, because grouping only ever shares work that is provably
identical (the gate structure) while everything sample-relevant (seed, shots,
parameters) stays per unit.  Every cache miss the service sees is planned
into one of two kinds:

* **ideal** — two or more fast-path circuits (no nontrivial noise, final
  measurements only) sharing one :func:`structure_fingerprint`: same gate
  names, qubits, clbits and conditions, parameters free.  The engine evolves
  the whole group on one batch axis and samples each unit with its own
  generator.
* **serial** — one unit on ``Backend.execute_circuit``: a fast-path circuit
  whose structure no other miss shares, noisy circuits (the simulator
  shot-batches their trajectories itself), conditional instructions,
  circuits beyond the dense-width cap (the serial path raises the canonical
  error), and every unit of a backend that overrides ``execute_circuit``
  (its semantics are its own; see :func:`batchable_backend`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.quantum.analysis import CircuitFacts, circuit_facts, structure_fingerprint
from repro.quantum.backend import Backend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.simulator import MAX_DENSE_QUBITS, _compact

__all__ = [
    "IDEAL",
    "SERIAL",
    "PlannedGroup",
    "PlannedUnit",
    "batchable_backend",
    "plan",
    "structure_fingerprint",
]

#: Group kinds: a shared-structure batch, or one unit run serially.
IDEAL = "ideal"
SERIAL = "serial"


@dataclass
class PlannedUnit:
    """One cache-miss work unit; routing annotations are computed on demand,
    so a lone miss, or one on a backend that overrides ``execute_circuit``,
    never pays for them."""

    index: int  #: slot in the submitting batch (result ordering)
    circuit: QuantumCircuit  #: as submitted; the serial path runs this
    key: object | None  #: the service's CacheKey, or None when uncacheable
    seed: int | None
    shots: int

    @cached_property
    def compacted(self) -> QuantumCircuit:
        """``circuit`` with its touched qubits relabelled to 0..k-1."""
        return _compact(self.circuit)

    @cached_property
    def facts(self) -> CircuitFacts:
        """Analyzer facts of the circuit *as submitted* (routing input).

        Not of the compacted form: compaction forgives out-of-range qubit
        references (it relabels them in), which would hide ``QA101`` defects
        from routing, and every predicate the planner reads is invariant
        under qubit relabelling anyway.
        """
        return circuit_facts(self.circuit)


@dataclass
class PlannedGroup:
    """Units that one engine dispatch may execute together."""

    kind: str
    units: list[PlannedUnit]


def batchable_backend(backend: Backend) -> bool:
    """Only the stock ``Backend.execute_circuit`` can be replayed in batch.

    A subclass that overrides the execution primitive (e.g. the QEC
    memory-experiment backend) owns its own semantics; replaying such units
    through the batch engine would silently drop the override, so the planner
    sends them down the serial path instead.
    """
    return type(backend).execute_circuit is Backend.execute_circuit


def plan(backend: Backend, units: list[PlannedUnit]) -> list[PlannedGroup]:
    """Partition miss units into ideal groups and single-unit serial groups.

    Routing reads only each unit's :class:`CircuitFacts` —
    ``repro.quantum.analysis`` is the single source of truth for width and
    fast-path eligibility, so the planner never batches a unit the serial
    engine would not.  A structure shared by only one unit gains nothing
    from the batch axis, so that unit runs serially.

    Group order is deterministic: ideal groups by first appearance of their
    structure, then the serial units in submission order.
    """
    if len(units) < 2 or not batchable_backend(backend):
        return [PlannedGroup(SERIAL, [unit]) for unit in units]
    noise = backend.noise_model
    ideal: dict[str, list[PlannedUnit]] = {}
    serial: list[PlannedUnit] = []
    for unit in units:
        facts = unit.facts
        # Compacted width == touched-qubit count (floor 1 for empty circuits).
        if (
            max(1, len(facts.touched_qubits)) <= MAX_DENSE_QUBITS
            and not facts.structurally_defective
            and facts.is_fast_path(noise)
        ):
            ideal.setdefault(structure_fingerprint(unit.compacted), []).append(unit)
        else:
            serial.append(unit)
    groups = []
    for members in ideal.values():
        if len(members) >= 2:
            groups.append(PlannedGroup(IDEAL, members))
        else:
            serial.extend(members)
    serial.sort(key=lambda unit: unit.index)
    return groups + [PlannedGroup(SERIAL, [unit]) for unit in serial]
