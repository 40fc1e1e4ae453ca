"""Group cache-miss work units into batchable execution groups.

The planner decides *what may share a batch*, and nothing else — it never
changes results, because grouping only ever shares work that is provably
identical (the gate structure) while everything sample-relevant (seed, shots,
parameters) stays per unit.  A unit takes a batch kind only where
``simulate_counts`` would take the corresponding path on the compacted
circuit:

* **ideal** — fast-path circuits (no nontrivial noise, final measurements
  only), grouped by :func:`structure_fingerprint`: same gate names, qubits,
  clbits and conditions, parameters free.  The engine evolves the whole group
  on one batch axis and samples each unit with its own generator.
* **shots** — trajectory-path circuits without conditionals
  (:attr:`~repro.quantum.analysis.CircuitFacts.trajectory_eligible`).  Each
  unit is its own group; the batch axis runs across its shots.
* **serial** — everything else: conditional instructions, circuits beyond
  the dense-width cap (the serial path raises the canonical error per unit),
  and any backend that overrides ``execute_circuit`` (its semantics are its
  own; see :func:`batchable_backend`).  A serial unit still runs the
  simulator's own path choice, so a conditional circuit whose gates draw
  nothing is shot-batched there.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.quantum.analysis import CircuitFacts, circuit_facts, structure_fingerprint
from repro.quantum.backend import Backend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.simulator import MAX_DENSE_QUBITS, _compact

__all__ = [
    "IDEAL",
    "SERIAL",
    "SHOTS",
    "PlannedGroup",
    "PlannedUnit",
    "batchable_backend",
    "make_unit",
    "plan",
    "structure_fingerprint",
]

#: Group kinds, in dispatch-preference order.
IDEAL = "ideal"
SHOTS = "shots"
SERIAL = "serial"


@dataclass
class PlannedUnit:
    """One cache-miss work unit, annotated for batch execution."""

    index: int  #: slot in the submitting batch (result ordering)
    circuit: QuantumCircuit  #: as submitted; the serial fallback runs this
    compacted: QuantumCircuit  #: touched qubits relabelled to 0..k-1
    key: object | None  #: the service's CacheKey, or None when uncacheable
    seed: int | None
    shots: int
    facts: CircuitFacts  #: analyzer facts of ``circuit`` (routing input)


@dataclass
class PlannedGroup:
    """Units that one engine dispatch may execute together."""

    kind: str
    units: list[PlannedUnit]


def make_unit(
    index: int,
    circuit: QuantumCircuit,
    key: object | None,
    seed: int | None,
    shots: int,
) -> PlannedUnit:
    """Annotate one miss with its compacted circuit and analyzer facts.

    Facts are computed on the circuit *as submitted*, not the compacted form:
    compaction forgives out-of-range qubit references (it relabels them in),
    which would hide ``QA101`` defects from routing, and every predicate the
    planner reads is invariant under qubit relabelling anyway.
    """
    return PlannedUnit(
        index, circuit, _compact(circuit), key, seed, shots, circuit_facts(circuit)
    )


def batchable_backend(backend: Backend) -> bool:
    """Only the stock ``Backend.execute_circuit`` can be replayed in batch.

    A subclass that overrides the execution primitive (e.g. the QEC
    memory-experiment backend) owns its own semantics; replaying such units
    through the batch engine would silently drop the override, so the planner
    sends them down the serial path instead.
    """
    return type(backend).execute_circuit is Backend.execute_circuit


def plan(backend: Backend, units: list[PlannedUnit]) -> list[PlannedGroup]:
    """Partition miss units into batchable groups plus one serial fallback.

    Routing reads only each unit's :class:`CircuitFacts` —
    ``repro.quantum.analysis`` is the single source of truth for width,
    fast-path eligibility and trajectory-batchability, so the planner never
    batches a unit the serial engine would not.

    Group order is deterministic (first appearance of each structure), and
    the serial group, when present, comes last.
    """
    if not units:
        return []
    if not batchable_backend(backend):
        return [PlannedGroup(SERIAL, list(units))]
    noise = backend.noise_model
    ideal: dict[str, PlannedGroup] = {}
    groups: list[PlannedGroup] = []
    serial: list[PlannedUnit] = []
    for unit in units:
        facts = unit.facts
        # Compacted width == touched-qubit count (floor 1 for empty circuits).
        if max(1, len(facts.touched_qubits)) > MAX_DENSE_QUBITS:
            serial.append(unit)  # serial path raises the canonical error
        elif facts.structurally_defective:
            serial.append(unit)  # serial path raises the canonical error
        elif facts.is_fast_path(noise):
            fingerprint = structure_fingerprint(unit.compacted)
            group = ideal.get(fingerprint)
            if group is None:
                group = ideal[fingerprint] = PlannedGroup(IDEAL, [])
                groups.append(group)
            group.units.append(unit)
        elif facts.trajectory_eligible:
            groups.append(PlannedGroup(SHOTS, [unit]))
        else:
            serial.append(unit)
    if serial:
        groups.append(PlannedGroup(SERIAL, serial))
    return groups
