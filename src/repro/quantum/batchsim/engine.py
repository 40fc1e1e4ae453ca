"""Execute planned ideal groups on the batch axis, bit-identical to serial.

Units sharing one gate structure evolve together: one |0...0> row per
*distinct* circuit (units differing only in seed share a row outright), every
gate applied across the whole batch with one stacked matmul,
parameter-divergent positions gathered into per-parameter sub-batches.
Sampling then runs per unit with its own generator, so counts are
bit-identical to ``Backend.execute_circuit`` per ``(seed, circuit)``.
Noisy units never come here: the simulator shot-batches their trajectories
on its own serial path.

Groups stay bounded by tiling the batch axis so no tile holds more
than :data:`MAX_BATCH_AMPLITUDES` amplitudes; rows are independent, so
tiling cannot affect results.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.quantum.batchsim.planner import IDEAL, PlannedGroup, PlannedUnit
from repro.quantum.batchsim.state import BatchStatevector
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.simulator import sample_from_state, tally_counts
from repro.quantum.statevector import Statevector

#: Cap on amplitudes held by one batch tile; 2**21 complex128 = 32 MiB.
MAX_BATCH_AMPLITUDES = 2**21


def _tiles(count: int, num_qubits: int):
    """Yield ``(start, stop)`` batch-row ranges under the memory cap."""
    per_tile = max(1, MAX_BATCH_AMPLITUDES // 2**num_qubits)
    for start in range(0, count, per_tile):
        yield start, min(start + per_tile, count)


def execute_group(
    noise: NoiseModel | None, group: PlannedGroup, memory: bool
) -> list[tuple[dict[str, int], list[str] | None]]:
    """Run one ideal group; results align with ``group.units`` order.

    ``noise`` is the backend's model, trivial for every ideal group; it stays
    the first argument so span hooks find the group second.
    """
    if group.kind == IDEAL:
        return _execute_ideal(group.units, memory)
    raise SimulationError(
        f"group kind {group.kind!r} is not executable by the batch engine"
    )


# -- ideal fast path -----------------------------------------------------------------


def _execute_ideal(
    units: list[PlannedUnit], memory: bool
) -> list[tuple[dict[str, int], list[str] | None]]:
    # Within one structure group, circuits differ only in their parameter
    # streams — so the parameter stream is the full identity of a row, and
    # units sharing it (a sweep re-run under many seeds) share one evolution.
    row_of: dict[tuple, int] = {}
    distinct: list[QuantumCircuit] = []
    row_keys: list[tuple] = []
    for unit in units:
        params_stream = tuple(inst.params for inst in unit.compacted)
        if params_stream not in row_of:
            row_of[params_stream] = len(distinct)
            distinct.append(unit.compacted)
        row_keys.append(params_stream)
    states = _evolve_rows(distinct)
    results = []
    for unit, params_stream in zip(units, row_keys):
        rng = np.random.default_rng(unit.seed)
        outcomes = sample_from_state(
            states[row_of[params_stream]],
            unit.compacted.measured_qubit_to_clbit(),
            unit.compacted.num_clbits,
            unit.shots,
            rng,
        )
        results.append(tally_counts(outcomes, memory))
    return results


def _evolve_rows(circuits: list[QuantumCircuit]) -> list[Statevector]:
    """Evolve |0...0> through structurally identical circuits in one batch.

    Mirrors ``Statevector.from_circuit(circuit.remove_all_measurements())``
    instruction for instruction, including the final constructor wrap (and
    its normalisation handling), so each returned state equals its serial
    twin exactly.
    """
    stripped = [circuit.remove_all_measurements() for circuit in circuits]
    num_qubits = stripped[0].num_qubits
    states: list[Statevector | None] = [None] * len(stripped)
    for start, stop in _tiles(len(stripped), num_qubits):
        chunk = [list(circuit) for circuit in stripped[start:stop]]
        batch = BatchStatevector.zero_states(len(chunk), num_qubits)
        for position, lead in enumerate(chunk[0]):
            if lead.name == "barrier":
                continue
            if not lead.is_unitary:
                raise SimulationError(
                    f"evolve() only handles unitary gates, found '{lead.name}'"
                )
            by_params: dict[tuple, list[int]] = {}
            for row, stream in enumerate(chunk):
                by_params.setdefault(stream[position].params, []).append(row)
            if len(by_params) == 1:
                batch.apply(lead.matrix(), lead.qubits)
            else:
                for rows in by_params.values():
                    inst = chunk[rows[0]][position]
                    batch.apply_rows(rows, inst.matrix(), inst.qubits)
        for offset in range(len(chunk)):
            states[start + offset] = Statevector(batch.row(offset))
    return states
