"""Circuit execution engines: ideal sampling and Monte-Carlo noisy trajectories.

Three paths:

* **fast path** — no gate noise, no reset, no conditionals, measurements only
  at circuit positions that are never followed by gates on the same qubit:
  evolve the statevector once and multinomially sample the joint distribution.
* **shot-batched trajectory path** — every other circuit whose draw schedule
  is state-independent (:func:`trajectory_draw_plan`): a tile of shots
  evolves as one ``(tile, 2**n)`` stack, gates, measurements and resets
  alike (no per-shot loop), bit-identical to the per-shot path.
* **per-shot trajectory path** — circuits with a conditional that draws (a
  conditional measure or reset, or a conditional gate under a noise channel):
  one trajectory per shot.  It is also the batched path's test reference.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.errors import SimulationError
from repro.quantum import gates as _gates
from repro.quantum.analysis import circuit_facts, structural_errors
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.statevector import (
    Statevector,
    apply_matrix,
    collapse,
    measure_probabilities,
)

#: Hard cap for dense simulation; 2**20 complex amplitudes = 16 MiB.
MAX_DENSE_QUBITS = 20

#: Tolerance on the total probability mass of a measurement distribution.
#: Honest rounding drift over a dense evolution is orders of magnitude
#: smaller; mass outside this band means the state was corrupted upstream
#: (a non-unitary "gate" matrix, manual state surgery) and sampling from it
#: would silently launder the corruption into plausible-looking counts.
NORM_ATOL = 1e-6

#: Cap on amplitudes one shot-batched trajectory tile holds (2**12 complex128
#: = 64 KiB), which also bounds the tile's slice of the uniform-draw table.
TRAJECTORY_TILE_AMPLITUDES = 2**12

_PAULI_MATRICES = {
    "x": _gates.X_MATRIX,
    "y": _gates.Y_MATRIX,
    "z": _gates.Z_MATRIX,
}


def _compact(circuit: QuantumCircuit) -> QuantumCircuit:
    """Relabel touched qubits to 0..k-1 so wide-but-sparse circuits stay dense.

    Transpiled circuits live on *physical* qubit indices of a (possibly
    127-qubit) device while touching only a handful of them; simulation only
    needs the touched ones.
    """
    touched = sorted({q for inst in circuit for q in inst.qubits})
    if not touched:
        touched = [0]
    if len(touched) == circuit.num_qubits and touched[-1] == len(touched) - 1:
        return circuit
    remap = {q: i for i, q in enumerate(touched)}
    out = QuantumCircuit(len(touched), max(circuit.num_clbits, 0), name=circuit.name)
    for inst in circuit:
        mapped = Instruction(
            inst.name,
            tuple(remap[q] for q in inst.qubits),
            inst.clbits,
            inst.params,
            inst.condition,
        )
        out._instructions.append(mapped)
    return out


def _validate(circuit: QuantumCircuit) -> None:
    if circuit.num_qubits == 0:
        raise SimulationError("cannot simulate a circuit with no qubits")
    if circuit.num_qubits > MAX_DENSE_QUBITS:
        raise SimulationError(
            f"circuit touches {circuit.num_qubits} qubits; dense simulation "
            f"is capped at {MAX_DENSE_QUBITS}"
        )


def _is_fast_path(circuit: QuantumCircuit, noise: NoiseModel | None) -> bool:
    """True when sampling from the final state reproduces per-shot semantics.

    Thin wrapper over :meth:`CircuitFacts.is_fast_path` — the analyzer is the
    single source of truth for this classification; the batchsim planner reads
    the same facts, so serial and batch routing can never disagree.
    """
    return circuit_facts(circuit).is_fast_path(noise)


def bit_rows_to_strings(rows: np.ndarray) -> list[str]:
    """Decode a ``(shots, width)`` array of ASCII digit codes into bitstrings.

    One decode over the whole block instead of a per-shot ``str.join`` — the
    assembly half of sampling is pure bookkeeping and should cost like it.
    """
    shots, width = rows.shape
    if width == 0:
        return [""] * shots
    buf = np.ascontiguousarray(rows.astype(np.uint8, copy=False)).tobytes()
    text = buf.decode("ascii")
    return [text[i * width : (i + 1) * width] for i in range(shots)]


def sample_from_state(
    state: Statevector,
    mapping: dict[int, int],
    num_clbits: int,
    shots: int,
    rng: np.random.Generator,
) -> list[str]:
    """Sample ``shots`` bitstrings from the measured qubits of a final state.

    ``mapping`` is ``measured_qubit_to_clbit()`` of the original circuit.
    Consumes exactly one ``rng.choice`` call, so the sampled stream is a pure
    function of ``(state, mapping, shots, rng state)`` — which is what lets
    the batch engine share one evolved state across many per-unit generators
    and still match the serial engine bit for bit.
    """
    if not mapping:
        return ["0" * num_clbits] * shots if num_clbits else [""] * shots
    qubits = list(mapping.keys())
    probs = state.probabilities(qubits)
    total = float(probs.sum())
    if abs(total - 1.0) > NORM_ATOL:
        raise SimulationError(
            f"measurement distribution sums to {total!r}, not 1; the state "
            "lost normalisation upstream (non-unitary gate matrix?)"
        )
    # Dividing by a validated ~1.0 total only scrubs honest rounding dust;
    # it keeps numpy's own (tighter) sum check in rng.choice satisfied.
    outcome_idx = rng.choice(len(probs), size=shots, p=probs / total)
    chars = np.full((shots, num_clbits), ord("0"), dtype=np.uint8)
    for pos, q in enumerate(qubits):
        clbit = mapping[q]
        chars[:, num_clbits - 1 - clbit] = ord("0") + (
            (outcome_idx >> pos) & 1
        ).astype(np.uint8)
    return bit_rows_to_strings(chars)


def _fast_sample(
    circuit: QuantumCircuit, shots: int, rng: np.random.Generator
) -> list[str]:
    """Sample shots from the final statevector (ideal, final-measurement case)."""
    mapping = circuit.measured_qubit_to_clbit()
    state = Statevector.from_circuit(circuit.remove_all_measurements())
    return sample_from_state(state, mapping, circuit.num_clbits, shots, rng)


def trajectory_draw_plan(
    circuit: QuantumCircuit, noise: NoiseModel | None
) -> list[int] | None:
    """Per-instruction uniform-draw counts of one :func:`_run_trajectory` shot.

    The trajectory path consumes ``rng.random()`` in a fixed order: a
    measurement draws its outcome plus one readout flip when the qubit has a
    readout error; a reset draws its outcome; a unitary gate draws one Pauli
    choice per touched qubit when a noise channel applies; barriers draw
    nothing.  That fixed schedule is what lets the shot-batched path draw a
    ``(shots, total)`` table and replay the serial stream exactly.

    Returns ``None`` when the schedule *is* state-dependent: a conditional
    instruction that would itself draw (a measure, a reset, or a gate under a
    noise channel) skips its draws when the condition fails.  A conditional
    gate that draws nothing keeps the schedule fixed and gets width 0.
    """
    plan: list[int] = []
    for inst in circuit:
        if inst.name == "barrier":
            draws = 0
        elif inst.name == "measure":
            draws = 1
            if noise is not None and noise.readout_for(inst.qubits[0]) is not None:
                draws += 1
        elif inst.name == "reset":
            draws = 1
        elif noise is not None and noise.channel_for(inst.name, inst.qubits) is not None:
            draws = len(inst.qubits)
        else:
            draws = 0
        if draws and inst.condition is not None:
            return None
        plan.append(draws)
    return plan


def _run_trajectory(
    circuit: QuantumCircuit,
    noise: NoiseModel | None,
    rng: np.random.Generator,
) -> str:
    """One noisy shot; returns the classical bitstring (clbit 0 rightmost)."""
    n = circuit.num_qubits
    state = np.zeros(2**n, dtype=np.complex128)
    state[0] = 1.0
    clbits = [0] * circuit.num_clbits
    for inst in circuit:
        if inst.name == "barrier":
            continue
        if inst.condition is not None:
            bit, value = inst.condition
            if clbits[bit] != value:
                continue
        if inst.name == "measure":
            qubit = inst.qubits[0]
            p1 = measure_probabilities(state, qubit, n)
            outcome = 1 if rng.random() < p1 else 0
            state = collapse(state, qubit, outcome, n)
            recorded = outcome
            if noise is not None:
                readout = noise.readout_for(qubit)
                if readout is not None:
                    recorded = readout.apply(outcome, rng)
            clbits[inst.clbits[0]] = recorded
            continue
        if inst.name == "reset":
            qubit = inst.qubits[0]
            p1 = measure_probabilities(state, qubit, n)
            outcome = 1 if rng.random() < p1 else 0
            state = collapse(state, qubit, outcome, n)
            if outcome == 1:
                state = apply_matrix(state, _gates.X_MATRIX, [qubit], n)
            continue
        state = apply_matrix(state, inst.matrix(), inst.qubits, n)
        channel = None if noise is None else noise.channel_for(inst.name, inst.qubits)
        if channel is not None:
            for q in inst.qubits:
                pauli = channel.sample(rng)
                if pauli is not None:
                    state = apply_matrix(state, _PAULI_MATRICES[pauli], [q], n)
    return "".join(str(b) for b in reversed(clbits))


def trajectory_tile_shots(num_qubits: int) -> int:
    """Shots per tile under :data:`TRAJECTORY_TILE_AMPLITUDES`."""
    return max(1, TRAJECTORY_TILE_AMPLITUDES >> num_qubits)


def run_trajectories(
    circuit: QuantumCircuit,
    shots: int,
    rng: np.random.Generator,
    noise: NoiseModel | None,
) -> list[str]:
    """Per-shot bitstrings of ``shots`` noisy trajectories of a compacted circuit.

    Shot-batched in tiles when the draw schedule is state-independent, else
    one :func:`_run_trajectory` per shot; both consume ``rng`` identically.
    """
    plan = trajectory_draw_plan(circuit, noise)
    if plan is None:
        return [_run_trajectory(circuit, noise, rng) for _ in range(shots)]
    width = sum(plan)
    tile = trajectory_tile_shots(circuit.num_qubits)
    outcomes: list[str] = []
    for start in range(0, shots, tile):
        # Row s holds shot s's draws in exactly the order the serial loop
        # would consume them: the generator fills the table row-major, so
        # drawing each tile's slice as it starts replays the serial stream.
        draws = rng.random((min(tile, shots - start), width))
        outcomes.extend(_run_trajectory_tile(circuit, noise, draws, plan))
    return outcomes


def _apply_rows(
    states: np.ndarray,
    mask: np.ndarray,
    matrix: np.ndarray,
    targets: tuple[int, ...],
    num_qubits: int,
) -> None:
    """Apply one unitary to the masked rows in place: gather, evolve, scatter."""
    if mask.any():
        states[mask] = apply_matrix(states[mask], matrix, targets, num_qubits)


def _run_trajectory_tile(
    circuit: QuantumCircuit,
    noise: NoiseModel | None,
    draws: np.ndarray,
    plan: list[int],
) -> list[str]:
    """Evolve one tile of shots through the trajectory, gates batched.

    ``draws[s, i]`` is the ``i``-th uniform the serial loop would draw for
    shot ``s``; ``plan`` holds the per-instruction draw widths.  A measure
    or reset collapses the whole tile at once: the stack forms of
    :func:`measure_probabilities` and :func:`collapse` match the flat calls
    of :func:`_run_trajectory` row for row, so every shot takes the branch
    it would take serially.
    """
    num_qubits, num_clbits = circuit.num_qubits, circuit.num_clbits
    batch = draws.shape[0]
    states = np.zeros((batch, 2**num_qubits), dtype=np.complex128)
    states[:, 0] = 1.0
    clbits = np.zeros((batch, num_clbits), dtype=np.uint8)
    cursor = 0
    for inst, width in zip(circuit, plan):
        if inst.name == "barrier":
            continue
        if inst.condition is not None:
            # The plan admits only draw-free conditional gates here.
            bit, value = inst.condition
            matching = clbits[:, bit] == value
            _apply_rows(states, matching, inst.matrix(), inst.qubits, num_qubits)
            continue
        if inst.name in ("measure", "reset"):
            qubit = inst.qubits[0]
            p1 = measure_probabilities(states, qubit, num_qubits)
            outcome = draws[:, cursor] < p1
            states = collapse(states, qubit, outcome, num_qubits)
            if inst.name == "reset":
                _apply_rows(states, outcome, _gates.X_MATRIX, (qubit,), num_qubits)
            else:
                readout = noise.readout_for(qubit) if noise is not None else None
                if readout is not None:
                    # ReadoutError.apply's flip, one threshold per row.
                    flip_p = np.where(outcome, readout.p0_given_1, readout.p1_given_0)
                    outcome = outcome ^ (draws[:, cursor + 1] < flip_p)
                clbits[:, inst.clbits[0]] = outcome
            cursor += width
            continue
        states = apply_matrix(states, inst.matrix(), inst.qubits, num_qubits)
        if width:
            channel = noise.channel_for(inst.name, inst.qubits)
            p_x = channel.p_x
            p_xy = channel.p_x + channel.p_y
            p_xyz = channel.p_x + channel.p_y + channel.p_z
            for offset, qubit in enumerate(inst.qubits):
                u = draws[:, cursor + offset]
                # Same left-to-right threshold sums as PauliNoise.sample, so
                # each shot lands in the identical branch it would serially.
                x_mask = u < p_x
                y_mask = ~x_mask & (u < p_xy)
                z_mask = ~x_mask & ~y_mask & (u < p_xyz)
                for mask, pauli in zip(
                    (x_mask, y_mask, z_mask), (_PAULI_MATRICES[p] for p in "xyz")
                ):
                    _apply_rows(states, mask, pauli, (qubit,), num_qubits)
            cursor += width
    return bit_rows_to_strings(clbits[:, ::-1] + ord("0"))


def simulate_counts(
    circuit: QuantumCircuit,
    shots: int,
    rng: np.random.Generator,
    noise: NoiseModel | None = None,
    memory: bool = False,
) -> tuple[dict[str, int], list[str] | None]:
    """Execute a circuit and return ``(counts, memory)``.

    ``counts`` maps classical bitstrings (clbit 0 rightmost) to frequencies;
    ``memory`` is the per-shot list when requested, else ``None``.
    """
    facts = circuit_facts(circuit)
    if facts.structurally_defective:
        first = structural_errors(facts)[0]
        raise SimulationError(
            f"circuit is structurally defective: [{first.code}] {first.message}"
        )
    circuit = _compact(circuit)
    _validate(circuit)
    if shots <= 0:
        raise SimulationError(f"shots must be positive, got {shots}")
    # ``is_fast_path`` only reads relabelling-invariant structure, so facts of
    # the original circuit answer for the compacted one too.
    if facts.is_fast_path(noise):
        outcomes = _fast_sample(circuit, shots, rng)
    else:
        outcomes = run_trajectories(circuit, shots, rng, noise)
    return tally_counts(outcomes, memory)


def tally_counts(
    outcomes: list[str], memory: bool
) -> tuple[dict[str, int], list[str] | None]:
    """Fold per-shot bitstrings into ``(sorted counts, optional memory)``."""
    counts = dict(sorted(Counter(outcomes).items()))
    return counts, (outcomes if memory else None)
