"""Oracle tests: the shot-batched trajectory path equals the per-shot loop.

``simulate_counts`` runs every circuit with a state-independent draw
schedule through :func:`run_trajectories`, a tile of shots at a time.  The
reference is :func:`_run_trajectory`, one shot per call, driven by a cloned
generator.  Both must yield the same per-shot bitstrings and leave the
generator in the same state, whatever the tile boundaries.  No executor or
service is involved, so this pins the simulator itself.
"""

import numpy as np
import pytest

from repro.quantum import simulator
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.simulator import (
    _compact,
    _run_trajectory,
    run_trajectories,
    simulate_counts,
    tally_counts,
    trajectory_draw_plan,
    trajectory_tile_shots,
)

_NOISY_1Q = ("h", "s", "t", "rx", "ry")
_QUIET_1Q = ("x", "y", "z")  # no channel: draw-free when conditioned
_NOISY_2Q = ("cx", "swap")
_QUIET_2Q = ("cz",)


def noise_model() -> NoiseModel:
    """Pauli noise on some gates only, plus readout error on every qubit."""
    return NoiseModel.uniform_depolarizing(
        0.08, 0.12, 0.05,
        one_qubit_gates=_NOISY_1Q, two_qubit_gates=_NOISY_2Q,
    )


def random_circuit(rng: np.random.Generator, num_qubits: int) -> QuantumCircuit:
    """Noisy gates, resets, mid-circuit measures and draw-free conditionals."""
    qc = QuantumCircuit(num_qubits, num_qubits)
    measured: list[int] = []
    for _ in range(int(rng.integers(8, 16))):
        q = int(rng.integers(num_qubits))
        roll = rng.random()
        if roll < 0.35:
            name = (_NOISY_1Q + _QUIET_1Q)[rng.integers(8)]
            params = [float(rng.uniform(0, 2 * np.pi))] if name in ("rx", "ry") else []
            qc.append(name, [q], params=params)
        elif roll < 0.5 and num_qubits > 1:
            a, b = (int(x) for x in rng.choice(num_qubits, size=2, replace=False))
            qc.append((_NOISY_2Q + _QUIET_2Q)[rng.integers(3)], [a, b])
        elif roll < 0.65:
            qc.measure(q, q)
            measured.append(q)
        elif roll < 0.75:
            qc.reset(q)
        elif measured:
            clbit = measured[int(rng.integers(len(measured)))]
            value = int(rng.integers(2))
            if num_qubits > 1 and rng.random() < 0.3:
                a, b = (int(x) for x in rng.choice(num_qubits, size=2, replace=False))
                qc.append("cz", [a, b], condition=(clbit, value))
            else:
                name = _QUIET_1Q[rng.integers(3)]
                qc.append(name, [q], condition=(clbit, value))
        else:
            qc.h(q)
    qc.measure_all()
    return qc


def reference(circuit, shots, rng, noise) -> list[str]:
    return [_run_trajectory(circuit, noise, rng) for _ in range(shots)]


def shot_counts(tile: int) -> list[int]:
    return sorted({1, max(1, tile - 1), tile, tile + 1, 3 * tile + 7})


@pytest.fixture(params=["default", "small"])
def tile_cap(request, monkeypatch):
    """Run each case at the shipped tile cap and at one of 2**6 amplitudes."""
    if request.param == "small":
        monkeypatch.setattr(simulator, "TRAJECTORY_TILE_AMPLITUDES", 2**6)
    return request.param


@pytest.mark.parametrize("seed", range(6))
def test_batched_path_matches_per_shot_reference(seed, tile_cap):
    rng = np.random.default_rng(seed)
    noise = noise_model()
    # At the shipped cap, 5 qubits keeps 3*tile+7 shots affordable.
    num_qubits = 5 if tile_cap == "default" else 1 + seed % 4
    circuit = _compact(random_circuit(rng, num_qubits))
    assert trajectory_draw_plan(circuit, noise) is not None
    tile = trajectory_tile_shots(circuit.num_qubits)
    for shots in shot_counts(tile):
        got_rng = np.random.default_rng(1000 + shots)
        want_rng = np.random.default_rng(1000 + shots)
        got = run_trajectories(circuit, shots, got_rng, noise)
        want = reference(circuit, shots, want_rng, noise)
        assert got == want, f"{shots} shots diverged (tile {tile})"
        # Both paths consumed exactly the same stream.
        assert got_rng.random() == want_rng.random()


def wide_circuit(rng: np.random.Generator, num_qubits: int) -> QuantumCircuit:
    """An entangled prefix with a mid-circuit measure and a reset, then noise.

    The prefix spreads amplitude over every basis state, so each collapse
    sums hundreds of nonzero probabilities (numpy's recursive pairwise
    branch above 128 elements); :func:`random_circuit` follows.
    """
    qc = QuantumCircuit(num_qubits, num_qubits)
    for q in range(num_qubits):
        qc.ry(float(rng.uniform(0, 2 * np.pi)), q)
    for q in range(num_qubits - 1):
        qc.cx(q, q + 1)
    qc.measure(0, 0)
    qc.append("x", [1], condition=(0, 1))
    qc.reset(2)
    qc.rx(float(rng.uniform(0, 2 * np.pi)), 2)
    return qc.compose(random_circuit(rng, num_qubits))


@pytest.mark.parametrize("num_qubits", [9, 10])
@pytest.mark.parametrize("seed", range(2))
def test_wide_tiles_match_per_shot_reference(seed, num_qubits, monkeypatch):
    # A small cap keeps several shots per tile at 9-10 qubits.
    monkeypatch.setattr(simulator, "TRAJECTORY_TILE_AMPLITUDES", 2**11)
    rng = np.random.default_rng(700 + seed)
    noise = noise_model()
    circuit = _compact(wide_circuit(rng, num_qubits))
    assert circuit.num_qubits == num_qubits
    assert all(noise.readout_for(q) is not None for q in range(num_qubits))
    assert trajectory_draw_plan(circuit, noise) is not None
    tile = trajectory_tile_shots(num_qubits)
    assert tile > 1
    for shots in (1, tile, 3 * tile + 7):
        got_rng = np.random.default_rng(2000 + shots)
        want_rng = np.random.default_rng(2000 + shots)
        got = run_trajectories(circuit, shots, got_rng, noise)
        want = reference(circuit, shots, want_rng, noise)
        assert got == want, f"{shots} shots diverged (tile {tile})"
        assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("seed", range(4))
def test_simulate_counts_memory_matches_reference(seed, tile_cap):
    rng = np.random.default_rng(50 + seed)
    noise = noise_model()
    circuit = random_circuit(rng, 2 + seed % 3)
    shots = 3 * trajectory_tile_shots(circuit.num_qubits) + 7
    counts, memory = simulate_counts(
        circuit, shots, np.random.default_rng(seed), noise, memory=True
    )
    want = reference(_compact(circuit), shots, np.random.default_rng(seed), noise)
    assert memory == want
    assert (counts, memory) == tally_counts(want, True)


def test_conditional_gate_applies_only_to_matching_shots():
    # Teleportation-style correction: x on qubit 1 iff qubit 0 read 1.
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.measure(0, 0)
    qc.append("x", [1], condition=(0, 1))
    qc.measure(1, 1)
    assert trajectory_draw_plan(qc, None) == [0, 1, 0, 1]
    counts, _ = simulate_counts(qc, 400, np.random.default_rng(3))
    assert set(counts) == {"00", "11"}
    assert sum(counts.values()) == 400


def test_drawing_conditional_falls_back_to_per_shot_loop(monkeypatch):
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.measure(0, 0)
    qc.append("h", [1], condition=(0, 1))  # noisy gate: draws when applied
    qc.measure(1, 1)
    noise = noise_model()
    assert trajectory_draw_plan(qc, noise) is None
    monkeypatch.setattr(
        simulator, "_run_trajectory_tile",
        lambda *args: pytest.fail("drawing conditional must not be batched"),
    )
    got = run_trajectories(qc, 64, np.random.default_rng(8), noise)
    assert got == reference(qc, 64, np.random.default_rng(8), noise)
