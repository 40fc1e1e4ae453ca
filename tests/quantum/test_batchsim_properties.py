"""Property tests for the vectorised batch engine: batch == serial, always.

The contract under test is *bit-identity*: for every ``(seed, circuit, shots,
noise)`` and every grouping the planner may choose, ``executor="batch"``
produces exactly the counts (and memory) the serial engine produces.  The
fuzz tests therefore compare whole randomised workloads across a batch
service and a thread service seeded identically, on both execution paths
(ideal fast path and shot-batched trajectories), including mixed-structure
batches that must split into several groups.
"""

import threading

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.quantum import batchsim
from repro.quantum.backend import Backend, LocalSimulator
from repro.quantum.batchsim import engine as batch_engine
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution import ExecutionService
from repro.quantum.noise import NoiseModel
from repro.quantum.simulator import (
    sample_from_state,
    trajectory_draw_plan,
)
from repro.quantum.statevector import Statevector, apply_matrix

# Gate pool for random structure generation: (method, arity, n_params).
_ONE_Q = [("h", 0), ("x", 0), ("s", 0), ("t", 0), ("rx", 1), ("ry", 1), ("rz", 1)]
_TWO_Q = [("cx", 0), ("cz", 0), ("crx", 1), ("swap", 0)]


def random_circuit(
    rng: np.random.Generator,
    num_qubits: int,
    depth: int,
    measure: str = "all",
) -> QuantumCircuit:
    """A random circuit; ``measure`` is ``"all"`` (final) or ``"mid"``."""
    qc = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(depth):
        if num_qubits > 1 and rng.random() < 0.3:
            name, n_params = _TWO_Q[rng.integers(len(_TWO_Q))]
            a, b = rng.choice(num_qubits, size=2, replace=False)
            args = [int(a), int(b)]
        else:
            name, n_params = _ONE_Q[rng.integers(len(_ONE_Q))]
            args = [int(rng.integers(num_qubits))]
        params = [float(rng.uniform(0, 2 * np.pi)) for _ in range(n_params)]
        getattr(qc, name)(*params, *args)  # rotations take theta first
    if measure == "mid":
        qc.measure(0, 0)
        qc.x(0)
    qc.measure_all()
    return qc


def reparameterize(qc: QuantumCircuit, rng: np.random.Generator) -> QuantumCircuit:
    """Same structure, fresh angles — the planner must group these together."""
    out = QuantumCircuit(qc.num_qubits, qc.num_clbits)
    for inst in qc:
        params = tuple(
            float(rng.uniform(0, 2 * np.pi)) for _ in inst.params
        )
        out.append(
            inst.name, list(inst.qubits), list(inst.clbits), list(params),
            condition=inst.condition,
        )
    return out


def noisy_backend(p: float = 0.02, readout: float = 0.01) -> Backend:
    return Backend(
        name="batchsim-noisy",
        num_qubits=8,
        noise_model=NoiseModel.uniform_depolarizing(p, 2 * p, readout),
    )


def run_pair(backend, circuits, shots, seed, memory=False, use_cache=True):
    """Run one workload on a batch service and a thread service; return both."""
    batch_svc = ExecutionService(executor="batch", use_cache=use_cache)
    serial_svc = ExecutionService(executor="thread", use_cache=use_cache)
    try:
        got = batch_svc.run(
            circuits, backend=backend, shots=shots, seed=seed, memory=memory
        ).result()
        want = serial_svc.run(
            circuits, backend=backend, shots=shots, seed=seed, memory=memory
        ).result()
        return got, want, batch_svc
    finally:
        batch_svc.shutdown()
        serial_svc.shutdown()


def assert_results_identical(got, want, n, memory=False):
    for i in range(n):
        assert got.get_counts(i) == want.get_counts(i), f"circuit {i} diverged"
        if memory:
            assert got.get_memory(i) == want.get_memory(i)


# ---------------------------------------------------------------------------
# Kernel: batch_apply_matrix row-for-row vs the serial apply_matrix
# ---------------------------------------------------------------------------


class TestBatchKernel:
    def test_rows_bit_identical_to_serial_kernel(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            num_qubits = int(rng.integers(1, 6))
            batch = int(rng.integers(1, 9))
            k = int(rng.integers(1, min(num_qubits, 2) + 1))
            targets = [int(t) for t in rng.choice(num_qubits, size=k, replace=False)]
            raw = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
            matrix, _ = np.linalg.qr(raw)
            states = rng.normal(size=(batch, 2**num_qubits)) + 1j * rng.normal(
                size=(batch, 2**num_qubits)
            )
            states /= np.linalg.norm(states, axis=1, keepdims=True)
            got = batchsim.batch_apply_matrix(states, matrix, targets, num_qubits)
            for row in range(batch):
                want = apply_matrix(states[row], matrix, targets, num_qubits)
                assert np.array_equal(got[row], want), (
                    f"row {row} deviates for targets {targets}"
                )

    def test_matrix_shape_mismatch_raises(self):
        states = np.zeros((2, 4), dtype=np.complex128)
        states[:, 0] = 1.0
        with pytest.raises(SimulationError, match="does not match"):
            batchsim.batch_apply_matrix(states, np.eye(4), [0], 2)

    def test_batch_statevector_validates_shape(self):
        with pytest.raises(SimulationError, match="2-D"):
            batchsim.BatchStatevector(np.zeros(4, dtype=np.complex128))
        with pytest.raises(SimulationError, match="power of two"):
            batchsim.BatchStatevector(np.zeros((2, 3), dtype=np.complex128))

    def test_apply_rows_touches_only_selected_rows(self):
        sv = batchsim.BatchStatevector.zero_states(3, 1)
        sv.apply_rows([1], np.array([[0, 1], [1, 0]], dtype=np.complex128), [0])
        assert sv.row(0)[0] == 1.0 and sv.row(1)[1] == 1.0 and sv.row(2)[0] == 1.0
        sv.apply_rows([], np.eye(2, dtype=np.complex128), [0])  # no-op
        assert sv.num_qubits == 1
        assert "batch=3" in repr(sv)


# ---------------------------------------------------------------------------
# Planner: groupings are exactly the provably-safe ones
# ---------------------------------------------------------------------------


class TestPlanner:
    def _units(self, circuits, shots=64, seed=5):
        return [
            batchsim.make_unit(i, qc, object(), seed + i, shots)
            for i, qc in enumerate(circuits)
        ]

    def test_same_structure_groups_even_with_different_params(self):
        rng = np.random.default_rng(0)
        base = random_circuit(rng, 3, 6)
        sweep = [base] + [reparameterize(base, rng) for _ in range(3)]
        groups = batchsim.plan(LocalSimulator(), self._units(sweep))
        assert len(groups) == 1
        assert groups[0].kind == batchsim.IDEAL
        assert len(groups[0].units) == 4

    def test_mixed_structures_split_into_groups(self):
        rng = np.random.default_rng(1)
        a = random_circuit(rng, 3, 5)
        b = random_circuit(rng, 3, 7)
        groups = batchsim.plan(
            LocalSimulator(), self._units([a, reparameterize(a, rng), b])
        )
        assert [len(g.units) for g in groups] == [2, 1]
        assert all(g.kind == batchsim.IDEAL for g in groups)

    def test_conditional_circuit_falls_back_to_serial(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.append("x", [1], condition=(0, 1))
        qc.measure(1, 1)
        groups = batchsim.plan(noisy_backend(), self._units([qc]))
        assert [g.kind for g in groups] == [batchsim.SERIAL]

    def test_noisy_unit_becomes_singleton_shots_group(self):
        rng = np.random.default_rng(2)
        circuits = [random_circuit(rng, 2, 4) for _ in range(3)]
        groups = batchsim.plan(noisy_backend(), self._units(circuits))
        assert [g.kind for g in groups] == [batchsim.SHOTS] * 3
        assert all(len(g.units) == 1 for g in groups)

    def test_overridden_backend_is_never_batched(self):
        class Custom(Backend):
            def __init__(self):
                super().__init__(name="custom", num_qubits=4)

            def execute_circuit(self, circuit, shots, seed=None, memory=False):
                return {"00": shots}, None

        assert not batchsim.batchable_backend(Custom())
        assert batchsim.batchable_backend(LocalSimulator())
        rng = np.random.default_rng(3)
        groups = batchsim.plan(
            Custom(), self._units([random_circuit(rng, 2, 3)])
        )
        assert [g.kind for g in groups] == [batchsim.SERIAL]

    def test_serial_group_comes_last_and_plan_of_nothing_is_empty(self):
        rng = np.random.default_rng(4)
        ideal = random_circuit(rng, 2, 3)
        cond = QuantumCircuit(2, 2)
        cond.h(0)
        cond.measure(0, 0)
        cond.append("x", [1], condition=(0, 1))
        cond.measure(1, 1)
        groups = batchsim.plan(
            LocalSimulator(), self._units([cond, ideal])
        )
        assert [g.kind for g in groups] == [batchsim.IDEAL, batchsim.SERIAL]
        assert batchsim.plan(LocalSimulator(), []) == []

    def test_over_wide_circuit_falls_back_to_serial(self):
        from repro.quantum.simulator import MAX_DENSE_QUBITS

        wide = QuantumCircuit(MAX_DENSE_QUBITS + 1, 1)
        for q in range(MAX_DENSE_QUBITS + 1):
            wide.h(q)
        wide.measure(0, 0)
        backend = Backend(name="wide", num_qubits=MAX_DENSE_QUBITS + 2)
        groups = batchsim.plan(backend, self._units([wide]))
        assert [g.kind for g in groups] == [batchsim.SERIAL]

    def test_structure_fingerprint_ignores_params_only(self):
        rng = np.random.default_rng(5)
        base = random_circuit(rng, 3, 6)
        assert batchsim.structure_fingerprint(base) == (
            batchsim.structure_fingerprint(reparameterize(base, rng))
        )
        other = random_circuit(rng, 3, 6)
        assert batchsim.structure_fingerprint(base) != (
            batchsim.structure_fingerprint(other)
        )


# ---------------------------------------------------------------------------
# Engine: dispatch output vs Backend.execute_circuit, per unit
# ---------------------------------------------------------------------------


class TestEngineBitIdentity:
    def test_ideal_group_matches_serial_per_unit(self):
        rng = np.random.default_rng(11)
        backend = LocalSimulator()
        base = random_circuit(rng, 3, 8)
        circuits = [base] + [reparameterize(base, rng) for _ in range(5)]
        units = [
            batchsim.make_unit(i, qc, None, 100 + i, 257)
            for i, qc in enumerate(circuits)
        ]
        group = batchsim.plan(backend, units)[0]
        got = batchsim.dispatch(backend, group, True)
        for unit, (counts, mem) in zip(group.units, got):
            want_counts, want_mem = backend.execute_circuit(
                unit.circuit, unit.shots, unit.seed, True
            )
            assert counts == want_counts
            assert mem == want_mem

    def test_shared_seed_and_params_still_distinct_rows_when_needed(self):
        # Two units with identical params but different seeds share one
        # evolution row yet sample independently.
        backend = LocalSimulator()
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure_all()
        units = [
            batchsim.make_unit(0, qc, None, 1, 400),
            batchsim.make_unit(1, qc, None, 2, 400),
        ]
        group = batchsim.plan(backend, units)[0]
        got = batchsim.dispatch(backend, group, False)
        for unit, (counts, _) in zip(units, got):
            want, _ = backend.execute_circuit(qc, 400, unit.seed, False)
            assert counts == want
        assert got[0][0] != got[1][0] or True  # distinct streams, same dist

    def test_trajectory_unit_matches_serial(self):
        rng = np.random.default_rng(12)
        backend = noisy_backend()
        for trial in range(6):
            qc = random_circuit(rng, 2, 5, measure="mid" if trial % 2 else "all")
            unit = batchsim.make_unit(0, qc, None, 900 + trial, 128)
            groups = batchsim.plan(backend, [unit])
            assert groups[0].kind == batchsim.SHOTS
            (counts, mem), = batchsim.dispatch(backend, groups[0], True)
            want_counts, want_mem = backend.execute_circuit(qc, 128, unit.seed, True)
            assert counts == want_counts
            assert mem == want_mem

    def test_reset_matches_serial_under_noise(self):
        backend = noisy_backend(p=0.05, readout=0.03)
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cx(0, 1)
        qc.reset(0)
        qc.h(1)
        qc.measure_all()
        unit = batchsim.make_unit(0, qc, None, 77, 300)
        group = batchsim.plan(backend, [unit])[0]
        (counts, mem), = batchsim.dispatch(backend, group, True)
        want_counts, want_mem = backend.execute_circuit(qc, 300, 77, True)
        assert counts == want_counts and mem == want_mem

    def test_barriers_are_skipped_on_both_paths(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.barrier()
        qc.cx(0, 1)
        qc.measure_all()
        for backend in (LocalSimulator(), noisy_backend()):
            unit = batchsim.make_unit(0, qc, None, 9, 120)
            group = batchsim.plan(backend, [unit])[0]
            (counts, _), = batchsim.dispatch(backend, group, False)
            want, _ = backend.execute_circuit(qc, 120, 9, False)
            assert counts == want

    def test_non_unitary_instruction_in_evolve_raises_serial_error(self):
        # Defensive guard mirroring Statevector.evolve: the planner never
        # routes such circuits to the ideal path, but the error text must
        # stay the serial one if it ever fires.
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.reset(0)
        with pytest.raises(SimulationError, match="only handles unitary"):
            batch_engine._evolve_rows([qc])

    def test_serial_group_is_not_executable_by_the_engine(self):
        qc = QuantumCircuit(1, 1)
        qc.measure_all()
        unit = batchsim.make_unit(0, qc, None, 1, 10)
        with pytest.raises(SimulationError, match="not executable"):
            batchsim.execute_group(
                None, batchsim.PlannedGroup(batchsim.SERIAL, [unit]), False
            )

    def test_tiling_cannot_affect_results(self, monkeypatch):
        rng = np.random.default_rng(13)
        backend = noisy_backend()
        base = random_circuit(rng, 3, 6)
        want_ideal = batchsim.dispatch(
            LocalSimulator(),
            batchsim.plan(
                LocalSimulator(),
                [
                    batchsim.make_unit(i, reparameterize(base, rng), None, i, 64)
                    for i in range(5)
                ],
            )[0],
            False,
        )
        noisy_unit = batchsim.make_unit(0, base, None, 3, 96)
        want_noisy = batchsim.dispatch(
            backend, batchsim.plan(backend, [noisy_unit])[0], False
        )
        # Force one-row/one-shot tiles: results must not move.
        monkeypatch.setattr(batch_engine, "MAX_BATCH_AMPLITUDES", 1)
        rng = np.random.default_rng(13)
        base = random_circuit(rng, 3, 6)
        got_ideal = batchsim.dispatch(
            LocalSimulator(),
            batchsim.plan(
                LocalSimulator(),
                [
                    batchsim.make_unit(i, reparameterize(base, rng), None, i, 64)
                    for i in range(5)
                ],
            )[0],
            False,
        )
        noisy_unit = batchsim.make_unit(0, base, None, 3, 96)
        got_noisy = batchsim.dispatch(
            backend, batchsim.plan(backend, [noisy_unit])[0], False
        )
        assert got_ideal == want_ideal
        assert got_noisy == want_noisy


# ---------------------------------------------------------------------------
# Draw plan: the schedule the shot-batcher replays
# ---------------------------------------------------------------------------


class TestDrawPlan:
    def test_widths_per_instruction(self):
        noise = NoiseModel.uniform_depolarizing(0.01, 0.02, 0.01)
        qc = QuantumCircuit(2, 2)
        qc.h(0)        # 1 draw (noisy 1q gate)
        qc.cx(0, 1)    # 2 draws (noisy 2q gate)
        qc.barrier()   # 0
        qc.reset(0)    # 1
        qc.measure(0, 0)  # 1 + 1 readout
        qc.measure(1, 1)  # 1 + 1 readout
        assert trajectory_draw_plan(qc, noise) == [1, 2, 0, 1, 2, 2]

    def test_no_noise_gate_draws_nothing(self):
        noise = NoiseModel()
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        assert trajectory_draw_plan(qc, noise) == [0, 1]

    @pytest.mark.parametrize(
        "name, qubits", [("measure", [1]), ("reset", [1]), ("x", [1])]
    )
    def test_drawing_conditionals_have_no_static_plan(self, name, qubits):
        # A conditional that would itself draw (a measure, a reset, or a gate
        # under a noise channel) skips its draws when the condition fails.
        noise = NoiseModel.uniform_depolarizing(0.01, 0.02)
        qc = QuantumCircuit(2, 2)
        qc.measure(0, 0)
        clbits = [1] if name == "measure" else []
        qc.append(name, qubits, clbits, condition=(0, 1))
        assert trajectory_draw_plan(qc, noise) is None

    def test_draw_free_conditional_gate_gets_a_plan(self):
        qc = QuantumCircuit(2, 2)
        qc.measure(0, 0)
        qc.append("x", [1], condition=(0, 1))
        assert trajectory_draw_plan(qc, NoiseModel()) == [1, 0]


# ---------------------------------------------------------------------------
# Norm validation (satellite 1): corrupted states raise, never renormalise
# ---------------------------------------------------------------------------


class TestNormValidation:
    def _denormalized_state(self, scale: float) -> Statevector:
        # Bypass the constructor (which renormalises) to model a state
        # corrupted upstream, e.g. by a non-unitary custom gate matrix.
        state = Statevector.__new__(Statevector)
        data = np.zeros(4, dtype=np.complex128)
        data[0] = scale
        state._data = data
        state._num_qubits = 2
        return state

    def test_lost_normalisation_raises_not_renormalises(self):
        state = self._denormalized_state(0.9)
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError, match="lost normalisation"):
            sample_from_state(state, {0: 0, 1: 1}, 2, 10, rng)

    def test_rounding_dust_within_tolerance_is_fine(self):
        state = self._denormalized_state(1.0 + 1e-8)
        rng = np.random.default_rng(0)
        outcomes = sample_from_state(state, {0: 0, 1: 1}, 2, 10, rng)
        assert outcomes == ["00"] * 10

    def test_unmeasured_circuit_samples_zeros(self):
        state = Statevector.zero_state(2)
        assert sample_from_state(state, {}, 2, 3, np.random.default_rng(0)) == (
            ["00"] * 3
        )
        assert sample_from_state(state, {}, 0, 2, np.random.default_rng(0)) == (
            ["", ""]
        )


# ---------------------------------------------------------------------------
# Service-level fuzz: any grouping, both submit() and run(), bit-identical
# ---------------------------------------------------------------------------


class TestServiceFuzz:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_ideal_mixed_structure_workload(self, seed):
        rng = np.random.default_rng(seed)
        structures = [random_circuit(rng, 3, int(rng.integers(3, 9)))
                      for _ in range(3)]
        workload = []
        for _ in range(8):
            base = structures[rng.integers(len(structures))]
            workload.append(reparameterize(base, rng))
        got, want, _ = run_pair(LocalSimulator(), workload, 193, seed)
        assert_results_identical(got, want, len(workload))

    @pytest.mark.parametrize("seed", [31, 32])
    def test_noisy_workload_with_memory(self, seed):
        rng = np.random.default_rng(seed)
        workload = [
            random_circuit(rng, 2, int(rng.integers(3, 7)),
                           measure="mid" if i % 3 == 0 else "all")
            for i in range(4)
        ]
        got, want, _ = run_pair(
            noisy_backend(), workload, 97, seed, memory=True
        )
        assert_results_identical(got, want, len(workload), memory=True)

    def test_conditional_units_ride_the_serial_fallback(self):
        rng = np.random.default_rng(41)
        cond = QuantumCircuit(2, 2)
        cond.h(0)
        cond.measure(0, 0)
        cond.append("x", [1], condition=(0, 1))
        cond.measure(1, 1)
        workload = [random_circuit(rng, 2, 4), cond, random_circuit(rng, 2, 4)]
        got, want, svc = run_pair(LocalSimulator(), workload, 128, 41)
        assert_results_identical(got, want, len(workload))
        stats = svc.stats()
        # The conditional unit simulated serially; the rest batched.
        assert stats["simulations_batched"] == 2
        assert stats["simulations"] == 3

    def test_submit_path_matches_run_path(self):
        rng = np.random.default_rng(51)
        base = random_circuit(rng, 3, 6)
        workload = [reparameterize(base, rng) for _ in range(6)]
        svc_submit = ExecutionService(executor="batch")
        svc_run = ExecutionService(executor="batch")
        try:
            got = svc_submit.submit(
                workload, backend="local_simulator", shots=150, seed=51
            ).result(timeout=60)
            want = svc_run.run(
                workload, backend="local_simulator", shots=150, seed=51
            ).result()
            assert_results_identical(got, want, len(workload))
        finally:
            svc_submit.shutdown()
            svc_run.shutdown()

    def test_uncacheable_seedless_batch_still_works(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure_all()
        svc = ExecutionService(executor="batch")
        try:
            result = svc.run([qc, qc], shots=50).result()
            assert sum(result.get_counts(0).values()) == 50
            assert svc.stats()["simulations_batched"] == 2
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# Cache composition: hits, single-flight, and contested keys
# ---------------------------------------------------------------------------


class TestCacheComposition:
    def test_warm_rerun_simulates_nothing(self):
        rng = np.random.default_rng(61)
        workload = [random_circuit(rng, 2, 4) for _ in range(4)]
        svc = ExecutionService(executor="batch")
        try:
            first = svc.run(workload, shots=80, seed=61).result()
            warm = svc.run(workload, shots=80, seed=61).result()
            assert_results_identical(warm, first, len(workload))
            stats = svc.stats()
            assert stats["simulations"] == stats["simulations_batched"] == 4
            assert stats["cache_hits"] == 4
            assert stats["cache_misses"] == (
                stats["simulations"] + stats["simulations_deduped"]
            )
        finally:
            svc.shutdown()

    def test_duplicate_circuits_in_one_batch_dedup(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure_all()
        svc = ExecutionService(executor="batch")
        try:
            # Index 0 and the rest derive different seeds, so only exact
            # duplicates (same derived seed) could collide; submit two
            # batches with overlapping keys concurrently instead.
            jobs = [
                svc.submit([qc], shots=64, seed=7) for _ in range(4)
            ]
            results = [job.result(timeout=60) for job in jobs]
            for r in results[1:]:
                assert r.get_counts(0) == results[0].get_counts(0)
            stats = svc.stats()
            assert stats["simulations"] + stats["simulations_deduped"] + (
                stats["cache_hits"]
            ) == 4
            assert stats["cache_misses"] == (
                stats["simulations"] + stats["simulations_deduped"]
            )
        finally:
            svc.shutdown()

    def test_contested_key_defers_to_foreign_leader(self):
        """A unit whose key a foreign thread leads waits, then dedups."""
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure_all()
        svc = ExecutionService(executor="batch")
        try:
            from repro.quantum.execution.cache import (
                circuit_fingerprint,
                noise_fingerprint,
            )
            from repro.quantum.execution.cache import CacheKey

            backend = LocalSimulator()
            key = CacheKey(
                circuit=circuit_fingerprint(qc),
                backend=backend.name,
                shots=64,
                seed=7,
                noise=noise_fingerprint(backend.noise_model),
                memory=False,
            )
            assert svc._try_lead(key)  # the test is the foreign leader
            done = threading.Event()
            out = {}

            def runner():
                out["result"] = svc.run(
                    qc, backend=backend, shots=64, seed=7
                ).result()
                done.set()

            thread = threading.Thread(target=runner)
            thread.start()
            # The batch group must not simulate the contested unit; it blocks
            # on our flight.  Fill the cache as the leader would, release.
            assert not done.wait(0.3)
            fake = {"1": 64}
            svc.cache.put(key, fake, None)
            svc._release_flight(key)
            assert done.wait(10)
            thread.join()
            assert out["result"].get_counts(0) == fake
            stats = svc.stats()
            assert stats["simulations"] == 0
            assert stats["simulations_deduped"] == 1
            assert stats["simulations_batched"] == 0
        finally:
            svc.shutdown()


# ---------------------------------------------------------------------------
# Counters and attribution
# ---------------------------------------------------------------------------


class TestCounters:
    def test_batched_counters_in_stats_and_scope(self):
        rng = np.random.default_rng(71)
        base = random_circuit(rng, 3, 5)
        workload = [reparameterize(base, rng) for _ in range(6)]
        svc = ExecutionService(executor="batch")
        try:
            with svc.stats_scope("fuzz") as scope:
                svc.run(workload, shots=64, seed=71).result()
            stats = svc.stats()
            assert stats["executor"] == "batch"
            assert stats["simulations_batched"] == 6
            assert stats["batch_groups"] == 1
            attributed = scope.as_dict()
            assert attributed["simulations_batched"] == 6
            assert attributed["batch_groups"] == 1
            assert attributed["simulations"] == 6
        finally:
            svc.shutdown()

    def test_noisy_units_count_one_group_each(self):
        rng = np.random.default_rng(81)
        workload = [random_circuit(rng, 2, 4) for _ in range(3)]
        svc = ExecutionService(executor="batch")
        try:
            svc.run(
                workload, backend=noisy_backend(), shots=32, seed=81
            ).result()
            stats = svc.stats()
            assert stats["simulations_batched"] == 3
            assert stats["batch_groups"] == 3  # SHOTS groups are singletons
        finally:
            svc.shutdown()

    def test_thread_executor_never_batches(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure_all()
        svc = ExecutionService(executor="thread")
        try:
            svc.run(qc, shots=16, seed=1).result()
            stats = svc.stats()
            assert stats["simulations_batched"] == 0
            assert stats["batch_groups"] == 0
        finally:
            svc.shutdown()
