"""Noise model, topology, QASM and legacy-surface tests."""

import numpy as np
import pytest

from repro.errors import QasmError, QuantumDeprecationError, TranspilerError
from repro.quantum import legacy
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.library import teleportation
from repro.quantum.noise import NoiseModel, PauliNoise, ReadoutError
from repro.quantum.qasm import circuit_to_qasm, qasm_to_circuit
from repro.quantum.topology import CouplingMap


class TestPauliNoise:
    def test_depolarizing_splits_evenly(self):
        ch = PauliNoise.depolarizing(0.3)
        assert ch.p_x == pytest.approx(0.1)
        assert ch.error_probability == pytest.approx(0.3)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            PauliNoise(0.6, 0.6, 0.0)
        with pytest.raises(ValueError):
            PauliNoise(-0.1, 0.0, 0.0)

    def test_sampling_distribution(self):
        ch = PauliNoise(0.2, 0.0, 0.3)
        rng = np.random.default_rng(0)
        draws = [ch.sample(rng) for _ in range(10_000)]
        assert 0.17 < draws.count("x") / 10_000 < 0.23
        assert draws.count("y") == 0
        assert 0.27 < draws.count("z") / 10_000 < 0.33

    def test_scaled(self):
        ch = PauliNoise.bit_flip(0.4).scaled(0.5)
        assert ch.p_x == pytest.approx(0.2)


class TestNoiseModel:
    def test_lookup_priority_local_over_global(self):
        model = NoiseModel()
        model.add_all_qubit_error(PauliNoise.bit_flip(0.1), "x")
        model.add_local_error(PauliNoise.bit_flip(0.9), "x", [3])
        assert model.channel_for("x", (3,)).p_x == pytest.approx(0.9)
        assert model.channel_for("x", (0,)).p_x == pytest.approx(0.1)

    def test_trivial(self):
        assert NoiseModel().is_trivial
        assert not NoiseModel.uniform_depolarizing(1e-3, 1e-2).is_trivial

    def test_scaled_copies_everything(self):
        model = NoiseModel.uniform_depolarizing(0.01, 0.02, 0.03)
        half = model.scaled(0.5)
        assert half.channel_for("x", (0,)).error_probability == pytest.approx(0.005)
        assert half.readout.p1_given_0 == pytest.approx(0.015)
        # original untouched
        assert model.channel_for("x", (0,)).error_probability == pytest.approx(0.01)

    def test_readout_apply(self):
        err = ReadoutError(p1_given_0=1.0, p0_given_1=0.0)
        rng = np.random.default_rng(1)
        assert err.apply(0, rng) == 1
        assert err.apply(1, rng) == 1


class TestCouplingMap:
    def test_linear_ring_grid_full_shapes(self):
        assert CouplingMap.linear(4).edges == [(0, 1), (1, 2), (2, 3)]
        assert len(CouplingMap.ring(5).edges) == 5
        assert len(CouplingMap.grid(2, 3).edges) == 7
        assert len(CouplingMap.full(4).edges) == 6

    def test_brisbane_is_127_heavy_hex(self):
        cmap = CouplingMap.brisbane()
        assert cmap.num_qubits == 127
        assert cmap.is_connected()
        assert cmap.max_degree() <= 3  # the defining heavy-hex property

    def test_brisbane_is_built_once_per_class(self):
        class Recording(CouplingMap):
            pass

        assert CouplingMap.brisbane() is CouplingMap.brisbane()
        assert type(Recording.brisbane()) is Recording
        assert Recording.brisbane() is Recording.brisbane()
        assert Recording.brisbane().edges == CouplingMap.brisbane().edges

    def test_distance_and_path(self):
        cmap = CouplingMap.linear(5)
        assert cmap.distance(0, 4) == 4
        assert cmap.shortest_path(0, 2) == [0, 1, 2]

    def test_grid_embedding(self):
        assert CouplingMap.grid(4, 4).subgraph_has_grid(2, 2)
        assert not CouplingMap.linear(9).subgraph_has_grid(3, 3)

    def test_bad_constructions(self):
        with pytest.raises(TranspilerError):
            CouplingMap([])
        with pytest.raises(TranspilerError):
            CouplingMap([(0, 0)])
        with pytest.raises(TranspilerError):
            CouplingMap([(0, 2)])  # non-contiguous ids
        with pytest.raises(TranspilerError):
            CouplingMap.linear(1)

    def test_neighbors(self):
        cmap = CouplingMap.grid(2, 2)
        assert cmap.neighbors(0) == [1, 2]


class TestQasm:
    def test_roundtrip_bell(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure([0, 1], [0, 1])
        text = circuit_to_qasm(qc)
        assert "OPENQASM 2.0" in text
        rt = qasm_to_circuit(text)
        assert rt == qc or [i.name for i in rt] == [i.name for i in qc]

    def test_roundtrip_with_conditions(self):
        qc = teleportation()
        rt = qasm_to_circuit(circuit_to_qasm(qc))
        conditions = [i.condition for i in rt if i.condition]
        assert conditions == [(1, 1), (0, 1)]

    def test_roundtrip_parameterised(self):
        qc = QuantumCircuit(1)
        qc.rx(0.75, 0)
        qc.p(3.14159, 0)
        rt = qasm_to_circuit(circuit_to_qasm(qc))
        assert rt.instructions[0].params[0] == pytest.approx(0.75)

    def test_pi_angles_serialised_symbolically(self):
        import math

        qc = QuantumCircuit(1)
        qc.rz(math.pi / 2, 0)
        assert "pi/2" in circuit_to_qasm(qc)

    def test_multiple_registers_flattened(self):
        text = """
        OPENQASM 2.0;
        qreg a[1];
        qreg b[2];
        creg c[1];
        x b[1];
        measure b[1] -> c[0];
        """
        qc = qasm_to_circuit(text)
        assert qc.num_qubits == 3
        assert qc.instructions[0].qubits == (2,)

    def test_unknown_gate_rejected(self):
        with pytest.raises(QasmError):
            qasm_to_circuit("OPENQASM 2.0;\nqreg q[1];\nmystery q[0];")

    def test_unsafe_expression_rejected(self):
        with pytest.raises(QasmError):
            qasm_to_circuit(
                'OPENQASM 2.0;\nqreg q[1];\nrx(__import__("os")) q[0];'
            )

    def test_no_qreg_rejected(self):
        with pytest.raises(QasmError):
            qasm_to_circuit("OPENQASM 2.0;\ncreg c[1];")


class TestLegacySurface:
    def test_execute_raises_with_migration(self):
        with pytest.raises(QuantumDeprecationError, match="backend.run"):
            legacy.execute(None, None)

    def test_aer_attribute_access_raises(self):
        with pytest.raises(QuantumDeprecationError, match="LocalSimulator"):
            legacy.Aer.get_backend("qasm_simulator")

    def test_basicaer_call_raises(self):
        with pytest.raises(QuantumDeprecationError):
            legacy.BasicAer()

    def test_ibmq_raises(self):
        with pytest.raises(QuantumDeprecationError, match="Backend"):
            legacy.IBMQ.load_account()

    def test_get_statevector_raises(self):
        with pytest.raises(QuantumDeprecationError, match="from_circuit"):
            legacy.get_statevector(None)

    def test_all_symbols_have_hints(self):
        for symbol, hint in legacy.LEGACY_SYMBOLS.items():
            assert hint, symbol

    def test_importable_from_package(self):
        from repro.quantum import Aer, execute  # noqa: F401
