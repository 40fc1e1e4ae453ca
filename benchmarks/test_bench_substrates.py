"""Substrate micro-benchmarks: simulator, tableau, transpiler, decoder, RAG.

These are conventional pytest-benchmark timings (multiple rounds) over the
performance-critical inner loops that every experiment above sits on.
"""

import numpy as np

from repro.llm.model import make_model
from repro.qec.codes.surface import SurfaceCode
from repro.qec.matching import MWPMDecoder
from repro.qec.syndrome import sample_memory
from repro.quantum.backend import FakeBrisbane, LocalSimulator
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.library import ghz_state, qft, random_circuit
from repro.quantum.simulator import _run_trajectory, simulate_counts
from repro.quantum.statevector import Statevector
from repro.quantum.transpiler import transpile
from repro.rag.retriever import Retriever
from repro.stabilizer.tableau import StabilizerTableau


def test_bench_statevector_evolution(benchmark):
    qc = qft(10)
    result = benchmark(Statevector.from_circuit, qc)
    assert result.num_qubits == 10


def test_bench_noisy_sampling(benchmark):
    backend = FakeBrisbane()
    tqc = transpile(ghz_state(4, measure=True), backend=backend)

    def run():
        return backend.run(tqc, shots=200, seed=3).result().get_counts()

    counts = benchmark(run)
    assert sum(counts.values()) == 200


def test_bench_ideal_sampling(benchmark):
    backend = LocalSimulator()
    qc = ghz_state(10, measure=True)

    def run():
        return backend.run(qc, shots=2048, seed=5).result().get_counts()

    counts = benchmark(run)
    assert set(counts) == {"0" * 10, "1" * 10}


def test_bench_mid_circuit_measurement(benchmark):
    """Teleport |1> with mid-circuit measures and conditional x/z corrections.

    The measurement-heavy trajectory path: every shot collapses two qubits
    mid-circuit and the corrections apply only to the matching shots.
    """
    qc = QuantumCircuit(3, 3)
    qc.x(0)
    qc.h(1)
    qc.cx(1, 2)
    qc.cx(0, 1)
    qc.h(0)
    qc.measure(0, 0)
    qc.measure(1, 1)
    qc.append("x", [2], condition=(1, 1))
    qc.append("z", [2], condition=(0, 1))
    qc.measure(2, 2)

    def run():
        return simulate_counts(qc, 1024, np.random.default_rng(17), memory=True)

    counts, memory = benchmark(run)
    reference_rng = np.random.default_rng(17)
    assert memory == [_run_trajectory(qc, None, reference_rng) for _ in range(1024)]
    assert sum(counts.values()) == 1024 and len(counts) == 4
    assert all(bits[0] == "1" for bits in memory)  # Bob's clbit 2 is leftmost


def test_bench_transpile_brisbane(benchmark):
    backend = FakeBrisbane()
    qc = random_circuit(6, depth=12, seed=2, measure=True)
    tqc = benchmark(transpile, qc, backend=backend)
    assert tqc.num_qubits == 127


def test_bench_tableau_surface_round(benchmark):
    """One thousand tableau gates on a 49-qubit register."""

    def run():
        t = StabilizerTableau(49, rng=np.random.default_rng(1))
        for i in range(48):
            t.h(i)
            t.cx(i, i + 1)
        for i in range(0, 48, 2):
            t.measure(i)
        return t

    benchmark(run)


def test_bench_mwpm_decode(benchmark):
    code = SurfaceCode(5)
    decoder = MWPMDecoder(code, "x")
    rng = np.random.default_rng(7)
    history = sample_memory(code, rounds=5, p_data=0.03, p_meas=0.03, rng=rng)

    result = benchmark(decoder.decode, history)
    residual = history.true_error ^ result.correction
    assert not code.syndrome(residual, "x").any()


def test_bench_generation(benchmark):
    model = make_model(fine_tuned=True)
    prompt = "Create a Bell state and measure both qubits on a simulator"

    def run():
        return model.generate(prompt, np.random.default_rng(11), params={})

    completion = benchmark(run)
    assert completion.family == "bell"


def test_bench_retrieval(benchmark):
    retriever = Retriever()
    hits = benchmark(retriever.retrieve, "how to run a circuit and get counts")
    assert hits
