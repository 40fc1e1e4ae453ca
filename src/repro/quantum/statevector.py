"""Dense statevector representation and evolution.

States are flat complex vectors of length ``2**n`` in little-endian qubit
order: bit ``i`` of the basis index is qubit ``i``.  Bitstring keys returned by
:meth:`Statevector.probabilities_dict` put qubit 0 rightmost, matching Qiskit's
convention, so generated code graded against Qiskit-style references behaves
identically.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.quantum.circuit import QuantumCircuit

_ATOL = 1e-10


def apply_matrix(
    state: np.ndarray,
    matrix: np.ndarray,
    targets: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` unitary to ``targets`` of an ``n``-qubit state.

    ``state`` is one flat state or a ``(batch, 2**n)`` stack; returns a new
    array of the same shape.  The *first* qubit in ``targets`` is the
    least-significant bit of the matrix index.

    A flat state runs as a batch of one: the rows are packed as ``(batch,
    2**k, rest)`` and multiplied with one stacked ``np.matmul``, so every row
    is the same GEMM whatever the batch size and equals its flat twin bit for
    bit (results feed the content-addressed cache, where a last-ulp change
    shifts sampled counts).  Folding the batch into the matmul's *columns*,
    ``matrix @ (2**k, batch * rest)``, changes the BLAS kernel and the
    summation order (~1e-16 on a third of random trials).  Do not "simplify"
    the kernel into that form; ``tools/repo_lint.py`` rule R003 flags it.
    """
    k = len(targets)
    if matrix.shape != (2**k, 2**k):
        raise SimulationError(
            f"matrix shape {matrix.shape} does not match {k} target qubit(s)"
        )
    rows = state.reshape(-1, 2**num_qubits)
    batch = rows.shape[0]
    perm, inverse = _axis_permutation(num_qubits, tuple(targets))
    tensor = rows.reshape((batch,) + (2,) * num_qubits).transpose(perm)
    stacked = np.ascontiguousarray(tensor).reshape(batch, 2**k, -1)
    stacked = np.matmul(matrix, stacked)
    tensor = stacked.reshape((batch,) + (2,) * num_qubits).transpose(inverse)
    return tensor.reshape(state.shape)


@functools.lru_cache(maxsize=4096)
def _axis_permutation(
    num_qubits: int, targets: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Transpose orders moving ``targets`` to the front of a row tensor, and back.

    Axis ``1 + j`` of the ``(batch, 2, ..., 2)`` tensor is qubit
    ``num_qubits - 1 - j``.  The row index after the reshape treats the first
    moved axis as its MSB and our matrices treat ``targets[0]`` as the LSB,
    so the *reversed* target axes go to the front.  Cached: ``np.moveaxis``
    argument checks, not data movement, dominated 3-5 qubit gates.
    """
    front = [num_qubits - t for t in reversed(targets)]
    perm = (0, *front, *(a for a in range(1, num_qubits + 1) if a not in front))
    return perm, tuple(perm.index(axis) for axis in range(len(perm)))


@functools.lru_cache(maxsize=256)
def _one_mask(num_qubits: int, qubit: int) -> np.ndarray:
    """Read-only mask of the basis indices whose ``qubit`` bit is 1."""
    mask = (np.arange(2**num_qubits) & (1 << qubit)) != 0
    mask.setflags(write=False)
    return mask


def _pairwise_row_sums(values: np.ndarray) -> np.ndarray:
    """Sum each row of a ``(rows, 2**k)`` float array in numpy's flat order.

    A flat ``x.sum()`` is numpy's pairwise summation: below 8 elements, a
    sequential add; up to 128, eight accumulators over strided columns,
    combined as ``((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))``; above that, the
    first half's sum plus the second's, each recursed.  An axis reduction
    (``values.sum(axis=1)``) sums pairwise only along the fast axis, so its
    order follows memory layout: on the column-major gather ``probs[:,
    mask]`` it adds each row sequentially and drifts in the last ulp from 8
    elements on.  This replays the flat order on every row at once,
    whatever the layout.  ``np.add.accumulate`` is sequential by definition,
    so its last entry is each sequential running sum (the flat loop's
    leading ``0.0 +`` is exact: squared magnitudes are never ``-0.0``).
    With power-of-two rows every 128-element block is a leaf of the
    recursion, and adding adjacent pairs level by level walks the same
    tree: first each block's accumulators, then neighbouring blocks.
    """
    rows, size = values.shape
    if size < 8:
        return np.add.accumulate(values, axis=1)[:, -1]
    blocks = values.reshape(-1, min(size, 128) // 8, 8)
    sums = np.add.accumulate(blocks, axis=1)[:, -1].reshape(rows, -1)
    while sums.shape[1] > 1:
        sums = sums[:, 0::2] + sums[:, 1::2]
    return sums[:, 0]


def measure_probabilities(
    state: np.ndarray, qubit: int, num_qubits: int
) -> float | np.ndarray:
    """Return P(qubit = 1) of a flat state, or of every row of a stack.

    ``state`` is one flat state (returns a ``float``) or a ``(batch,
    2**n)`` stack (returns a ``(batch,)`` array).  Each row's probability
    equals the flat ``float((np.abs(row) ** 2)[mask].sum())`` bit for bit:
    the masked probabilities are summed in numpy's flat pairwise order
    (:func:`_pairwise_row_sums`), never by an axis reduction, because the
    shot-batched trajectory path compares every row's value against a
    uniform draw exactly as the per-shot path does.
    """
    probs = np.abs(state.reshape(-1, 2**num_qubits)) ** 2
    rows = len(probs)
    # Axis 2 is ``qubit``'s bit: index 1 keeps the bit-1 amplitudes in
    # ascending order, as a boolean mask would, without a fancy-index gather.
    ones = probs.reshape(rows, -1, 2, 2**qubit)[:, :, 1, :]
    p1 = _pairwise_row_sums(ones.reshape(rows, -1))
    return float(p1[0]) if state.ndim == 1 else p1


def collapse(
    state: np.ndarray,
    qubit: int,
    outcome: int | np.ndarray,
    num_qubits: int,
) -> np.ndarray:
    """Project onto ``qubit == outcome`` and renormalise, flat or per row.

    ``state`` is one flat state with an ``int`` outcome, or a ``(batch,
    2**n)`` stack with one outcome per row; returns a new array of the same
    shape.  Each row's norm is the ``ddot`` of its real parts plus that of
    its imaginary parts, one stacked ``np.matmul`` of ``(1, 2**n) @ (2**n,
    1)`` per row: the same BLAS call ``np.linalg.norm`` makes on a flat
    state, so a collapsed row equals its flat twin bit for bit.
    """
    rows = state.reshape(-1, 2**num_qubits)
    outcomes = np.asarray(outcome, dtype=bool).reshape(-1)
    new = np.where(_one_mask(num_qubits, qubit) == outcomes[:, None], rows, 0.0)
    real, imag = new.real, new.imag
    squared = np.matmul(real[:, None, :], real[:, :, None]) + np.matmul(
        imag[:, None, :], imag[:, :, None]
    )
    norm = np.sqrt(squared.reshape(-1, 1))
    if norm.min() < _ATOL:
        first = int(np.argmax(norm < _ATOL))
        raise SimulationError(
            f"collapse onto qubit {qubit}={int(outcomes[first])} has zero "
            "probability"
        )
    return (new / norm).reshape(state.shape)


class Statevector:
    """An immutable-by-convention dense quantum state."""

    def __init__(self, data: Sequence[complex] | np.ndarray) -> None:
        arr = np.asarray(data, dtype=np.complex128).reshape(-1)
        n = int(round(math.log2(arr.size)))
        if 2**n != arr.size:
            raise SimulationError(
                f"statevector length {arr.size} is not a power of two"
            )
        norm = np.linalg.norm(arr)
        if norm < _ATOL:
            raise SimulationError("statevector has zero norm")
        if abs(norm - 1.0) > 1e-8:
            arr = arr / norm
        self._data = arr
        self._num_qubits = n

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero_state(cls, num_qubits: int) -> "Statevector":
        data = np.zeros(2**num_qubits, dtype=np.complex128)
        data[0] = 1.0
        return cls(data)

    @classmethod
    def from_label(cls, label: str) -> "Statevector":
        """Build a product state from a label like ``'010'`` or ``'+-0'``.

        The leftmost character is the highest-indexed qubit (Qiskit order).
        Supported characters: ``0 1 + - r l`` (r/l are the ±i Y eigenstates).
        """
        single = {
            "0": np.array([1, 0], dtype=np.complex128),
            "1": np.array([0, 1], dtype=np.complex128),
            "+": np.array([1, 1], dtype=np.complex128) / math.sqrt(2),
            "-": np.array([1, -1], dtype=np.complex128) / math.sqrt(2),
            "r": np.array([1, 1j], dtype=np.complex128) / math.sqrt(2),
            "l": np.array([1, -1j], dtype=np.complex128) / math.sqrt(2),
        }
        state = np.array([1.0], dtype=np.complex128)
        for ch in label:  # leftmost char is the most significant qubit
            if ch not in single:
                raise SimulationError(f"unknown state label character '{ch}'")
            state = np.kron(state, single[ch])
        return cls(state)

    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "Statevector":
        """Evolve |0...0> through a circuit's unitary instructions.

        Trailing measurements are ignored (they are the common
        ``measure_all`` idiom); mid-circuit measure/reset raise
        :class:`SimulationError` because the result would not be a pure state.
        """
        trimmed = circuit.remove_final_measurements()
        for inst in trimmed:
            if inst.name in ("measure", "reset"):
                raise SimulationError(
                    "Statevector.from_circuit cannot simulate mid-circuit "
                    f"'{inst.name}'; use a backend with shots instead"
                )
        return cls.zero_state(circuit.num_qubits).evolve(trimmed)

    # -- properties -----------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        return self._data.copy()

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    def __len__(self) -> int:
        return self._data.size

    # -- evolution --------------------------------------------------------------

    def evolve(self, circuit: QuantumCircuit) -> "Statevector":
        """Return the state after applying every unitary instruction."""
        if circuit.num_qubits != self._num_qubits:
            raise SimulationError(
                f"circuit acts on {circuit.num_qubits} qubits, state has "
                f"{self._num_qubits}"
            )
        state = self._data.copy()
        for inst in circuit:
            if inst.name == "barrier":
                continue
            if not inst.is_unitary:
                raise SimulationError(
                    f"evolve() only handles unitary gates, found '{inst.name}'"
                )
            state = apply_matrix(state, inst.matrix(), inst.qubits, self._num_qubits)
        return Statevector(state)

    # -- measurement statistics ---------------------------------------------------

    def probabilities(self, qargs: Sequence[int] | None = None) -> np.ndarray:
        """Probability vector over all (or a subset of) qubits.

        With ``qargs`` the result is the marginal over those qubits, indexed
        little-endian in ``qargs`` order.
        """
        probs = np.abs(self._data) ** 2
        if qargs is None:
            return probs
        n = self._num_qubits
        out = np.zeros(2 ** len(qargs))
        indices = np.arange(2**n)
        sub = np.zeros_like(indices)
        for pos, q in enumerate(qargs):
            sub |= ((indices >> q) & 1) << pos
        np.add.at(out, sub, probs)
        return out

    def probabilities_dict(
        self, qargs: Sequence[int] | None = None, atol: float = 1e-12
    ) -> dict[str, float]:
        qargs = list(qargs) if qargs is not None else list(range(self._num_qubits))
        probs = self.probabilities(qargs)
        width = len(qargs)
        return {
            format(i, f"0{width}b"): float(p)
            for i, p in enumerate(probs)
            if p > atol
        }

    def sample_counts(
        self, shots: int, rng: np.random.Generator, qargs: Sequence[int] | None = None
    ) -> dict[str, int]:
        """Sample measurement outcomes; returns bitstring -> count."""
        qargs = list(qargs) if qargs is not None else list(range(self._num_qubits))
        probs = self.probabilities(qargs)
        probs = probs / probs.sum()
        outcomes = rng.multinomial(shots, probs)
        width = len(qargs)
        return {
            format(i, f"0{width}b"): int(c)
            for i, c in enumerate(outcomes)
            if c > 0
        }

    # -- comparisons / algebra ----------------------------------------------------

    def inner(self, other: "Statevector") -> complex:
        """The inner product <self|other>."""
        if other.num_qubits != self._num_qubits:
            raise SimulationError("statevector sizes differ")
        return complex(np.vdot(self._data, other._data))

    def fidelity(self, other: "Statevector") -> float:
        return abs(self.inner(other)) ** 2

    def equiv(self, other: "Statevector", atol: float = 1e-8) -> bool:
        """True when the states are equal up to global phase."""
        return self.fidelity(other) > 1.0 - atol

    def expectation_value(self, pauli: str) -> float:
        """Expectation of a Pauli string like ``'ZZI'``.

        Leftmost character acts on the highest-indexed qubit (Qiskit order).
        """
        from repro.quantum import gates as _g

        if len(pauli) != self._num_qubits:
            raise SimulationError(
                f"Pauli string length {len(pauli)} != {self._num_qubits} qubits"
            )
        mats = {"I": _g.I_MATRIX, "X": _g.X_MATRIX, "Y": _g.Y_MATRIX, "Z": _g.Z_MATRIX}
        state = self._data.copy()
        for pos, ch in enumerate(reversed(pauli.upper())):
            if ch not in mats:
                raise SimulationError(f"unknown Pauli character '{ch}'")
            if ch != "I":
                state = apply_matrix(state, mats[ch], [pos], self._num_qubits)
        return float(np.real(np.vdot(self._data, state)))

    def global_phase_aligned(self) -> "Statevector":
        """Return the state with its first nonzero amplitude made real-positive."""
        idx = int(np.argmax(np.abs(self._data) > _ATOL))
        phase = cmath.phase(complex(self._data[idx]))
        return Statevector(self._data * cmath.exp(-1j * phase))

    def __repr__(self) -> str:
        return f"Statevector(num_qubits={self._num_qubits})"
