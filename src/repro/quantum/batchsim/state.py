"""Batched dense statevectors: ``(batch, 2**n)`` state evolved in lockstep.

The batch axis must not perturb numerics: batched executions feed the same
content-addressed result cache as serial ones.  There is no batch kernel of
its own: :func:`repro.quantum.statevector.apply_matrix` takes a flat state or
a ``(batch, 2**n)`` stack and issues the identical per-row GEMM either way,
so every row matches its serial twin bit for bit.  Its docstring records why
the batch must never be folded into the matmul's column dimension.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.quantum.statevector import apply_matrix

#: The one gate kernel under its batch-facing name: ``apply_matrix`` takes a
#: ``(batch, 2**n)`` stack as readily as a flat state.
batch_apply_matrix = apply_matrix


class BatchStatevector:
    """A stack of dense n-qubit states evolved gate-by-gate in lockstep."""

    __slots__ = ("_data", "_num_qubits")

    def __init__(self, data: np.ndarray) -> None:
        arr = np.ascontiguousarray(data, dtype=np.complex128)
        if arr.ndim != 2:
            raise SimulationError(
                f"batched statevector must be 2-D (batch, 2**n), got {arr.ndim}-D"
            )
        n = int(round(math.log2(arr.shape[1]))) if arr.shape[1] else 0
        if arr.shape[1] == 0 or 2**n != arr.shape[1]:
            raise SimulationError(
                f"batched statevector row length {arr.shape[1]} is not a "
                "power of two"
            )
        self._data = arr
        self._num_qubits = n

    @classmethod
    def zero_states(cls, batch: int, num_qubits: int) -> "BatchStatevector":
        """``batch`` copies of |0...0>, ready to evolve."""
        data = np.zeros((batch, 2**num_qubits), dtype=np.complex128)
        data[:, 0] = 1.0
        return cls(data)

    @property
    def batch_size(self) -> int:
        return self._data.shape[0]

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    def apply(self, matrix: np.ndarray, targets: Sequence[int]) -> None:
        """Apply one unitary to every row in place."""
        self._data = apply_matrix(
            self._data, matrix, targets, self._num_qubits
        )

    def apply_rows(
        self, rows: Sequence[int], matrix: np.ndarray, targets: Sequence[int]
    ) -> None:
        """Apply one unitary to a subset of rows (gather, evolve, scatter).

        The gathered sub-batch is a fresh contiguous block, so the kernel's
        per-row GEMM shape — and with it bit-identity — is unchanged.
        """
        if not len(rows):
            return
        sub = self._data[rows]
        self._data[rows] = apply_matrix(
            sub, matrix, targets, self._num_qubits
        )

    def row(self, index: int) -> np.ndarray:
        """A copy of one row's flat amplitudes."""
        return self._data[index].copy()

    def __repr__(self) -> str:
        return (
            f"BatchStatevector(batch={self.batch_size}, "
            f"num_qubits={self._num_qubits})"
        )
