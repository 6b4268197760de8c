"""Qubit gate matrices and the unitary :class:`Gate` wrapper.

Module-level constants hold the raw 2x2 Pauli / Hadamard matrices (used by
the operator-algebra and Bloch modules) alongside ready-made :class:`Gate`
instances for the statevector engine, plus the finite-input helpers the
other modules share (``require_finite``, ``vector_norm``, ``unit_vector``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tolerances import UNITARY_TOL

identity2 = np.eye(2, dtype=complex)
sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
sigma_z = np.array([[1, 0], [0, -1]], dtype=complex)
hadamard_matrix = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# Control qubit is the first (most significant) of the two targets.
cnot_matrix = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

PAULIS = (sigma_x, sigma_y, sigma_z)


def require_finite(name: str, values) -> None:
    """Raise ValueError naming the first entry of ``values`` that is NaN or
    infinite, e.g. ``psi[1] is not finite: nan``."""
    arr = np.asarray(values)
    finite = np.isfinite(arr)
    if not finite.all():
        idx = np.unravel_index(int(np.argmin(finite)), arr.shape)
        where = f"[{', '.join(str(i) for i in idx)}]" if idx else ""
        raise ValueError(f"{name}{where} is not finite: {arr[idx].item()!r}")


def vector_norm(values) -> float:
    """Euclidean norm of finite real or complex ``values``. ``math.hypot``
    scales before squaring, so ``|[1e200, 1e200]|`` is 1.41e200 where a
    plain sum of squares overflows to inf."""
    return math.hypot(*np.asarray(values, dtype=complex).ravel().view(float).tolist())


def unit_vector(values, floor: float):
    """``values`` divided by their Euclidean norm, or None when that norm is
    below ``floor``. The entries must be finite; any finite size works,
    ``[1e200, 1e200]`` gives ``[0.707, 0.707]``, not ``[0, 0]``."""
    v = np.asarray(values)
    norm = vector_norm(v)
    if not norm >= floor:
        return None
    if norm == math.inf:  # the norm is beyond the float range, the direction is not
        v = v / max(np.abs(v.real).max(), np.abs(v.imag).max())
        norm = vector_norm(v)
    return v / norm


def pauli_dot(vec) -> np.ndarray:
    """Return ``vec[0]*sigma_x + vec[1]*sigma_y + vec[2]*sigma_z``."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v[0] * sigma_x + v[1] * sigma_y + v[2] * sigma_z


@dataclass(frozen=True, eq=False)
class Gate:
    """A 1- or 2-qubit unitary, checked against G†G = 1 on construction."""

    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"gate must be 2x2 or 4x4, got shape {m.shape}")
        dim = m.shape[0]
        if not np.abs(m.conj().T @ m - np.eye(dim)).max() <= UNITARY_TOL:
            raise ValueError(f"gate {self.name!r} is not unitary within {UNITARY_TOL}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def qubits(self) -> int:
        """Number of qubits the gate acts on (1 or 2)."""
        return 1 if self.dimension == 2 else 2

    def __repr__(self):
        return f"Gate({self.name or self.dimension}x{self.dimension})"


def controlled(u: np.ndarray, name: str = "") -> Gate:
    """Two-qubit gate applying ``u`` to the second qubit when the first is |1>."""
    u = np.asarray(u, dtype=complex)
    block = np.eye(4, dtype=complex)
    block[2:, 2:] = u
    return Gate(block, name or "controlled")


def controlled_phase(phi: float) -> Gate:
    """diag(1, 1, 1, e^{i phi}) on a qubit pair."""
    return Gate(np.diag([1, 1, 1, np.exp(1j * phi)]), f"cphase({phi:g})")


X = Gate(sigma_x, "x")
Y = Gate(sigma_y, "y")
Z = Gate(sigma_z, "z")
H = Gate(hadamard_matrix, "h")
CNOT = Gate(cnot_matrix, "cnot")
