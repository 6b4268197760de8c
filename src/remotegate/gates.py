"""Qubit gate matrices and the unitary :class:`Gate` wrapper.

Module-level constants hold the raw 2x2 Pauli / Hadamard matrices (used by
the operator-algebra and Bloch modules) alongside ready-made :class:`Gate`
instances for the statevector engine, plus the input helpers the other
modules share (``require_finite``, ``require_finite_rows``,
``require_natural`` and the overflow-safe norms ``vector_norm``/
``unit_vector``, with ``_row_hypots``/``unit_rows`` applying them to each
row of a stack by one ``map`` of ``math.hypot`` over its columns, and
``dot_norms``, ``np.linalg.norm`` of each row of a stack), and ``matmul2``,
the product of 2x2 matrix stacks.
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

PAULIS = (sigma_x, sigma_y, sigma_z)


def not_finite(name: str, values) -> str | None:
    """The message naming the first entry of ``values`` that is NaN or
    infinite, e.g. ``psi[1] is not finite: nan``, or None if there is none.
    A complex entry with imaginary part 0 prints as its real part, as it
    was most likely written."""
    arr = np.asarray(values)
    finite = np.isfinite(arr)
    if finite.all():
        return None
    idx = np.unravel_index(int(np.argmin(finite)), arr.shape)
    where = f"[{', '.join(str(i) for i in idx)}]" if idx else ""
    value = arr[idx].item()
    if isinstance(value, complex) and value.imag == 0:
        value = value.real
    return f"{name}{where} is not finite: {value!r}"


def require_finite(name: str, values) -> None:
    """Raise ValueError with ``not_finite``'s message, if it has one."""
    message = not_finite(name, values)
    if message is not None:
        raise ValueError(message)


def require_natural(name: str, value) -> None:
    """Raise ValueError, naming ``value`` as ``name``, unless it is a
    non-negative integer (a ``bool`` is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


class RowError(ValueError):
    """A check failed on one row of a stack. ``message`` is what the same
    check says about a single value; the error text also names the row."""

    def __init__(self, row, message: str):
        super().__init__(f"row {row}: {message}")
        self.row, self.message = row, message


def _require_rows(ok: np.ndarray, message) -> None:
    """Raise ``RowError`` with ``message(n)`` for the first row n that ``ok`` fails, if any."""
    if not ok.all():
        n = int(np.argmin(ok))
        raise RowError(n, message(n))


def require_finite_rows(name: str, rows: np.ndarray) -> None:
    """Raise ``RowError`` with ``not_finite``'s message for the first row
    (along the first axis) of ``rows`` that holds a NaN or infinite entry."""
    _require_rows(np.isfinite(rows).all(axis=tuple(range(1, rows.ndim))), lambda n: not_finite(name, rows[n]))


class _SingleRow:
    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, RowError):
            raise ValueError(exc.message) from None


#: ``with single_row:`` reports a ``RowError`` raised on a stack of one value
#: as that value's ``ValueError``: the check's message, without the row. (A
#: class, not ``contextlib.contextmanager``: one configuration's run enters it
#: twice, and a generator costs several times as much per entry.)
single_row = _SingleRow()


def vector_norm(values) -> float:
    """Euclidean norm of finite real or complex ``values``. ``math.hypot``
    scales before squaring, so ``|[1e200, 1e200]|`` is 1.41e200 where a
    plain sum of squares overflows to inf."""
    return math.hypot(*np.asarray(values, dtype=complex).ravel().view(float).tolist())


def _row_hypots(rows: np.ndarray) -> list[float]:
    """``vector_norm`` of each row of an (N, d) array, d > 0: ``map`` calls
    ``math.hypot`` on the columns' entries of each row, the floats and the
    order ``vector_norm`` gives it, so each norm is that row's, bit for bit.
    On (N, 2) complex rows (2-core Intel Xeon 2.1 GHz, Python 3.11.7, numpy
    2.4.6) this takes about 170-200 us at N = 1,000, against 260-300 us
    for one ``hypot(*row)`` per row in a list comprehension; at N = 1 the
    transposed columns make it about 0.5 us dearer (2.1-2.4 against
    1.6-1.8 us)."""
    flat = np.ascontiguousarray(rows, dtype=complex).view(float)
    return list(map(math.hypot, *flat.T.tolist()))


def dot_norms(rows) -> np.ndarray:
    """``np.linalg.norm`` of each row (last axis) of a real array: the same
    BLAS dot product per row, so each norm equals that row's on its own, bit
    for bit. It does not scale, so the entries must be far from overflow."""
    rows = np.asarray(rows, dtype=float)
    return np.sqrt(rows[..., None, :] @ rows[..., :, None])[..., 0, 0]


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


def unit_rows(rows, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """``unit_vector`` of each row of an (N, d) array, as one array, and
    which rows have a norm of at least ``floor`` (the others, and rows that
    are not finite, come back as zeros). The norms are ``_row_hypots``' one
    ``math.hypot`` per row, mapped over the columns, and the division is
    done once for the stack, so each row equals its ``unit_vector``."""
    rows = np.asarray(rows)
    hypots = _row_hypots(rows)
    norms = np.array(hypots)
    ok = norms >= floor
    if ok.all() and math.inf not in hypots:  # every row divides as it is (a NaN norm fails ``ok``)
        return rows / norms[:, None], ok
    unit = np.zeros(rows.shape, np.result_type(rows, float))
    np.divide(rows, norms[:, None], out=unit, where=(ok & (norms < math.inf))[:, None])
    for n, norm in enumerate(hypots):
        if norm == math.inf:  # beyond the float range, or not finite
            ok[n] = np.isfinite(rows[n]).all()
            unit[n] = unit_vector(rows[n], floor) if ok[n] else 0.0
    return unit, ok


def matmul2(a, b) -> np.ndarray:
    """``a @ b`` where ``a``'s last axis and ``b``'s second-to-last have
    length 2, with ordinary broadcasting over the leading axes: each entry
    is the two-term sum a[i, 0] b[0, j] + a[i, 1] b[1, j], taken elementwise,
    so a row of a stack equals that row's product on its own, bit for bit.

    numpy's ``@`` calls BLAS once per matrix of a stack; this is a few
    ufunc calls for the whole stack. On 2x2 complex stacks (2-core Intel
    Xeon 2.1 GHz, numpy 2.4.6) it is about 70 against 370 us at 1,000
    matrices and breaks even at a few; on one matrix ``@`` is cheaper (about
    2.5 against 5 us). Matrix-vector products stay on ``@``."""
    out = a[..., :, :1] * b[..., :1, :]
    out += a[..., :, 1:] * b[..., 1:, :]
    return out


def pauli_dot(vec) -> np.ndarray:
    """Return ``vec[0]*sigma_x + vec[1]*sigma_y + vec[2]*sigma_z``, or that
    matrix for each vector of a (..., 3) stack, each as it would be on its own."""
    v = np.asarray(vec, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v[..., 0, None, None] * sigma_x + v[..., 1, None, None] * sigma_y + v[..., 2, None, None] * sigma_z


def pauli_vectors(m) -> np.ndarray:
    """Re (tr(M sx), tr(M sy), tr(M sz)) / 2 for each M of a (..., 2, 2)
    stack, as (..., 3): with off = m10 + m01*, (Re off, Im off, Re(m00 -
    m11)) / 2, read from the entries. ``pauli_dot``'s inverse."""
    m = np.asarray(m, dtype=complex)
    off = m[..., 1, 0] + m[..., 0, 1].conj()
    return np.stack([off.real, off.imag, (m[..., 0, 0] - m[..., 1, 1]).real], axis=-1) / 2.0


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
        size = f"{self.dimension}x{self.dimension}"
        return f"Gate({self.name!r}, {size})" if self.name else f"Gate({size})"


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
Z = Gate(sigma_z, "z")
H = Gate(hadamard_matrix, "h")
# Control qubit is the first (most significant) of the two targets.
CNOT = Gate(np.eye(4)[[0, 1, 3, 2]], "cnot")
