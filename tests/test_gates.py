"""``gates.matmul2``, the 2x2 product of the stack paths, against ``@``;
``pauli_vectors`` against traces and ``pauli_dot``; the row norms against
their one-vector forms; ``Gate``'s repr."""

import math

import numpy as np
import pytest

from remotegate import gates
from remotegate.gates import (
    CNOT,
    PAULIS,
    Gate,
    H,
    matmul2,
    pauli_dot,
    pauli_vectors,
    sigma_z,
    unit_rows,
    unit_vector,
    vector_norm,
)
from remotegate.tolerances import NORM_TOL

EPS = np.finfo(float).eps


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# the operand shapes the package multiplies: a stack by one matrix on either
# side, densities against the three Paulis, sets of operators by their
# daggers, and one matrix, alone or as a stack of one
SHAPES = [
    ((200, 2, 2), (2, 2)),
    ((2, 2), (200, 2, 2)),
    ((200, 1, 2, 2), (3, 2, 2)),
    ((20, 10, 2, 2), (20, 10, 2, 2)),
    ((1, 2, 2), (2, 2)),
    ((1, 2, 2), (1, 2, 2)),
    ((2, 2), (2, 2)),
]


@pytest.mark.parametrize("a_shape, b_shape", SHAPES, ids=str)
def test_matches_the_matmul_operator(a_shape, b_shape):
    """Within 4 eps |a| |b| (Frobenius norms) of each pair's ``@``."""
    rng = np.random.default_rng(19)
    a, b = _complex(rng, a_shape), _complex(rng, b_shape)
    got, want = matmul2(a, b), a @ b
    assert got.shape == want.shape and got.dtype == want.dtype
    bound = 4 * EPS * np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(b, axis=(-2, -1))
    assert (np.abs(got - want).max(axis=(-2, -1)) <= bound).all()


@pytest.mark.parametrize("a_shape, b_shape", SHAPES[:4], ids=str)
def test_each_row_is_its_own_product_bit_for_bit(a_shape, b_shape):
    rng = np.random.default_rng(20)
    a, b = _complex(rng, a_shape), _complex(rng, b_shape)
    stack = matmul2(a, b)
    a, b = np.broadcast_to(a, stack.shape), np.broadcast_to(b, stack.shape)
    for index in np.ndindex(stack.shape[:-2]):
        one = matmul2(a[index], b[index])
        assert np.array_equal(stack[index].view(np.uint64), one.view(np.uint64)), index


def test_a_nan_stays_in_its_row():
    rng = np.random.default_rng(21)
    a = _complex(rng, (50, 2, 2))
    a[17, 1, 0] = np.nan
    clean = np.arange(50) != 17
    for got in (matmul2(a, sigma_z), matmul2(sigma_z, a), matmul2(a, a.conj().swapaxes(1, 2))):
        assert np.isfinite(got[clean]).all()
        assert np.isnan(got[17]).any()


# ---------------------------------------------------------------------------
# Pauli vectors: matrix -> vector, the inverse of pauli_dot


def test_pauli_vectors_are_the_traces_against_the_paulis():
    """Re tr(M s) / 2 per Pauli, the trace taken in the test, within 1e-15 on
    1,000 seeded complex matrices with entries in the unit square: not
    Hermitian, not traceless."""
    rng = np.random.default_rng(40)
    m = rng.uniform(-1, 1, (1000, 2, 2)) + 1j * rng.uniform(-1, 1, (1000, 2, 2))
    want = np.array([[np.trace(one @ p).real / 2 for p in PAULIS] for one in m])
    got = pauli_vectors(m)
    assert got.shape == (1000, 3) and got.dtype == float
    assert np.abs(got - want).max() <= 1e-15


def test_each_pauli_vector_is_its_matrix_alone_bit_for_bit():
    rng = np.random.default_rng(41)
    m = _complex(rng, (20, 10, 2, 2))
    stack = pauli_vectors(m)
    assert stack.shape == (20, 10, 3)
    for index in np.ndindex(m.shape[:-2]):
        assert np.array_equal(_bits(pauli_vectors(m[index])), _bits(stack[index])), index


def test_pauli_vectors_invert_pauli_dot():
    """Back to v within 2 ulps of its largest component, on 1,000 seeded
    vectors and the signed unit vectors."""
    rng = np.random.default_rng(42)
    vecs = np.concatenate([rng.normal(size=(1000, 3)), np.eye(3), -np.eye(3)])
    back = pauli_vectors(pauli_dot(vecs))
    assert (np.abs(back - vecs).max(axis=1) <= 2 * EPS * np.abs(vecs).max(axis=1)).all()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pauli_dot([1.0, 0.0]), r"^expected a 3-vector, got shape \(2,\)$"),
        (lambda: pauli_dot(np.zeros((2, 4))), r"^expected a 3-vector, got shape \(2, 4\)$"),
        (lambda: Gate(np.eye(3), "three"), r"^gate must be 2x2 or 4x4, got shape \(3, 3\)$"),
        (lambda: Gate(np.eye(2)[None], "stack"), r"^gate must be 2x2 or 4x4, got shape \(1, 2, 2\)$"),
    ],
    ids=["pauli_dot_2_vector", "pauli_dot_4_vectors", "gate_3x3", "gate_stack"],
)
def test_a_value_of_the_wrong_shape_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# row norms: each row as its one-vector form, bit for bit


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint64)


def _norm_rows(kind: str, rng) -> np.ndarray:
    """Stacks of complex (N, 2) or real (N, 3) rows: 0 rows, 1 row, 1,000
    seeded rows, and rows holding 1e200, inf, nan or only zeros."""
    width = {"complex": 2, "real": 3}[kind]

    def draw(n):
        if kind == "real":
            return rng.normal(size=(n, width))
        return rng.normal(size=(n, width)) + 1j * rng.normal(size=(n, width))

    edge = draw(7)
    edge[0] = 1e200
    edge[1, 0] = -1e200
    edge[2, -1] = np.inf
    edge[3, 0] = np.nan
    edge[4, 1] = -np.inf
    edge[5] = 0
    return {"0 rows": draw(0), "1 row": draw(1), "1,000 rows": draw(1000), "edge rows": edge}


NORM_CASES = [(kind, name) for kind in ("complex", "real") for name in ("0 rows", "1 row", "1,000 rows", "edge rows")]


@pytest.mark.parametrize("kind, name", NORM_CASES, ids=[f"{k}-{n}" for k, n in NORM_CASES])
def test_row_norms_are_each_rows_vector_norm_bit_for_bit(kind, name):
    rows = _norm_rows(kind, np.random.default_rng(36))[name]
    want = np.array([vector_norm(row) for row in rows], dtype=float)
    assert np.array_equal(_bits(np.array(gates._row_hypots(rows), dtype=float)), _bits(want))


@pytest.mark.parametrize("kind, name", NORM_CASES, ids=[f"{k}-{n}" for k, n in NORM_CASES])
def test_unit_rows_are_each_rows_unit_vector_bit_for_bit(kind, name):
    """A finite row is its ``unit_vector``, or zeros and not ok where that
    is None; a row holding inf or nan is zeros and not ok."""
    rows = _norm_rows(kind, np.random.default_rng(36))[name]
    unit, ok = unit_rows(rows, NORM_TOL)
    want_unit, want_ok = np.zeros_like(rows), np.zeros(len(rows), dtype=bool)
    for n, row in enumerate(rows):
        one = unit_vector(row, NORM_TOL) if np.isfinite(row).all() else None
        if one is not None:
            want_unit[n], want_ok[n] = one, True
    assert unit.dtype == rows.dtype and unit.shape == rows.shape
    assert np.array_equal(ok, want_ok)
    assert np.array_equal(_bits(unit), _bits(want_unit))
    if name == "edge rows":
        assert ok.tolist() == [True, True, False, False, False, False, True]


def test_row_hypots_give_the_per_row_comprehensions_bytes():
    """``_row_hypots``' map over the columns gives the bytes of one
    ``math.hypot(*row)`` per row on 100,000 seeded rows."""
    rng = np.random.default_rng(37)
    rows = rng.normal(size=(100_000, 2)) + 1j * rng.normal(size=(100_000, 2))
    per_row = [math.hypot(*row) for row in rows.view(float).tolist()]
    assert np.array(gates._row_hypots(rows)).tobytes() == np.array(per_row).tobytes()


def test_a_gate_repr_gives_its_name_apart_from_its_size():
    assert [repr(H), repr(CNOT), repr(Gate(sigma_z))] == ["Gate('h', 2x2)", "Gate('cnot', 4x4)", "Gate(2x2)"]
