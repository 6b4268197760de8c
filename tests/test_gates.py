"""``gates.matmul2``, the 2x2 product of the stack paths, against ``@``."""

import numpy as np
import pytest

from remotegate.gates import matmul2, sigma_z

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
