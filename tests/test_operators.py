import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from remotegate import (
    ANTICOMMUTING,
    COMMUTING,
    GENERAL,
    Unimodular,
    Z_AXIS,
    check_common_correction,
    classify_operator,
    find_common_axis,
    from_axis_angle,
    operators,
    orthogonal_state,
    pauli_dot,
    protocols,
    random_qubit,
    random_unimodular,
    rz,
    sigma_x,
    sigma_y,
    sigma_z,
    solve_correction,
    tolerances,
)
from remotegate.cli import parse_operator
from remotegate.gates import RowError, dot_norms, matmul2, pauli_vectors

HADAMARD_LIKE = Unimodular(1 / np.sqrt(2), 1 / np.sqrt(2))


def conjugate(w: Unimodular, u: Unimodular) -> Unimodular:
    return Unimodular.from_matrix(w.matrix @ u.matrix @ w.matrix.conj().T)


class TestUnimodular:
    def test_matrix_form(self):
        u = Unimodular(0.6, 0.8j)
        np.testing.assert_allclose(u.matrix, [[0.6, 0.8j], [0.8j, 0.6]])

    def test_rejects_off_sphere(self):
        with pytest.raises(ValueError, match="unimodular"):
            Unimodular(0.6, 0.81)

    @pytest.mark.parametrize("a, b, field", [(np.nan, 0, "a"), (0, np.inf, "b"), (complex(1, np.nan), 0, "a")])
    def test_rejects_non_finite_naming_field(self, a, b, field):
        with pytest.raises(ValueError, match=rf"Unimodular\.{field} is not finite"):
            Unimodular(a, b)

    @pytest.mark.parametrize(
        "a, shown",
        [
            (np.nan, "nan"),
            (-np.inf, "-inf"),
            (complex(np.nan, 0), "nan"),
            (complex(1, np.nan), "(1+nanj)"),
            (complex(np.inf, 2), "(inf+2j)"),
        ],
    )
    def test_non_finite_entry_is_shown_as_written(self, a, shown):
        with pytest.raises(ValueError, match=rf"^Unimodular\.a is not finite: {re.escape(shown)}$"):
            Unimodular(a, 0)

    def test_huge_entry_refused_with_residual(self):
        with pytest.raises(ValueError, match="deviates from 1 by inf"):
            Unimodular(1e200, 0)

    def test_a_finite_residual_is_named_without_reading_the_entries(self, monkeypatch):
        """A finite residual proves a and b finite, so ``not_finite`` reads
        them only when the residual is not; the messages are those of
        reading both entries first."""
        calls, original = [], operators.not_finite
        monkeypatch.setattr(operators, "not_finite", lambda *args: calls.append(args) or original(*args))
        assert operators.unimodular_error(0.6, 0.81, 1.61e-2) == "not unimodular: |a|^2 + |b|^2 deviates from 1 by 1.610e-02"
        assert calls == []
        assert operators.unimodular_error(1e200, 0, np.inf) == "not unimodular: |a|^2 + |b|^2 deviates from 1 by inf"
        assert operators.unimodular_error(0, complex(np.nan, 1), np.nan) == "Unimodular.b is not finite: (nan+1j)"
        assert len(calls) == 4

    @pytest.mark.parametrize(
        "pairs, row, message",
        [
            ([[1, 0], [0.6, 0.81], [0.6, 0.8]], "1", r"not unimodular: .* by 1\.610e-02$"),
            ([[1, 0], [0, np.nan]], "1", r"Unimodular\.b is not finite: nan$"),
            ([[[1, 0], [0, 1]], [[1e200, 0], [1, 0]]], "1, 0", r"deviates from 1 by inf$"),
        ],
    )
    def test_stack_names_the_first_bad_row(self, pairs, row, message):
        with pytest.raises(RowError, match=message) as info:
            operators.as_pairs(np.array(pairs, dtype=complex))
        assert info.value.row == row

    def test_stack_refuses_what_its_residuals_refuse(self, monkeypatch):
        """The stacked residual decides, even on a row a ``Unimodular`` of
        the same pair accepts, and the error quotes that residual."""
        residuals = operators.unimodular_residuals

        def strict(pairs):
            out = residuals(pairs)
            out[2] = 0.5
            return out

        monkeypatch.setattr(operators, "unimodular_residuals", strict)
        pairs = np.array([[1, 0], [0.6, 0.8], [0, 1j], [0, 1]], dtype=complex)
        Unimodular(*pairs[2])
        with pytest.raises(RowError, match=r"^row 2: not unimodular: .* by 5\.000e-01$"):
            operators.as_pairs(pairs)

    @pytest.mark.parametrize("mixed", [False, True], ids=["unimodular", "mixed"])
    def test_an_iterator_is_read_once(self, mixed):
        """An iterator gives the stack its list gives, also one that mixes
        ``Unimodular`` values and pairs: no row is lost to the form test."""
        us = [rz(0.1), (0.6, 0.8j) if mixed else Unimodular(0.6, 0.8j), rz(0.2)]
        want = operators.as_pairs(us)
        assert want.shape == (3, 2)
        assert operators.as_pairs(iter(us)).tobytes() == want.tobytes()

    def test_from_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        u = random_unimodular(rng)
        np.testing.assert_allclose(Unimodular.from_matrix(u.matrix).matrix, u.matrix)

    def test_from_matrix_rejects_non_special(self):
        with pytest.raises(ValueError, match="special-unitary"):
            Unimodular.from_matrix(sigma_z)  # det -1

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Unimodular.from_matrix(np.eye(3)), r"^expected a 2x2 matrix, got shape \(3, 3\)$"),
            (lambda: operators.as_pairs(np.array([1, 0], dtype=complex)), r"^expected a stack of \(a, b\) pairs, got shape \(2,\)$"),
        ],
        ids=["from_matrix_3x3", "as_pairs_1d"],
    )
    def test_a_value_of_the_wrong_shape_is_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_dagger_inverts(self):
        u = operators.random_unimodulars(np.random.default_rng(1), 1)
        np.testing.assert_allclose(operators.products(u, operators.daggers(u)), [(1, 0)], atol=1e-12)

    @given(st.floats(-8, 8), st.floats(-8, 8), st.floats(0, 2), st.floats(0, 2))
    def test_products_stay_unimodular(self, t1, t2, x1, x2):
        n1 = np.array([np.sin(x1), 0.0, np.cos(x1)])
        n2 = np.array([0.0, np.sin(x2), np.cos(x2)])
        a, b = operators.products(operators.from_axis_angles([n1], [t1]), operators.from_axis_angles([n2], [t2]))[0]
        assert abs(abs(a) ** 2 + abs(b) ** 2 - 1) < 1e-10

    def test_matmul_matches_matrix_product(self):
        """``products`` of one pair is the product of their matrices."""
        u, v = operators.random_unimodulars(np.random.default_rng(2), 2)
        (got,) = operators.unimodular_matrices(operators.products([u], [v]))
        m_u, m_v = operators.unimodular_matrices(np.array([u, v]))
        np.testing.assert_allclose(got, m_u @ m_v, atol=1e-12)


class TestPairStacks:
    """``products`` and ``daggers``, the pair forms of U V and U^dag."""

    @pytest.mark.parametrize(
        "p_shape, q_shape", [((10_000, 2), (10_000, 2)), ((100, 1, 2), (1, 100, 2))], ids=["rows", "broadcast"]
    )
    def test_products_are_the_matrix_products(self, p_shape, q_shape):
        """10,000 products, row against row or each of 100 against each of
        100, within ROUNDING_TOL of ``matmul2`` of their matrices."""
        rng = np.random.default_rng(33)
        p = operators.random_unimodulars(rng, int(np.prod(p_shape[:-1]))).reshape(p_shape)
        q = operators.random_unimodulars(rng, int(np.prod(q_shape[:-1]))).reshape(q_shape)
        got = operators.products(p, q)
        assert got.shape == (*np.broadcast_shapes(p_shape[:-1], q_shape[:-1]), 2)
        want = matmul2(operators.unimodular_matrices(p), operators.unimodular_matrices(q))
        assert np.abs(operators.unimodular_matrices(got) - want).max() <= tolerances.ROUNDING_TOL

    def test_daggers_are_the_conjugate_transposes(self):
        p = operators.random_unimodulars(np.random.default_rng(34), 10_000)
        want = operators.unimodular_matrices(p).conj().swapaxes(-2, -1)
        assert np.abs(operators.unimodular_matrices(operators.daggers(p)) - want).max() <= tolerances.ROUNDING_TOL


class TestAxisAngle:
    def test_z_rotation_is_diagonal(self):
        phi = 0.37
        u = from_axis_angle(Z_AXIS, 2 * phi)
        np.testing.assert_allclose(u.matrix, np.diag([np.exp(-1j * phi), np.exp(1j * phi)]))

    def test_zero_angle_identity(self):
        rng = np.random.default_rng(3)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        np.testing.assert_allclose(from_axis_angle(axis, 0.0).matrix, np.eye(2), atol=1e-12)

    def test_x_half_turn(self):
        # cos(pi/2) 1 - i sin(pi/2) sx = -i sx
        np.testing.assert_allclose(from_axis_angle(np.array([1.0, 0.0, 0.0]), np.pi).matrix, -1j * sigma_x, atol=1e-12)

    def test_commutes_with_own_axis(self):
        rng = np.random.default_rng(4)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        u = from_axis_angle(axis, 1.234).matrix
        m = pauli_dot(axis)
        assert np.linalg.norm(u @ m - m @ u) < 1e-12

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError, match="non-unit axis"):
            from_axis_angle([1.0, 1.0, 0.0], 0.5)

    def test_non_finite_axis_rejected(self):
        with pytest.raises(ValueError, match=r"axis\[1\] is not finite: nan"):
            from_axis_angle([0.0, np.nan, 1.0], 0.5)

    @pytest.mark.parametrize("axis", [[1.0, 0.0], [0.0, 0.0, 1.0, 0.0], [[0.0, 0.0, 1.0]]])
    def test_axis_of_wrong_shape_rejected(self, axis):
        """Refused by name, by the constructor and by the classifier alike."""
        shape = re.escape(str(np.shape(axis)))
        for call in (lambda: from_axis_angle(axis, 0.3), lambda: classify_operator(Unimodular(1, 0), axis)):
            with pytest.raises(ValueError, match=rf"^expected a 3-vector, got shape {shape}$"):
                call()

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError, match="theta is not finite: inf"):
            from_axis_angle(Z_AXIS, np.inf)

    def test_stack_rows_are_the_scalar_formula_bit_for_bit(self):
        """Each row of ``from_axis_angles`` is ``from_axis_angle`` of that
        row, and both are the scalar formula written out, bit for bit."""
        rng = np.random.default_rng(30)
        axes = rng.normal(size=(200, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        thetas = np.concatenate([rng.uniform(-8, 8, 195), [0.0, np.pi, -np.pi, 2 * np.pi, 5.9]])
        pairs = operators.from_axis_angles(axes, thetas)
        assert pairs.shape == (200, 2)
        for axis, theta, pair in zip(axes, thetas, pairs):
            u = from_axis_angle(axis, theta)
            c, s = np.cos(theta / 2), np.sin(theta / 2)
            written_out = [c - 1j * s * axis[2], -s * axis[1] - 1j * s * axis[0]]
            for want in ([u.a, u.b], written_out):
                assert np.array_equal(pair.view(np.uint64), np.array(want, dtype=complex).view(np.uint64))

    @pytest.mark.parametrize(
        "row, axis, theta, message",
        [
            (2, [1.0, 1.0, 0.0], 0.5, r"non-unit axis \(norm 1.4142135623730951\)"),
            (1, [0.0, np.nan, 1.0], 0.5, r"axis\[1\] is not finite: nan"),
            (0, [-np.inf, 0.0, 1.0], np.nan, r"axis\[0\] is not finite: -inf"),
            (3, [0.0, 0.0, 1.0], np.inf, "theta is not finite: inf"),
        ],
        ids=["non_unit_axis", "nan_axis", "axis_before_angle", "infinite_angle"],
    )
    def test_a_stack_refusal_names_its_row(self, row, axis, theta, message):
        """In ``_unit_axis``'s and ``require_finite``'s words, the axis
        before the angle; a later bad row is not the one named, and the
        one-row form says the same without the row."""
        axes, thetas = np.tile(Z_AXIS, (6, 1)), np.ones(6)
        axes[row], thetas[row] = axis, theta
        axes[5], thetas[5] = [2.0, 0.0, 0.0], np.nan
        with pytest.raises(RowError, match=rf"^row {row}: {message}$"):
            operators.from_axis_angles(axes, thetas)
        with pytest.raises(ValueError, match=rf"^{message}$"):
            from_axis_angle(axis, theta)

    def test_an_admitted_axis_whose_half_turn_is_not_unimodular_is_refused_as_non_unit(self):
        """A norm 5e-10 over 1 is within ``AXIS_NORM_TOL``, but at theta = pi
        its pair's |a|^2 + |b|^2 is 1e-9 over 1, beyond ``UNIMODULAR_TOL``:
        the row is refused as a non-unit axis, before a later bad row, and
        the one-row form says the same without the row."""
        axis = [1 + 5e-10, 0.0, 0.0]
        message = r"non-unit axis \(norm 1\.0000000005\)"
        with pytest.raises(ValueError, match=rf"^{message}$"):
            from_axis_angle(axis, np.pi)
        axes, thetas = np.tile(Z_AXIS, (4, 1)), np.ones(4)
        axes[1], thetas[1] = axis, np.pi
        axes[3], thetas[3] = [2.0, 0.0, 0.0], np.nan
        with pytest.raises(RowError, match=rf"^row 1: {message}$"):
            operators.from_axis_angles(axes, thetas)
        with pytest.raises(RowError, match=rf"^row 0: {message}$"):
            operators.from_axis_angles([axis], [np.pi])

    def test_every_pair_it_returns_is_one_as_pairs_admits(self):
        """Seeded unit axes scaled off 1 by up to ``AXIS_NORM_TOL``, at angles
        near 0, near pi and in between: a row is refused, or its pair passes
        ``as_pairs``; near 0 the pair stays unimodular and the row passes."""
        rng = np.random.default_rng(38)
        axes = rng.normal(size=(3000, 3))
        axes *= (1 + rng.uniform(-1, 1, 3000) * tolerances.AXIS_NORM_TOL)[:, None] / dot_norms(axes)[:, None]
        thetas = np.concatenate([rng.uniform(-0.1, 0.1, 1000), np.pi + rng.uniform(-0.1, 0.1, 1000), rng.uniform(-8, 8, 1000)])
        refused = 0
        for axis, theta in zip(axes, thetas):
            try:
                pair = operators.from_axis_angles([axis], [theta])
            except RowError as exc:
                assert exc.message.startswith("non-unit axis (norm ") and abs(theta) > 0.1, (axis, theta)
                refused += 1
                continue
            assert np.array_equal(operators.as_pairs(pair), pair)
        assert 0 < refused < 2000

    def test_a_stack_of_the_wrong_shape_is_refused(self):
        with pytest.raises(ValueError, match=r"^expected an \(N, 3\) stack of axes, got shape \(3,\)$"):
            operators.from_axis_angles(Z_AXIS, [0.5])
        with pytest.raises(ValueError, match="^1 angles and 2 axes do not match$"):
            operators.from_axis_angles([Z_AXIS, np.array([1.0, 0.0, 0.0])], [0.5])

    def test_rz_convention(self):
        np.testing.assert_allclose(rz(0.5).matrix, np.diag([np.exp(0.5j), np.exp(-0.5j)]))


class TestClassify:
    def test_diagonal_commutes(self):
        tag = classify_operator(Unimodular(np.exp(1j * np.pi / 4), 0))
        assert tag.kind == COMMUTING
        np.testing.assert_allclose(tag.axis, Z_AXIS)

    def test_antidiagonal_anticommutes(self):
        assert classify_operator(Unimodular(0, 1)).kind == ANTICOMMUTING

    def test_hadamard_like_general(self):
        # Both norms are nonzero: |[U, sz]| = |{U, sz}| = 2 by direct product.
        m = HADAMARD_LIKE.matrix
        assert np.linalg.norm(m @ sigma_z - sigma_z @ m) > 1
        assert np.linalg.norm(m @ sigma_z + sigma_z @ m) > 1
        assert classify_operator(HADAMARD_LIKE).kind == GENERAL

    def test_trichotomy(self):
        rng = np.random.default_rng(5)
        pool = [random_unimodular(rng) for _ in range(50)]
        pool += [rz(rng.uniform(0, 6)) for _ in range(10)]
        pool += [Unimodular(0, np.exp(1j * rng.uniform(0, 6))) for _ in range(10)]
        for u in pool:
            kinds = [classify_operator(u, ax).kind for ax in (np.array([1.0, 0.0, 0.0]), Z_AXIS)]
            assert all(k in (COMMUTING, ANTICOMMUTING, GENERAL) for k in kinds)

    def test_axis_must_be_unit(self):
        with pytest.raises(ValueError, match="non-unit axis"):
            classify_operator(Unimodular(1, 0), np.array([0.0, 0.0, 2.0]))

    def test_axis_must_be_finite(self):
        with pytest.raises(ValueError, match=r"axis\[0\] is not finite: nan"):
            classify_operator(Unimodular(0, 1j), np.array([np.nan, 0.0, 1.0]))

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(np.nan, 0)], r"^row 0: Unimodular\.a is not finite: nan$"),
            ([(2, 0)], r"^row 0: not unimodular: \|a\|\^2 \+ \|b\|\^2 deviates from 1 by 3\.000e\+00$"),
        ],
        ids=["nan", "off_sphere"],
    )
    def test_a_stack_row_that_is_not_unimodular_is_refused(self, pairs, message):
        """As every other stack form refuses it, through ``as_pairs``."""
        with pytest.raises(RowError, match=message):
            operators.classify_pairs(pairs)

    def test_one_operator_checks_its_axis_once(self, monkeypatch):
        """``classify_operator`` reads its own pair, checked when the
        ``Unimodular`` was built, and validates the axis in one pass; its tag
        is ``classify_pairs``'."""
        calls, unit_axis = [], operators._unit_axis
        monkeypatch.setattr(operators, "_unit_axis", lambda axis: calls.append(axis) or unit_axis(axis))
        for u, axis in [(HADAMARD_LIKE, Z_AXIS), (rz(0.3), Z_AXIS), (Unimodular(0, 1), (0.6, 0.0, 0.8))]:
            calls.clear()
            tag = classify_operator(u, axis)
            assert len(calls) == 1
            assert tag.kind == str(operators.classify_pairs([(u.a, u.b)], axis)[0])


def _matrix_norms(pairs, axes):
    """The oracle: the Frobenius norms of [U, n.sigma] and {U, n.sigma}
    for each row U = [[a, b], [-b*, a*]] of an (..., 2) stack of pairs and
    n of an (..., 3) stack of axes, from the matrices by ``@`` and
    ``np.linalg.norm``."""
    pairs, axes = np.asarray(pairs, dtype=complex), np.asarray(axes, dtype=float)
    a, b = pairs[..., 0], pairs[..., 1]
    u = np.stack([np.stack([a, b], axis=-1), np.stack([-b.conj(), a.conj()], axis=-1)], axis=-2)
    n_sigma = sum(axes[..., k, None, None] * pauli for k, pauli in enumerate((sigma_x, sigma_y, sigma_z)))
    un, nu = u @ n_sigma, n_sigma @ u
    return np.linalg.norm(un - nu, axis=(-2, -1)), np.linalg.norm(un + nu, axis=(-2, -1))


def _own_axes(pairs):
    """The unit axis v / |v| of each U = u0*1 - i*v.sigma of a stack of
    pairs, z where v = 0."""
    vecs = -np.stack([pairs[..., 1].imag, pairs[..., 1].real, pairs[..., 0].imag], axis=-1)
    norms = np.linalg.norm(vecs, axis=-1, keepdims=True)
    return np.where(norms > 0, vecs / np.where(norms > 0, norms, 1.0), Z_AXIS)


def _straddling_magnitudes(norm_of):
    """The float x at which ``norm_of(x) <= CLASS_TOL`` last holds, and the
    next float, where it fails: one ulp either side of the boundary."""
    x = tolerances.CLASS_TOL / np.sqrt(8)  # |[U, sz]| = sqrt(8)|b|, |{U, sz}| = sqrt(8)|a|
    while norm_of(x) <= tolerances.CLASS_TOL:
        x = np.nextafter(x, 1.0)
    while norm_of(x) > tolerances.CLASS_TOL:
        x = np.nextafter(x, 0.0)
    return x, np.nextafter(x, 1.0)


def _boundary_pairs():
    """Rotations with |b| (commutator) or |a| (anticommutator) one ulp
    either side of the CLASS_TOL boundary, at several phases."""
    pairs = []
    for phase in np.exp(1j * np.array([0.0, 0.3, 2.1])):
        for small_b in (True, False):
            def pair(x, phase=phase, small_b=small_b):
                big = np.sqrt(1.0 - x * x)
                return (big, x * phase) if small_b else (x * phase, big)

            def norm_of(x, pair=pair, small_b=small_b):
                comm, anti = operators.commutation_norms(np.array([pair(x)]), Z_AXIS)
                return (comm if small_b else anti)[0]

            pairs += [pair(x) for x in _straddling_magnitudes(norm_of)]
    return np.array(pairs)


#: The eight signed Paulis as pairs, in order: +/-1, +/-i sy, +/-i sz and +/-i sx.
SIGNED_PAULIS = np.array([(1, 0), (-1, 0), (0, 1), (0, -1), (1j, 0), (-1j, 0), (0, 1j), (0, -1j)], dtype=complex)


class TestCommutationNorms:
    def test_closed_form_is_the_matrix_commutator_norms(self):
        """``commutation_norms`` agrees with the matrix oracle within 4e-15
        on Haar pairs, the signed Paulis and the boundary rows, against the
        z and x axes, a seeded axis and each operator's own axis, and each
        row alone, against its axis alone, gives its row of the stack byte
        for byte. Against its own axis an operator's commutator norm stays
        below 1e-15."""
        rng = np.random.default_rng(11)
        haar = operators.random_unimodulars(rng, 1000)
        seeded = rng.normal(size=3)
        fixed = [Z_AXIS, np.array([1.0, 0.0, 0.0]), seeded / np.linalg.norm(seeded)]
        for pairs in (haar, SIGNED_PAULIS, _boundary_pairs()):
            own = _own_axes(pairs)
            for axes in (*fixed, own):
                got = operators.commutation_norms(pairs, axes)
                for norm, want in zip(got, _matrix_norms(pairs, axes)):
                    assert norm.shape == want.shape == pairs.shape[:-1]
                    assert np.abs(norm - want).max() <= 4e-15
                by_row = np.broadcast_to(axes, (len(pairs), 3))
                for n in range(len(pairs)):
                    one = operators.commutation_norms(pairs[n], by_row[n])
                    assert all(x.tobytes() == norm[n].tobytes() for x, norm in zip(one, got))
            assert operators.commutation_norms(pairs, own)[0].max() < 1e-15
        stacked = operators.commutation_norms(haar.reshape(10, 100, 2), np.array(fixed)[:, None, None])
        flat = operators.commutation_norms(haar, np.array(fixed)[:, None])
        assert all(x.tobytes() == y.reshape(3, 10, 100).tobytes() for x, y in zip(stacked, flat))

    def test_boundary_matrices_fall_either_side(self):
        """Each ulp pair straddles the boundary: the first one classifies in
        its class, the second one does not."""
        kinds = operators.classify_pairs(_boundary_pairs()).tolist()
        assert kinds == [COMMUTING, GENERAL, ANTICOMMUTING, GENERAL] * 3

    def test_rows_classify_as_classify_pairs(self):
        """The tag the promise refusal computes from ``_Rows.norms`` is
        ``classify_pairs``' on every row."""
        rng = np.random.default_rng(12)
        in_set = [(u.a, u.b) for u in (rz(rng.uniform(0, 6)) for _ in range(20))]
        in_set += [(0, np.exp(1j * rng.uniform(0, 6))) for _ in range(20)]
        pairs = np.concatenate((operators.random_unimodulars(rng, 1000), in_set, _boundary_pairs()))
        count = len(pairs)
        rows = protocols._Rows(u=operators.unimodular_matrices(pairs), psi=np.tile([1.0, 0.0], (count, 1)),
                               promise=np.zeros(count, dtype=np.intp), pairs=pairs)
        expected = operators.classify_pairs(pairs)
        assert set(expected.tolist()) == {COMMUTING, ANTICOMMUTING, GENERAL}
        assert np.array_equal(operators.kinds_from_norms(*rows.norms), expected)

    def test_the_z_closed_form_is_the_general_form_bit_for_bit(self):
        """``operators._z_norms``, which ``_Rows.norms`` reads, gives what
        ``commutation_norms(pairs, Z_AXIS)`` gives, byte for byte, and so
        the same tags: on 200,000 seeded Haar pairs; on 1,000 in-set pairs
        (z rotations and half turns about axes in the xy plane); on every
        pair whose four parts are drawn from 0, -0, 0.6 and -0.8; on (1, 0),
        (0, 1), (1j, 0), (0, 1j), the signed Paulis and the ``CLASS_TOL``
        boundary rows; and, through ``_Rows.norms``, on the (0, 0) rows
        that admission puts in place of pairs that fail the residual test."""
        rng = np.random.default_rng(13)
        in_set = [(u.a, u.b) for u in (rz(rng.uniform(0, 6)) for _ in range(500))]
        in_set += [(0, np.exp(1j * rng.uniform(0, 6))) for _ in range(500)]
        parts = (0.0, -0.0, 0.6, -0.8)
        signed = [(complex(w, x), complex(y, z)) for w, x, y, z in itertools.product(parts, repeat=4)]
        units = np.array([(1, 0), (0, 1), (1j, 0), (0, 1j)], dtype=complex)
        haar = operators.random_unimodulars(rng, 200_000)
        pairs = np.concatenate((haar, np.array(in_set), np.array(signed), units, SIGNED_PAULIS, _boundary_pairs()))
        assert (np.signbit(pairs.view(float)) & (pairs.view(float) == 0)).any()  # -0 parts kept
        got, want = operators._z_norms(pairs), operators.commutation_norms(pairs, Z_AXIS)
        for norm, expected in zip(got, want, strict=True):
            assert norm.shape == expected.shape == (len(pairs),) and norm.tobytes() == expected.tobytes()
        kinds = operators.kinds_from_norms(*got)
        assert np.array_equal(kinds, operators.kinds_from_norms(*want))
        assert set(kinds.tolist()) == {COMMUTING, ANTICOMMUTING, GENERAL}
        bad = np.array([(2, 0), (0, 0.5j), (1, 1), (np.nan, 0), (np.inf, 1)], dtype=complex)
        mixed = np.concatenate((bad, units))
        rows, messages = protocols._checked(mixed, np.tile([1.0, 0.0], (len(mixed), 1)), None, protocols._any_config)
        assert [m is None for m in messages] == [False] * len(bad) + [True] * len(units)
        assert rows.pairs[: len(bad)].tobytes() == bytes(bad.nbytes)  # +0 throughout
        for norm, expected in zip(rows.norms, operators.commutation_norms(rows.pairs, Z_AXIS), strict=True):
            assert norm.tobytes() == expected.tobytes()

    def test_tags_are_those_of_the_string_formula(self):
        """The tags ``np.where`` takes as arrays give what it gave with the
        Python strings: the same tags, dtype and shape, NaN general."""
        tol = tolerances.CLASS_TOL
        near = [0.0, tol, np.nextafter(tol, 1.0), 1.0, np.nan]
        comm, anti = (np.array(x) for x in zip(*itertools.product(near, near)))
        for c, a in ((comm, anti), (comm.reshape(5, 5), anti.reshape(5, 5)), (comm[7], anti[7]), (np.nan, 0.0)):
            got = operators.kinds_from_norms(c, a)
            want = np.where(c <= tol, COMMUTING, np.where(a <= tol, ANTICOMMUTING, GENERAL))
            assert got.dtype == want.dtype == np.dtype("<U13")
            assert got.shape == want.shape and np.array_equal(got, want)
        assert str(operators.kinds_from_norms(np.array(1.0), np.array(0.0))) == ANTICOMMUTING


def _q_matrices(alphas, xis) -> np.ndarray:
    """The matrices of ``q_matrices``' pairs."""
    return operators.unimodular_matrices(operators.q_matrices(alphas, xis))


class TestQOperator:
    def test_projector_on_zero(self):
        q = _q_matrices([0.4], [[1, 0]])[0]
        np.testing.assert_allclose(q, np.diag([np.exp(0.4j), np.exp(-0.4j)]))

    def test_pi_gives_minus_identity(self):
        xi = random_qubit(np.random.default_rng(6))
        np.testing.assert_allclose(_q_matrices([np.pi], [xi])[0], -np.eye(2), atol=1e-12)

    def test_symmetry_under_orthogonal_swap(self):
        """Q(alpha, xi) = Q(-alpha, xi_perp) on 1,000 seeded rows."""
        rng = np.random.default_rng(7)
        draws = [(rng.uniform(-3, 3), random_qubit(rng)) for _ in range(1000)]
        alphas, xis = np.array([alpha for alpha, _ in draws]), np.array([xi for _, xi in draws])
        lhs = _q_matrices(alphas, xis)
        rhs = _q_matrices(-alphas, orthogonal_state(xis))
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            operators.q_matrices([0.5], [[1.0, 1.0]])

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: operators.q_matrices([0.3], [[1, 0, 0]]), r"^row 0: xi must be a single-qubit state$"),
            (lambda: operators.q_matrices([0.3, 0.4], [[1, 0, 0], [0, 1, 0]]), r"^row 0: xi must be a single-qubit state$"),
        ],
        ids=["one", "stack"],
    )
    def test_rejects_a_state_that_is_not_one_qubits(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize(
        "alphas, xis, message",
        [
            ([0.1], [[1, 0], [0, 1]], r"^1 angles and 2 states do not match$"),
            ([0.1, 0.2, 0.3], [[1, 0], [0, 1]], r"^3 angles and 2 states do not match$"),
            (0.1, [[1, 0], [0, 1]], r"^1 angles and 2 states do not match$"),
        ],
        ids=["fewer_angles", "more_angles", "one_bare_angle"],
    )
    def test_stacks_of_unequal_length_are_refused(self, alphas, xis, message):
        with pytest.raises(ValueError, match=message):
            operators.q_matrices(alphas, xis)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: operators.q_matrices([0.3, np.inf], [[1, 0], [0, 1]]), r"^row 1: alpha is not finite: inf$"),
            (lambda: operators.q_matrices([0.3, np.nan], [[1, 0], [0, 1]]), r"^row 1: alpha is not finite: nan$"),
            (lambda: operators.q_matrices([0.3], [[np.nan, 0]]), r"^row 0: xi\[0\] is not finite: nan$"),
            (lambda: operators.q_matrices([0.3, 0.4], [[1, 0], [0, -np.inf]]), r"^row 1: xi\[1\] is not finite: -inf$"),
            # the finite test is taken on every row before the norm test
            (lambda: operators.q_matrices([0.3, np.nan], [[1, 1], [1, 0]]), r"^row 1: alpha is not finite: nan$"),
            (lambda: operators.q_matrices([np.inf], [[1, 0]]), r"^row 0: alpha is not finite: inf$"),
            (lambda: operators.q_matrices([0.3], [[0, np.nan]]), r"^row 0: xi\[1\] is not finite: nan$"),
        ],
        ids=["inf_alpha", "nan_alpha", "nan_xi", "minus_inf_xi", "before_the_norm_test", "one_alpha", "one_xi"],
    )
    def test_a_value_that_is_not_finite_is_refused_by_name(self, call, message):
        """Refused before any arithmetic: tier-1 errors on any warning, so
        a product with inf or nan taken first fails here."""
        with pytest.raises(ValueError, match=message):
            call()


class TestCorrection:
    def test_diagonal_gives_sigma_z(self):
        np.testing.assert_allclose(solve_correction(rz(0.9)), sigma_z, atol=1e-12)

    def test_identity_gives_sigma_z(self):
        np.testing.assert_allclose(solve_correction(Unimodular(1, 0)), sigma_z, atol=1e-12)

    def test_anticommuting_gives_minus_sigma_z(self):
        # U sz U^dag for U = [[0,1],[-1,0]] is -sz by direct product.
        np.testing.assert_allclose(solve_correction(Unimodular(0, 1)), -sigma_z, atol=1e-12)

    def test_stack_is_the_one_operator_formula_bit_for_bit(self):
        rng = np.random.default_rng(9)
        us = [random_unimodular(rng) for _ in range(200)] + [rz(0.9), Unimodular(1, 0), Unimodular(0, 1)]
        vs = operators.solve_corrections(us)
        assert vs.shape == (len(us), 2, 2)
        for u, v in zip(us, vs):
            assert np.array_equal(matmul2(matmul2(u.matrix, sigma_z), u.matrix.conj().T), v)
            assert np.array_equal(solve_correction(u), v)

    def test_identity_holds_for_random_operators(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            u = random_unimodular(rng)
            residual = solve_correction(u) @ u.matrix - u.matrix @ sigma_z
            assert np.linalg.norm(residual) < 1e-9


class TestCommonCorrection:
    def test_z_rotations_share_sigma_z(self):
        rng = np.random.default_rng(9)
        found = check_common_correction([rz(rng.uniform(0, 6)) for _ in range(10)])
        np.testing.assert_allclose(found.v, sigma_z, atol=1e-9)
        assert found.deltas == (0.0,) * 10

    def test_mixed_set_splits_phases(self):
        rng = np.random.default_rng(10)
        ops = [rz(rng.uniform(0, 6)) for _ in range(5)]
        ops += [Unimodular(0, np.exp(1j * rng.uniform(0, 6))) for _ in range(5)]
        found = check_common_correction(ops)
        np.testing.assert_allclose(found.v, sigma_z, atol=1e-9)
        assert found.deltas == (0.0,) * 5 + (np.pi,) * 5

    def test_general_operator_breaks_the_set(self):
        rng = np.random.default_rng(11)
        ops = [rz(rng.uniform(0, 6)) for _ in range(5)]
        ops.append(from_axis_angle(np.array([1.0, 0.0, 0.0]), np.pi / 3))
        assert check_common_correction(ops) is None

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            check_common_correction([])

    def test_sign_convention_is_order_independent(self):
        ops = [Unimodular(0, 1), rz(0.4)]
        found = check_common_correction(ops)
        np.testing.assert_allclose(found.v, sigma_z, atol=1e-9)
        assert found.deltas == (np.pi, 0.0)

    def test_v_is_the_first_operators_sign_fixed_correction(self):
        """Each set's V is ``solve_corrections`` of its first operator, its
        sign fixed by its Pauli vector, bit for bit: on Haar sets, which
        mostly share no correction, and on z rotations mixed with (0, e^{i phi})."""
        rng = np.random.default_rng(43)
        phases, diagonal = np.exp(1j * rng.uniform(0, 6, (100, 4))), rng.random((100, 4)) < 0.5
        in_set = np.stack([np.where(diagonal, phases, 0), np.where(diagonal, 0, phases)], axis=-1)
        for families in (operators.random_unimodulars(rng, 400).reshape(100, 4, 2), in_set):
            ok, v, _ = operators.common_corrections(families)
            first = operators.solve_corrections(families[:, 0])
            signs = operators._canonical_signs(pauli_vectors(first))
            assert np.array_equal(v, first * signs[:, None, None])
        assert ok.all()

    def test_one_call_checks_its_pairs_once(self, monkeypatch):
        """``common_corrections`` runs ``as_pairs`` once and gives, byte for byte, what it gave when its
        W came from ``solve_corrections``, which checks the pairs again."""
        rng = np.random.default_rng(45)
        phases, diagonal = np.exp(1j * rng.uniform(0, 6, (100, 4))), rng.random((100, 4)) < 0.5
        in_set = np.stack([np.where(diagonal, phases, 0), np.where(diagonal, 0, phases)], axis=-1)
        calls, as_pairs, corrections = [], operators.as_pairs, operators._corrections
        monkeypatch.setattr(operators, "as_pairs", lambda us: calls.append(1) or as_pairs(us))
        for families in (operators.random_unimodulars(rng, 400).reshape(100, 4, 2), in_set):
            del calls[:]
            got = operators.common_corrections(families)
            assert len(calls) == 1
            with monkeypatch.context() as patched:
                patched.setattr(operators, "_corrections", lambda pairs: corrections(operators.as_pairs(pairs)))
                want = operators.common_corrections(families)
            assert len(calls) == 3
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_one_set_is_admitted_once(self, monkeypatch):
        """``check_common_correction`` runs the residual test once on a set
        given as (a, b) pairs and not at all on ``Unimodular`` values,
        admitted on their construction proof; V and the deltas are, byte
        for byte, ``common_corrections``' of the set's pairs."""
        rng = np.random.default_rng(50)
        us = [rz(phi) for phi in rng.uniform(0, 6, 4)] + [Unimodular(0, np.exp(1j * phi)) for phi in rng.uniform(0, 6, 4)]
        pairs = operators.as_pairs(us)
        _, (v,), (deltas,) = operators.common_corrections(pairs[None])
        calls, residuals = [], operators.unimodular_residuals
        monkeypatch.setattr(operators, "unimodular_residuals", lambda p: calls.append(p.shape) or residuals(p))
        for given, admitted in ((pairs, [(8, 2)]), (us, [])):
            del calls[:]
            found = check_common_correction(given)
            assert calls == admitted
            assert found.v.tobytes() == v.tobytes() and found.deltas == tuple(deltas.tolist())

    def test_a_set_that_is_not_of_operators_is_refused(self):
        """A single-set search given a stack of sets is refused in
        ``find_common_axes``' words, naming the shape it was read as."""
        families = np.zeros((2, 3, 2), dtype=complex)
        families[..., 0] = 1
        message = r"^expected an \(M, K, 2\) stack of nonempty operator sets, got shape \(1, 2, 3, 2\)$"
        for search in (check_common_correction, operators.find_common_axis):
            with pytest.raises(ValueError, match=message):
                search(families)

    @pytest.mark.parametrize("shape", [(1, 0, 2), (5, 2), (2, 1, 2, 2)], ids=str)
    def test_a_stack_that_is_not_of_operator_sets_is_refused(self, shape):
        """In ``find_common_axes``' words: an empty set, one set given as
        rows, or sets of pairs of pairs."""
        families = np.zeros(shape, dtype=complex)
        families[..., 0] = 1
        message = rf"^expected an \(M, K, 2\) stack of nonempty operator sets, got shape {re.escape(str(shape))}$"
        for search in (operators.common_corrections, operators.find_common_axes):
            with pytest.raises(ValueError, match=message):
                search(families)


AXIS_SEARCH_KINDS = ["common_axis", "half_turns_only", "central_only", "no_axis", "central_first"]
#: ``AXIS_SEARCH_KINDS`` and the sets near the search's thresholds
#: (``_edge_operator``), each with its number of seeded sets.
EAGER_SEARCH_SETS = dict.fromkeys(AXIS_SEARCH_KINDS, 40) | {"edge": 150}

#: Sets for the stacked search: Haar rotations, which mostly have no axis;
#: half-turns about axes orthogonal to n, which only a cross product fits;
#: rotations about a few axes, repeated and reversed; half-turn sets with
#: +/-1 among them; a set led by a half-turn about an axis orthogonal to n;
#: rotations and half-turns about axes 1e-10 apart, some with a small turn
#: about an axis whose duplicate n is dropped.
STACKED_SEARCH_KINDS = ["random", "cross_only", "repeated_axes", "with_central", "half_turn_first", "near_axes"]


class TestCommonAxis:
    def test_z_rotations(self):
        rng = np.random.default_rng(12)
        found = find_common_axis([rz(rng.uniform(0.1, 6)) for _ in range(8)])
        np.testing.assert_allclose(found, Z_AXIS, atol=1e-9)

    def test_conjugated_family_recovers_image_axis(self):
        rng = np.random.default_rng(13)
        w = random_unimodular(rng)
        ops = [conjugate(w, rz(rng.uniform(0.2, 6))) for _ in range(5)]
        perp = np.array([np.cos(0.3), np.sin(0.3), 0.0])
        ops += [conjugate(w, from_axis_angle(perp, np.pi)) for _ in range(5)]
        found = find_common_axis(ops)
        conj = w.matrix @ sigma_z @ w.matrix.conj().T
        expected = np.array([np.trace(conj @ s).real / 2 for s in (sigma_x, sigma_y, sigma_z)])
        assert np.arccos(min(abs(np.dot(found, expected)), 1.0)) < 1e-6

    def test_incompatible_pair_has_no_axis(self):
        assert find_common_axis([from_axis_angle(np.array([1.0, 0.0, 0.0]), np.pi / 3), rz(np.pi / 5)]) is None

    def test_half_turns_in_a_plane_share_its_normal(self):
        # no member's own axis works here; only the plane normal does
        ops = [
            from_axis_angle([1.0, 0.0, 0.0], np.pi),
            from_axis_angle([0.0, 1.0, 0.0], np.pi),
            from_axis_angle(np.array([1.0, 1.0, 0.0]) / np.sqrt(2), np.pi),
        ]
        np.testing.assert_allclose(find_common_axis(ops), Z_AXIS, atol=1e-9)

    def test_identity_only_set_is_unconstrained(self):
        found = find_common_axis([Unimodular(1, 0), Unimodular(-1, 0)])
        np.testing.assert_allclose(found, Z_AXIS)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            find_common_axis([])

    def test_an_empty_iterator_or_stack_is_refused_as_an_empty_list(self):
        """The set is read through ``as_pairs``, which takes a stack as it is."""
        for empty in (iter([]), np.zeros((0, 2), dtype=complex)):
            with pytest.raises(ValueError, match="^empty operator set$"):
                find_common_axis(empty)

    @pytest.mark.parametrize("kind", EAGER_SEARCH_SETS)
    def test_lazy_crosses_match_the_eager_search(self, kind):
        """The search builds a cross-product candidate only once every
        operator's own axis has failed, and only from half-turns' axes; the
        oracle builds every candidate first. Both must return the same axis,
        bit for bit, or both None."""
        rng = np.random.default_rng(list(EAGER_SEARCH_SETS).index(kind) + 70)
        for _ in range(EAGER_SEARCH_SETS[kind]):
            ops = _axis_search_set(rng, kind)
            found, want = find_common_axis(ops), _eager_common_axis(ops)
            assert (found is None) == (want is None), kind
            assert found is None or np.array_equal(found, want), kind

    #: Which families reach the remaining candidates after the first.
    SEARCHED = {"common_axis": False, "half_turns_only": True, "central_only": False, "no_axis": True, "central_first": True}

    @pytest.mark.parametrize("kind", AXIS_SEARCH_KINDS)
    def test_each_set_of_a_stack_is_its_one_set_search(self, monkeypatch, kind):
        """``find_common_axes`` over sets of one kind, each followed by a
        common-axis set that its first candidate fits, gives each set's
        ``find_common_axis``, bit for bit; only the sets whose first
        candidate fails go on to the remaining ones."""
        rng = np.random.default_rng(AXIS_SEARCH_KINDS.index(kind) + 40)
        sets = [_axis_search_set(rng, k, size=6) for _ in range(15) for k in (kind, "common_axis")]
        searched, search = [], operators._search_axis
        monkeypatch.setattr(operators, "_search_axis", lambda m, axes, half: searched.append(m) or search(m, axes, half))
        found = operators.find_common_axes([[(u.a, u.b) for u in ops] for ops in sets])
        assert len(searched) == (15 if self.SEARCHED[kind] else 0)
        monkeypatch.setattr(operators, "_search_axis", search)
        for ops, got in zip(sets, found):
            want = find_common_axis(ops)
            assert (got is None) == (want is None), kind
            assert got is None or np.array_equal(got, want), kind
        if kind in ("no_axis", "central_only"):
            want = None if kind == "no_axis" else Z_AXIS
            assert all(got is None if want is None else np.array_equal(got, want) for got in found[0::2])

    @pytest.mark.parametrize("kind", STACKED_SEARCH_KINDS)
    def test_stacked_search_is_the_one_candidate_search(self, monkeypatch, kind):
        """The search drops exactly repeated axes, then tries the remaining
        own axes in blocks, then the half-turns' cross products row by row;
        the oracle tries every candidate, one at a time. Both give the same
        axis, byte for byte, or both None."""
        rng = np.random.default_rng(STACKED_SEARCH_KINDS.index(kind) + 90)
        sets = [_stacked_search_set(rng, kind) for _ in range(60)]
        found = [find_common_axis(ops) for ops in sets]
        searched = []
        monkeypatch.setattr(
            operators, "_search_axis", lambda m, axes, half: searched.append(m) or _one_candidate_search(m, axes, half)
        )
        for ops, got in zip(sets, found):
            want = find_common_axis(ops)
            assert (got is None) == (want is None), kind
            assert got is None or got.tobytes() == want.tobytes(), kind
        assert searched, kind
        if kind == "random":
            assert any(got is None for got in found)
        else:
            assert all(got is not None for got in found)

    def test_a_failed_candidate_near_the_axis_does_not_hide_it(self):
        """A turn of 1e-6 about an axis 3e-5 from z fails where z fits; z
        is still tried, and found: as a later operator's own axis, or as the
        cross product of the axes of two half-turns, which no cross with
        the first axis, the small turn's, gives."""
        for specs in (
            ("rot:0,1,0,3.141592653589793", "rot:3e-5,0,1,1e-6", "rot:0,0,1,1.1"),
            ("rot:3e-5,0,1,1e-6", "rot:1,0,0,3.141592653589793", "rot:0,1,0,3.141592653589793"),
        ):
            ops = [parse_operator(spec) for spec in specs]
            assert all(classify_operator(u, Z_AXIS).kind != GENERAL for u in ops)
            assert find_common_axis(ops).tobytes() == np.array([0.0, 0.0, 1.0]).tobytes(), specs

    def test_an_axis_and_its_negative_are_one_candidate(self):
        """For unit axes with exact zeros and components within SIGN_TOL of
        0, ``_fits`` decides the same for v and -v, and both sign-fix to the
        same bytes, so dropping an exact repeat changes no answer."""
        rng = np.random.default_rng(150)
        raw = rng.normal(size=(400, 3))
        raw[rng.random(size=raw.shape) < 0.3] = 0.0
        small = rng.random(size=raw.shape) < 0.2
        raw[small] = tolerances.SIGN_TOL * rng.uniform(-1.0, 1.0, size=int(small.sum()))
        raw[~raw.any(axis=1), 2] = 1.0
        axes = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        sets = [[random_unimodular(rng) for _ in range(5)]]
        sets += [[from_axis_angle(axes[k], angle)] for k in range(0, 400, 20) for angle in (0.7, np.pi)]
        decided = []
        for ops in sets:
            pairs = np.array([(u.a, u.b) for u in ops])
            fits = operators._fits(pairs, axes[:, None])
            assert np.array_equal(fits, operators._fits(pairs, -axes[:, None]))
            decided += fits.tolist()
        assert True in decided and False in decided
        signed = axes * operators._canonical_signs(axes)[:, None] + 0.0
        flipped = -axes * operators._canonical_signs(-axes)[:, None] + 0.0
        assert signed.tobytes() == flipped.tobytes()

    def test_repeated_axes_are_tried_once(self, monkeypatch):
        """200 operators with no common axis and no half-turn, so no cross
        product is tried: drawn from two generic rotations, each as given or
        as its inverse (the axis reversed), only the other axis reaches
        ``_fits`` after the first candidate; 200 Haar rotations try their
        200 own axes, and no more."""
        rng = np.random.default_rng(151)
        pair = [random_unimodular(rng), random_unimodular(rng)]
        picks = zip(rng.integers(2, size=200), rng.random(200) < 0.5)
        repeated = [pair[k] if given else Unimodular(pair[k].a.conjugate(), -pair[k].b) for k, given in picks]
        haar = [random_unimodular(rng) for _ in range(200)]
        fits = operators._fits
        for ops, most in ((repeated, 1), (haar, 199)):
            tried = []
            monkeypatch.setattr(operators, "_fits", lambda m, n_sigma: tried.append(len(n_sigma)) or fits(m, n_sigma))
            assert find_common_axis(ops) is None
            assert tried[0] == 1 and sum(tried[1:]) <= most, tried

    @pytest.mark.parametrize("kind", ["planar_half_turns", "few_half_turn_axes", "no_axis"])
    def test_a_large_set_is_searched_in_bounded_memory(self, monkeypatch, kind):
        """Sets whose candidates span several blocks: 200 half-turns about
        axes in one plane, found only by the first cross product; 150 about
        five axes in that plane, each given or reversed, so that repeats of
        an axis fall in later blocks; 24 generic rotations with no axis. The search
        returns the one-candidate search's bytes, or None with it, holding
        one block of candidates at a time."""
        rng = np.random.default_rng(["planar_half_turns", "few_half_turn_axes", "no_axis"].index(kind) + 130)
        w = random_unimodular(rng)
        if kind == "no_axis":
            ops = [random_unimodular(rng) for _ in range(24)]
        else:
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            raw = rng.normal(size=(200 if kind == "planar_half_turns" else 5, 3))
            plane = raw - np.outer(raw @ n, n)
            if kind == "few_half_turn_axes":
                plane = rng.choice([1.0, -1.0], size=(150, 1)) * plane[rng.integers(5, size=150)]
            ops = [from_axis_angle(axis / np.linalg.norm(axis), np.pi) for axis in plane]
        ops = [conjugate(w, u) for u in ops]
        tracemalloc.start()
        try:
            found = find_common_axis(ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak
        monkeypatch.setattr(operators, "_search_axis", _one_candidate_search)
        want = find_common_axis(ops)
        assert (found is None) == (want is None) == (kind == "no_axis"), kind
        assert found is None or found.tobytes() == want.tobytes(), kind

    @pytest.mark.parametrize("kind", ["no_axis", "cross_only"])
    def test_half_turn_crosses_are_tried_in_blocks_of_rows(self, monkeypatch, kind):
        """Seeded sets of 3 to 40 half-turns, about generic axes (no common
        axis) or about axes orthogonal to one n (only a cross product fits):
        the search returns, byte for byte, what the row-by-row search
        returned, and 10 half-turns with no axis take 3 ``_fits`` passes
        (the first candidate, the other own axes, one block of 45 crosses),
        where the row-by-row search took 11."""
        rng = np.random.default_rng(["no_axis", "cross_only"].index(kind) + 160)
        sets = []
        for size in [10] * 5 + rng.integers(3, 41, size=40).tolist():
            raw = rng.normal(size=(size, 3))
            if kind == "cross_only":
                n = rng.normal(size=3)
                raw -= np.outer(raw @ n, n) / (n @ n)
            sets.append([from_axis_angle(axis / np.linalg.norm(axis), np.pi) for axis in raw])
        passes, fits = [], operators._fits
        monkeypatch.setattr(operators, "_fits", lambda m, n_sigma: passes.append(len(n_sigma)) or fits(m, n_sigma))
        found = []
        for ops in sets:
            del passes[:]
            found.append(find_common_axis(ops))
            if len(ops) == 10 and kind == "no_axis":
                assert passes == [1, 9, 45]
        assert all((got is None) == (kind == "no_axis") for got in found)
        monkeypatch.setattr(operators, "_search_axis", _row_by_row_search)
        for ops, got in zip(sets, found):
            del passes[:]
            want = find_common_axis(ops)
            if len(ops) == 10 and kind == "no_axis":
                assert len(passes) == 11
            assert (got is None) == (want is None)
            assert got is None or got.tobytes() == want.tobytes()

    def test_a_stack_refusal_names_the_set_and_operator(self):
        families = np.tile([1.0 + 0j, 0j], (2, 3, 1))
        families[1, 2] = (1.0, 0.5)
        with pytest.raises(RowError, match=r"^row 1, 2: not unimodular"):
            operators.find_common_axes(families)
        with pytest.raises(ValueError, match=r"nonempty operator sets, got shape \(2, 0, 2\)$"):
            operators.find_common_axes(np.zeros((2, 0, 2), dtype=complex))


def _axis_search_set(rng, kind, size=None):
    """A seeded operator set of one of ``AXIS_SEARCH_KINDS`` or ``edge``,
    conjugated by a Haar rotation; ``central_first`` is a common-axis set
    led by -1, so that its first candidate is a half-turn's axis, and an
    ``edge`` set is drawn by ``_edge_operator``."""
    w = random_unimodular(rng)
    size = int(rng.integers(2, 11)) if size is None else size
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    if kind == "central_only":
        return [Unimodular(rng.choice([1.0, -1.0]), 0) for _ in range(size)]
    if kind == "no_axis":
        return [random_unimodular(rng) for _ in range(size)]
    if kind == "edge":
        return [conjugate(w, _edge_operator(rng, axis)) for _ in range(size)]
    ops = []
    for k in range(size):
        raw = rng.normal(size=3)
        perp = raw - np.dot(raw, axis) * axis
        perp /= np.linalg.norm(perp)
        if kind == "half_turns_only" or k % 2:
            ops.append(from_axis_angle(perp, np.pi))
        else:
            ops.append(from_axis_angle(axis, rng.uniform(0.3, 5.9)))
    if kind == "central_first":
        ops[0] = Unimodular(-1, 0)
    return [conjugate(w, u) for u in ops]


def _edge_operator(rng, n):
    """An operator near a threshold of the search against the unit axis
    ``n``: a turn of 1e-6 or 5e-9 rad about an axis up to 3e-5 off ``n``; a
    half-turn about an axis orthogonal to ``n``, or 1e-10 off that plane, by
    pi, pi +/- 1e-10, 3e-10, 1e-9 or 1e-8; a generic turn about ``n``; +/-1;
    or, rarely, a Haar rotation."""
    pick = rng.choice(5, p=[0.3, 0.45, 0.15, 0.07, 0.03])
    if pick == 0:
        near = n + rng.choice([0.0, 1e-10, 1e-6, 3e-5]) * rng.normal(size=3)
        return from_axis_angle(near / np.linalg.norm(near), rng.choice([1e-6, 5e-9]))
    if pick == 1:
        raw = rng.normal(size=3)
        perp = raw - np.dot(raw, n) * n + rng.choice([0.0, 1e-10]) * n
        angle = np.pi + rng.choice([-1.0, 1.0]) * rng.choice([0.0, 1e-10, 3e-10, 1e-9, 1e-8], p=[0.4, 0.2, 0.2, 0.1, 0.1])
        return from_axis_angle(perp / np.linalg.norm(perp), angle)
    if pick == 2:
        return from_axis_angle(n, rng.uniform(0.3, 5.9))
    if pick == 3:
        return Unimodular(rng.choice([1.0, -1.0]), 0)
    return random_unimodular(rng)


def _eager_common_axis(operators):
    """The axis search with every candidate built up front: each
    operator's own axis, then every pairwise cross product, each tried on
    the matrix commutators of ``_matrix_norms``."""
    axes = []
    for u in operators:
        vec = np.array([-u.b.imag, -u.b.real, -u.a.imag])
        norm = np.linalg.norm(vec)
        if norm > tolerances.CENTRAL_TOL:
            axes.append(vec / norm)
    if not axes:
        return Z_AXIS.copy()
    candidates = list(axes)
    for i in range(len(axes)):
        for j in range(i + 1, len(axes)):
            cross = np.cross(axes[i], axes[j])
            norm = np.linalg.norm(cross)
            if norm > tolerances.CROSS_TOL:
                candidates.append(cross / norm)
    for cand in candidates:
        if all(min(_matrix_norms((u.a, u.b), cand)) <= tolerances.CLASS_TOL for u in operators):
            lead = next((c for c in cand if abs(c) > tolerances.SIGN_TOL), 1.0)
            return -cand if lead < 0 else cand
    return None


def _stacked_search_set(rng, kind):
    """A seeded set of one of ``STACKED_SEARCH_KINDS``, conjugated by a Haar
    rotation; every kind but ``random`` has a common axis n."""
    w = random_unimodular(rng)
    size = int(rng.integers(3, 9))
    if kind == "random":
        return [random_unimodular(rng) for _ in range(size)]
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)

    def perpendicular():
        raw = rng.normal(size=3)
        raw -= np.dot(raw, n) * n
        return raw / np.linalg.norm(raw)

    def generic():
        return rng.uniform(0.3, 5.9)

    if kind in ("cross_only", "with_central"):
        ops = [from_axis_angle(perpendicular(), np.pi) for _ in range(size)]
        if kind == "with_central":
            for _ in range(int(rng.integers(1, 4))):
                ops.insert(int(rng.integers(len(ops) + 1)), Unimodular(rng.choice([1.0, -1.0]), 0))
    elif kind == "repeated_axes":
        # half-turns about two axes orthogonal to n, the first one reversed
        # at once, then those axes and n, each as given or reversed
        halves = [perpendicular(), perpendicular()]
        ops = [from_axis_angle(axis, np.pi) for axis in (halves[0], -halves[0], halves[1])]
        for _ in range(size - 3):
            sign = rng.choice([1.0, -1.0])
            if rng.random() < 0.3:
                ops.append(from_axis_angle(sign * n, generic()))
            else:
                ops.append(from_axis_angle(sign * halves[rng.integers(2)], np.pi))
    elif kind == "half_turn_first":
        ops = [from_axis_angle(perpendicular(), np.pi), from_axis_angle(n, generic())]
        ops += [from_axis_angle(n, generic()) if rng.random() < 0.5 else from_axis_angle(perpendicular(), np.pi)
                for _ in range(size - 2)]
    else:  # near_axes

        def near(axis, by=1e-10):
            moved = axis + by * rng.normal(size=3)
            return moved / np.linalg.norm(moved)

        half = perpendicular()
        ops = [from_axis_angle(near(half), np.pi), from_axis_angle(half, np.pi), from_axis_angle(n, generic())]
        ops += [from_axis_angle(near(n), generic()) if rng.random() < 0.5 else from_axis_angle(near(half), np.pi)
                for _ in range(size - 3)]
        if rng.random() < 0.3:
            # a turn of 1e-6 about an axis about 3e-5 from n, which fails
            # where n fits: n must still be tried
            ops.insert(int(rng.integers(2)), from_axis_angle(near(n, 3e-5), 1e-6))
    return [conjugate(w, u) for u in ops]


def _triu_cross_axes(axes):
    """The cross products of ``axes`` as written out: every pair i < j from
    ``np.triu_indices``, by ``np.cross``, the ones longer than CROSS_TOL
    normalised."""
    first, second = (axes[index] for index in np.triu_indices(len(axes), 1))
    crosses = np.cross(first, second)
    norms = dot_norms(crosses)
    long = norms > tolerances.CROSS_TOL
    return crosses[long] / norms[long, None]


def _row_by_row_search(pairs, axes, half):
    """The axis search with one ``_first_fit`` per row of the half-turns'
    cross products, as it was before the rows were gathered into blocks."""
    firsts = {}
    for n, axis in enumerate((axes * operators._canonical_signs(axes)[:, None]).tolist()):
        firsts.setdefault(tuple(axis), n)
    kept = list(firsts.values())
    axes, half = axes[kept], half[kept]
    found = operators._first_fit(pairs, axes[1:])
    halves = axes[half]
    for i in range(len(halves) - 1):
        if found is not None:
            break
        crosses = np.cross(halves[i], halves[i + 1 :])
        norms = dot_norms(crosses)
        long = norms > tolerances.CROSS_TOL
        found = operators._first_fit(pairs, crosses[long] / norms[long, None])
    return found


def _one_candidate_search(pairs, axes, half):
    """The axis search one candidate at a time: the rest of ``axes``, then
    every one of their cross products, each tried by its own ``_fits``
    pass. ``half`` is not read: this is the search without the half-turn
    filter."""
    for cand in itertools.chain(axes[1:], _triu_cross_axes(axes)):
        if operators._fits(pairs, cand):
            return cand * operators._canonical_signs(cand) + 0.0
    return None


class TestOrthogonalPair:
    def test_quarter_turn_example(self):
        # U2^dag U1 = i sz has eigenvalues e^{+-i pi/2}.
        pair, (s,) = operators.orthogonal_pairs([(1j, 0)], [(1, 0)])
        assert s >= tolerances.DEGENERACY_TOL
        assert pair.lam[0] == pytest.approx(np.pi / 2, abs=1e-12)
        assert np.vdot(pair.phi_prime[0], pair.phi[0]) == pytest.approx(1j, abs=1e-9)

    def test_relative_pair_is_the_written_out_product(self, monkeypatch):
        """``orthogonal_pairs`` reads U2^dag U1 off ``products(daggers(u2),
        u1)``; on 1,000 Haar rows that pair equals the product written out,
        (a2* a1 + b2 b1*, a2* b1 - b2 a1*), and so do the sines taken from it."""
        draws = operators.random_unimodulars(np.random.default_rng(44), 2000)
        u1, u2 = draws[0::2], draws[1::2]
        (a1, b1), (a2, b2) = u1.T, u2.T
        a, b = a2.conj() * a1 + b2 * b1.conj(), a2.conj() * b1 - b2 * a1.conj()
        seen, products = [], operators.products
        monkeypatch.setattr(operators, "products", lambda p, q: seen.append(products(p, q)) or seen[-1])
        _, s = operators.orthogonal_pairs(u1, u2)
        (relative,) = seen
        assert np.array_equal(relative, np.stack([a, b], axis=-1))
        assert np.array_equal(s, np.linalg.norm(np.stack([-b.imag, -b.real, -a.imag], axis=-1), axis=-1))

    @pytest.mark.parametrize("n1, n2", [(1, 3), (2, 3)], ids=["one_row_against_three", "two_rows_against_three"])
    def test_stacks_of_unequal_length_are_refused(self, n1, n2):
        """One row of U1 is not spread over three of U2, and two against
        three are refused in the package's words, not numpy's."""
        u = operators.random_unimodulars(np.random.default_rng(45), n1 + n2)
        with pytest.raises(ValueError, match=rf"^{n1} rotations U1 and {n2} rotations U2 do not match$"):
            operators.orthogonal_pairs(u[:n1], u[n1:])

    def test_degenerate_pair_rejected(self):
        """U2 = U1 holds no pair: its |sin lam| is below DEGENERACY_TOL."""
        u = operators.random_unimodulars(np.random.default_rng(14), 1)
        _, (s,) = operators.orthogonal_pairs(u, u)
        assert s < tolerances.DEGENERACY_TOL

    def test_overlap_identity_for_random_pairs(self):
        draws = operators.random_unimodulars(np.random.default_rng(15), 2000)
        u1, u2 = draws[0::2], draws[1::2]
        pair, s = operators.orthogonal_pairs(u1, u2)
        assert (s >= tolerances.DEGENERACY_TOL).all()
        for n, (m1, m2) in enumerate(zip(operators.unimodular_matrices(u1), operators.unimodular_matrices(u2))):
            # independent oracle: lam off the raw eigenvalues of U2^dag U1
            evals = np.linalg.eigvals(m2.conj().T @ m1)
            lam_ref = abs(np.angle(evals[0]))
            overlap = np.vdot(pair.phi_prime[n], pair.phi[n])
            assert abs(abs(overlap) - abs(np.sin(lam_ref))) < 1e-9
            assert abs(overlap - 1j * np.sin(pair.lam[n])) < 1e-9
            assert abs(np.vdot(pair.psi[n], pair.psi_perp[n])) < 1e-10
            np.testing.assert_allclose(pair.phi[n], m1 @ pair.psi[n], atol=1e-12)
            np.testing.assert_allclose(pair.phi_prime[n], m2 @ pair.psi_perp[n], atol=1e-12)

    #: both poles, an axis on the equator, and the two sides of it by less than an ulp of 1
    SPECIAL_AXES = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (1.0, 0.0, 1e-17), (1.0, 0.0, -1e-17)]

    @pytest.mark.parametrize("seed", [0, 28])
    def test_eigenvectors_are_the_closed_form_of_the_axis_operator(self, seed):
        """U2 = W and U1 = W R(n, theta) give U2^dag U1 = R(n, theta), whose
        axis operator n.sigma has |lam-> = (psi - psi_perp)/sqrt(2) as its +1
        eigenvector and |lam+> = (psi + psi_perp)/sqrt(2) as its -1 one; W is
        Haar for 300 seeded axes and 1 for the special ones, so that their
        nz reaches the formula unrounded. The pair is orthonormal, and
        |lam->'s first component is real and positive where nz >= 0, its
        second where nz < 0."""
        rng = np.random.default_rng(seed)
        seeded = rng.normal(size=(300, 3))
        axes = np.concatenate([seeded / dot_norms(seeded)[:, None], self.SPECIAL_AXES])
        ws = np.concatenate([operators.random_unimodulars(rng, 300), [(1, 0)] * len(self.SPECIAL_AXES)])
        rotations = operators.from_axis_angles(axes, rng.uniform(0.3, 5.9, len(axes)))
        u1 = operators.pairs_from_matrices(
            matmul2(operators.unimodular_matrices(ws), operators.unimodular_matrices(rotations))
        )
        pair, _ = operators.orthogonal_pairs(u1, ws)
        lam_plus, lam_minus = (pair.psi + pair.psi_perp) / np.sqrt(2), (pair.psi - pair.psi_perp) / np.sqrt(2)
        h = pauli_dot(axes)
        assert np.abs((h @ lam_minus[..., None])[..., 0] - lam_minus).max() <= 1e-15
        assert np.abs((h @ lam_plus[..., None])[..., 0] + lam_plus).max() <= 1e-15
        assert np.abs(np.sum(pair.psi.conj() * pair.psi_perp, axis=1)).max() <= 1e-15
        for states in (pair.psi, pair.psi_perp):
            assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() <= 1e-15
        lead = np.where(axes[:, 2] >= 0, lam_minus[:, 0], lam_minus[:, 1])
        assert np.abs(lead.imag).max() <= 1e-15 and (lead.real > 0).all()

    @pytest.mark.parametrize("axis", SPECIAL_AXES, ids=["+z", "-z", "x", "x+1e-17z", "x-1e-17z"])
    def test_each_special_axis_gives_its_pole_eigenvector(self, axis):
        """|lam-> is (1 + nz, nx + i ny) / sqrt(2(1 + |nz|)) where nz >= 0,
        else (nx - i ny, 1 - nz) over the same norm, and the images overlap
        by i sin(lam). With U2 a seeded Haar W in place of 1, U2^dag U1 is
        the rotation only to rounding, and the pair is still orthogonal and
        its images still overlap by i sin(lam), within 1e-12."""
        nx, ny, nz = axis
        rotation = operators.from_axis_angles([axis], [1.1])
        pair, _ = operators.orthogonal_pairs(rotation, [(1, 0)])
        want = np.array([1 + nz, nx + 1j * ny] if nz >= 0 else [nx - 1j * ny, 1 - nz]) / np.sqrt(2 * (1 + abs(nz)))
        np.testing.assert_allclose((pair.psi[0] - pair.psi_perp[0]) / np.sqrt(2), want, rtol=0, atol=1e-15)
        assert abs(np.vdot(pair.phi_prime[0], pair.phi[0]) - 1j * np.sin(pair.lam[0])) <= 1e-15
        w = operators.random_unimodulars(np.random.default_rng(28), 1)
        pair, _ = operators.orthogonal_pairs(operators.products(w, rotation), w)
        assert abs(np.vdot(pair.phi_prime[0], pair.phi[0]) - 1j * np.sin(pair.lam[0])) <= 1e-12
        assert abs(np.vdot(pair.psi[0], pair.psi_perp[0])) <= 1e-12


class TestDiagFormDecompose:
    """The diagonal form U = U0 diag(e^{i beta}, e^{-i beta}): U0^dag U is
    diagonal, with e^{i beta} as its a, exactly when U has that form."""

    def test_same_operator_gives_zero(self):
        u = operators.random_unimodulars(np.random.default_rng(16), 1)
        ((a, b),) = operators.products(operators.daggers(u), u)
        assert abs(b) <= tolerances.CLASS_TOL and np.angle(a) == pytest.approx(0.0, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        betas = rng.uniform(-np.pi + 0.01, np.pi, size=20)
        u0 = operators.random_unimodulars(rng, 20)
        u = operators.products(u0, np.stack([np.exp(1j * betas), np.zeros(20)], axis=-1))
        d = operators.products(operators.daggers(u0), u)
        assert np.abs(d[:, 1]).max() <= tolerances.CLASS_TOL
        np.testing.assert_allclose(np.angle(d[:, 0]), betas, rtol=0, atol=1e-9)

    def test_off_diagonal_gives_none(self):
        u0 = operators.random_unimodulars(np.random.default_rng(18), 1)
        u = operators.products(operators.from_axis_angles([[1.0, 0.0, 0.0]], [1.0]), u0)
        ((_, b),) = operators.products(operators.daggers(u0), u)
        assert abs(b) > tolerances.CLASS_TOL


def test_orthogonal_state_is_orthogonal():
    rng = np.random.default_rng(19)
    for _ in range(50):
        psi = random_qubit(rng)
        assert abs(np.vdot(psi, orthogonal_state(psi))) < 1e-12


@given(st.integers(0, 2**32 - 1))
def test_random_unimodular_on_unit_sphere(seed):
    u = random_unimodular(np.random.default_rng(seed))
    assert abs(abs(u.a) ** 2 + abs(u.b) ** 2 - 1) < 1e-10


def _written_out_draw(rng):
    """One Haar draw as the samplers are specified: a normalised normal 4-vector."""
    v = rng.normal(size=4)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("seed", [0, 1, 20020923])
def test_stacked_samplers_are_the_written_out_draws_bit_for_bit(seed):
    """10,000 draws each, as (a, b) = (v0 + i v1, v2 + i v3) and as U|0> =
    (a, -b*); the generator ends where the 10,000 one-draw calls leave it."""
    want = np.random.default_rng(seed)
    vs = np.array([_written_out_draw(want) for _ in range(10_000)])
    pairs = np.array([(v[0] + 1j * v[1], v[2] + 1j * v[3]) for v in vs])
    states = np.array([(v[0] + 1j * v[1], -v[2] + 1j * v[3]) for v in vs])
    for sampler, expected in ((operators.random_unimodulars, pairs), (operators.random_qubits, states)):
        rng = np.random.default_rng(seed)
        got = sampler(rng, 10_000)
        assert got.shape == (10_000, 2) and got.dtype == complex
        assert got.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == want.bit_generator.state


def test_one_draw_is_the_stacks_row():
    """``random_unimodular`` and ``random_qubit`` draw what one row of the
    stack does, so interleaved one-draw calls take the stack's stream."""
    rng, stacked = np.random.default_rng(3), np.random.default_rng(3)
    pairs, states = operators.random_unimodulars(stacked, 50), operators.random_qubits(stacked, 50)
    assert np.array_equal([(u.a, u.b) for u in (random_unimodular(rng) for _ in range(50))], pairs)
    assert np.array_equal([random_qubit(rng) for _ in range(50)], states)
    assert rng.bit_generator.state == stacked.bit_generator.state
