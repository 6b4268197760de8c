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
    IDENTITY,
    Unimodular,
    X_AXIS,
    Z_AXIS,
    check_common_correction,
    classify_operator,
    diag_form_decompose,
    find_common_axis,
    find_orthogonal_pair,
    from_axis_angle,
    operators,
    orthogonal_state,
    pauli_dot,
    protocols,
    q_operator,
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
from remotegate.gates import RowError, dot_norms, matmul2

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
        u = random_unimodular(np.random.default_rng(1))
        np.testing.assert_allclose((u @ u.dagger()).matrix, np.eye(2), atol=1e-12)

    @given(st.floats(-8, 8), st.floats(-8, 8), st.floats(0, 2), st.floats(0, 2))
    def test_products_stay_unimodular(self, t1, t2, x1, x2):
        n1 = np.array([np.sin(x1), 0.0, np.cos(x1)])
        n2 = np.array([0.0, np.sin(x2), np.cos(x2)])
        w = from_axis_angle(n1, t1) @ from_axis_angle(n2, t2)
        assert abs(abs(w.a) ** 2 + abs(w.b) ** 2 - 1) < 1e-10

    def test_matmul_matches_matrix_product(self):
        rng = np.random.default_rng(2)
        u, v = random_unimodular(rng), random_unimodular(rng)
        np.testing.assert_allclose((u @ v).matrix, u.matrix @ v.matrix, atol=1e-12)


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
        np.testing.assert_allclose(from_axis_angle(X_AXIS, np.pi).matrix, -1j * sigma_x, atol=1e-12)

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
        for call in (lambda: from_axis_angle(axis, 0.3), lambda: classify_operator(IDENTITY, axis)):
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

    def test_a_stack_of_the_wrong_shape_is_refused(self):
        with pytest.raises(ValueError, match=r"^expected an \(N, 3\) stack of axes, got shape \(3,\)$"):
            operators.from_axis_angles(Z_AXIS, [0.5])
        with pytest.raises(ValueError, match="^1 angles and 2 axes do not match$"):
            operators.from_axis_angles([Z_AXIS, X_AXIS], [0.5])

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
            kinds = [classify_operator(u, ax).kind for ax in (X_AXIS, Z_AXIS)]
            assert all(k in (COMMUTING, ANTICOMMUTING, GENERAL) for k in kinds)

    def test_axis_must_be_unit(self):
        with pytest.raises(ValueError, match="non-unit axis"):
            classify_operator(IDENTITY, np.array([0.0, 0.0, 2.0]))

    def test_axis_must_be_finite(self):
        with pytest.raises(ValueError, match=r"axis\[0\] is not finite: nan"):
            classify_operator(Unimodular(0, 1j), np.array([np.nan, 0.0, 1.0]))


def _stacked_norms(matrices, n_sigma):
    """The commutator and anticommutator norms as one ``np.stack`` of the
    two, the formula ``commutation_norms`` computes without the stack."""
    um, mu = matmul2(matrices, n_sigma), matmul2(n_sigma, matrices)
    both = np.stack([um - mu, um + mu])
    flat = both.reshape(*both.shape[:-2], 4).view(float)
    comm, anti = np.sqrt(np.einsum("...i,...i->...", flat, flat))
    return comm, anti


def _straddling_magnitudes(norm_of):
    """The float x at which ``norm_of(x) <= CLASS_TOL`` last holds, and the
    next float, where it fails: one ulp either side of the boundary."""
    x = tolerances.CLASS_TOL / np.sqrt(8)  # |[U, sz]| = sqrt(8)|b|, |{U, sz}| = sqrt(8)|a|
    while norm_of(x) <= tolerances.CLASS_TOL:
        x = np.nextafter(x, 1.0)
    while norm_of(x) > tolerances.CLASS_TOL:
        x = np.nextafter(x, 0.0)
    return x, np.nextafter(x, 1.0)


def _boundary_matrices():
    """Rotations with |b| (commutator) or |a| (anticommutator) one ulp
    either side of the CLASS_TOL boundary, at several phases."""
    pairs = []
    for phase in np.exp(1j * np.array([0.0, 0.3, 2.1])):
        for small_b in (True, False):
            def pair(x, phase=phase, small_b=small_b):
                big = np.sqrt(1.0 - x * x)
                return (big, x * phase) if small_b else (x * phase, big)

            def norm_of(x, pair=pair, small_b=small_b):
                comm, anti = operators.commutation_norms(operators.unimodular_matrices(np.array([pair(x)])), sigma_z)
                return (comm if small_b else anti)[0]

            pairs += [pair(x) for x in _straddling_magnitudes(norm_of)]
    return operators.unimodular_matrices(np.array(pairs))


def _haar_matrices(rng, count):
    return operators.unimodular_matrices(np.array([(u.a, u.b) for u in (random_unimodular(rng) for _ in range(count))]))


class TestCommutationNorms:
    def test_matches_the_stack_formula_bit_for_bit(self):
        rng = np.random.default_rng(11)
        haar = _haar_matrices(rng, 1000)
        boundary = _boundary_matrices()
        axes = [Z_AXIS, X_AXIS, rng.normal(size=3)]
        for matrices in (haar, boundary, haar.reshape(10, 100, 2, 2), haar[0], boundary[0]):
            for axis in axes:
                n_sigma = pauli_dot(axis / np.linalg.norm(axis))
                got, want = operators.commutation_norms(matrices, n_sigma), _stacked_norms(matrices, n_sigma)
                for a, b in zip(got, want):
                    assert a.shape == b.shape == matrices.shape[:-2]
                    assert np.array_equal(a, b)

    def test_boundary_matrices_fall_either_side(self):
        """Each ulp pair straddles the boundary: the first one classifies in
        its class, the second one does not."""
        kinds = operators.classify_matrices(_boundary_matrices()).tolist()
        assert kinds == [COMMUTING, GENERAL, ANTICOMMUTING, GENERAL] * 3

    def test_rows_classify_as_classify_matrices(self):
        rng = np.random.default_rng(12)
        in_set = [(u.a, u.b) for u in (rz(rng.uniform(0, 6)) for _ in range(20))]
        in_set += [(0, np.exp(1j * rng.uniform(0, 6))) for _ in range(20)]
        in_set = operators.unimodular_matrices(np.array(in_set, dtype=complex))
        matrices = np.concatenate((_haar_matrices(rng, 1000), in_set, _boundary_matrices()))
        count = len(matrices)
        rows = protocols._Rows(u=matrices, psi=np.tile([1.0, 0.0], (count, 1)), promise=np.zeros(count, dtype=np.intp),
                               pairs=matrices[:, 0])
        expected = operators.classify_matrices(matrices)
        assert set(expected.tolist()) == {COMMUTING, ANTICOMMUTING, GENERAL}
        assert np.array_equal(rows.kinds, expected)

    def test_rows_norms_are_the_sz_norms_bit_for_bit(self):
        """``_Rows.norms``, one product with a sign stack, is
        ``commutation_norms(u, sigma_z)`` byte for byte, on the stack and on
        each row alone: on Haar rotations, on |b| or |a| within four ulps of
        CLASS_TOL / sqrt(8), where its class begins, and on the exact Paulis."""
        rng = np.random.default_rng(13)
        edge = []
        for phase in np.exp(1j * np.array([0.0, 0.3, 2.1, -1.2])):
            x = tolerances.CLASS_TOL / np.sqrt(8)  # |[U, sz]| = sqrt(8)|b|, |{U, sz}| = sqrt(8)|a|
            for _ in range(4):
                x = np.nextafter(x, 0.0)
            for _ in range(9):
                big = np.sqrt(1.0 - x * x)
                edge += [(big, x * phase), (x * phase, big)]
                x = np.nextafter(x, 1.0)
        paulis = [(1, 0), (-1, 0), (0, 1), (0, -1), (1j, 0), (-1j, 0), (0, 1j), (0, -1j)]
        for pairs in (operators.random_unimodulars(rng, 1000), np.array(edge), np.array(paulis, dtype=complex)):
            matrices = operators.unimodular_matrices(pairs)
            count = len(matrices)
            rows = protocols._Rows(u=matrices, psi=np.tile([1.0, 0.0], (count, 1)), promise=np.zeros(count, dtype=np.intp),
                                   pairs=matrices[:, 0])
            want = operators.commutation_norms(matrices, sigma_z)
            assert all(got.tobytes() == norm.tobytes() for got, norm in zip(rows.norms, want))
            for n in range(count):
                one = protocols._Rows(u=matrices[n : n + 1], psi=rows.psi[n : n + 1], promise=rows.promise[n : n + 1],
                                      pairs=matrices[n : n + 1, 0])
                assert all(got.tobytes() == norm[n : n + 1].tobytes() for got, norm in zip(one.norms, want))

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


class TestQOperator:
    def test_projector_on_zero(self):
        q = q_operator(0.4, np.array([1, 0]))
        np.testing.assert_allclose(q.matrix, np.diag([np.exp(0.4j), np.exp(-0.4j)]))

    def test_pi_gives_minus_identity(self):
        xi = random_qubit(np.random.default_rng(6))
        np.testing.assert_allclose(q_operator(np.pi, xi).matrix, -np.eye(2), atol=1e-12)

    def test_symmetry_under_orthogonal_swap(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            alpha = rng.uniform(-3, 3)
            xi = random_qubit(rng)
            lhs = q_operator(alpha, xi).matrix
            rhs = q_operator(-alpha, orthogonal_state(xi)).matrix
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            q_operator(0.5, np.array([1.0, 1.0]))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: q_operator(0.3, [1, 0, 0]), r"^xi must be a single-qubit state$"),
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
            (lambda: q_operator(np.inf, [1, 0]), r"^alpha is not finite: inf$"),
            (lambda: q_operator(0.3, [0, np.nan]), r"^xi\[1\] is not finite: nan$"),
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
        sol = solve_correction(rz(0.9))
        np.testing.assert_allclose(sol.v, sigma_z, atol=1e-12)
        assert sol.delta == 0.0

    def test_identity_gives_sigma_z(self):
        sol = solve_correction(IDENTITY)
        np.testing.assert_allclose(sol.v, sigma_z, atol=1e-12)

    def test_anticommuting_gives_minus_sigma_z(self):
        # U sz U^dag for U = [[0,1],[-1,0]] is -sz by direct product.
        sol = solve_correction(Unimodular(0, 1))
        np.testing.assert_allclose(sol.v, -sigma_z, atol=1e-12)

    def test_stack_is_the_one_operator_formula_bit_for_bit(self):
        rng = np.random.default_rng(9)
        us = [random_unimodular(rng) for _ in range(200)] + [rz(0.9), IDENTITY, Unimodular(0, 1)]
        sol = operators.solve_corrections(us)
        assert sol.v.shape == (len(us), 2, 2) and np.array_equal(sol.delta, np.zeros(len(us)))
        for u, v in zip(us, sol.v):
            assert np.array_equal(matmul2(matmul2(u.matrix, sigma_z), u.matrix.conj().T), v)
            one = solve_correction(u)
            assert np.array_equal(one.v, v) and one.delta == 0.0

    def test_identity_holds_for_random_operators(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            u = random_unimodular(rng)
            sol = solve_correction(u)
            residual = sol.v @ u.matrix - np.exp(1j * sol.delta) * u.matrix @ sigma_z
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
        ops.append(from_axis_angle(X_AXIS, np.pi / 3))
        assert check_common_correction(ops) is None

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            check_common_correction([])

    def test_sign_convention_is_order_independent(self):
        ops = [Unimodular(0, 1), rz(0.4)]
        found = check_common_correction(ops)
        np.testing.assert_allclose(found.v, sigma_z, atol=1e-9)
        assert found.deltas == (np.pi, 0.0)


AXIS_SEARCH_KINDS = ["common_axis", "half_turns_only", "central_only", "no_axis", "central_first"]

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
        assert find_common_axis([from_axis_angle(X_AXIS, np.pi / 3), rz(np.pi / 5)]) is None

    def test_half_turns_in_a_plane_share_its_normal(self):
        # no member's own axis works here; only the plane normal does
        ops = [
            from_axis_angle([1.0, 0.0, 0.0], np.pi),
            from_axis_angle([0.0, 1.0, 0.0], np.pi),
            from_axis_angle(np.array([1.0, 1.0, 0.0]) / np.sqrt(2), np.pi),
        ]
        np.testing.assert_allclose(find_common_axis(ops), Z_AXIS, atol=1e-9)

    def test_identity_only_set_is_unconstrained(self):
        found = find_common_axis([IDENTITY, Unimodular(-1, 0)])
        np.testing.assert_allclose(found, Z_AXIS)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            find_common_axis([])

    @pytest.mark.parametrize("kind", AXIS_SEARCH_KINDS)
    def test_lazy_crosses_match_the_eager_search(self, kind):
        """The search builds a cross-product candidate only once every
        operator's own axis has failed; the oracle builds every candidate
        first. Both must return the same axis, bit for bit, or both None."""
        rng = np.random.default_rng(AXIS_SEARCH_KINDS.index(kind) + 70)
        for _ in range(40):
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
        monkeypatch.setattr(operators, "_search_axis", lambda m, axes: searched.append(m) or search(m, axes))
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
        own axes in blocks, then the cross products; the oracle tries every
        candidate, one at a time. Both give the same axis, byte for byte,
        or both None."""
        rng = np.random.default_rng(STACKED_SEARCH_KINDS.index(kind) + 90)
        sets = [_stacked_search_set(rng, kind) for _ in range(60)]
        found = [find_common_axis(ops) for ops in sets]
        searched = []
        monkeypatch.setattr(
            operators, "_search_axis", lambda m, axes: searched.append(m) or _one_candidate_search(m, axes)
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
        is still tried, and found."""
        ops = [parse_operator(spec) for spec in ("rot:0,1,0,3.141592653589793", "rot:3e-5,0,1,1e-6", "rot:0,0,1,1.1")]
        assert all(classify_operator(u, Z_AXIS).kind != GENERAL for u in ops)
        assert find_common_axis(ops).tobytes() == np.array([0.0, 0.0, 1.0]).tobytes()

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
            matrices = np.stack([u.matrix for u in ops])
            fits = operators._fits(matrices, pauli_dot(axes)[:, None])
            assert np.array_equal(fits, operators._fits(matrices, pauli_dot(-axes)[:, None]))
            decided += fits.tolist()
        assert True in decided and False in decided
        signed = axes * operators._canonical_signs(axes)[:, None] + 0.0
        flipped = -axes * operators._canonical_signs(-axes)[:, None] + 0.0
        assert signed.tobytes() == flipped.tobytes()

    def test_repeated_axes_are_tried_once(self, monkeypatch):
        """200 operators drawn from two generic rotations, each as given or
        as its inverse (the axis reversed), with no common axis: after the
        first candidate, only the other axis and their cross product reach
        ``_fits``."""
        rng = np.random.default_rng(151)
        pair = [random_unimodular(rng), random_unimodular(rng)]
        picks = zip(rng.integers(2, size=200), rng.random(200) < 0.5)
        ops = [pair[k] if given else pair[k].dagger() for k, given in picks]
        tried, fits = [], operators._fits
        monkeypatch.setattr(operators, "_fits", lambda m, n_sigma: tried.append(len(n_sigma)) or fits(m, n_sigma))
        assert find_common_axis(ops) is None
        assert tried[0] == 1 and sum(tried[1:]) <= 2, tried

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
        assert peak < 32 * 2**20, peak
        monkeypatch.setattr(operators, "_search_axis", _one_candidate_search)
        want = find_common_axis(ops)
        assert (found is None) == (want is None) == (kind == "no_axis"), kind
        assert found is None or found.tobytes() == want.tobytes(), kind

    def test_cached_pair_indices_keep_every_cross_product_and_answer(self, monkeypatch):
        """``_cross_axes`` takes its index pairs from a cache keyed by set
        size: on the seeded sets of every search kind, each call's products
        are those of ``np.triu_indices`` and ``np.cross``, in their order,
        byte for byte, and so is every ``find_common_axis`` answer."""
        rng = np.random.default_rng(160)
        sets = [_axis_search_set(rng, kind) for kind in AXIS_SEARCH_KINDS for _ in range(20)]
        sets += [_stacked_search_set(rng, kind) for kind in STACKED_SEARCH_KINDS for _ in range(20)]
        calls, cross = [], operators._cross_axes
        monkeypatch.setattr(operators, "_cross_axes", lambda axes: calls.append((axes, cross(axes))) or calls[-1][1])
        hits = operators._pair_indices.cache_info().hits
        found = [find_common_axis(ops) for ops in sets]
        assert len(calls) >= 50 and operators._pair_indices.cache_info().hits > hits
        for axes, got in calls:
            want = _triu_cross_axes(axes)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        monkeypatch.setattr(operators, "_cross_axes", _triu_cross_axes)
        for ops, got in zip(sets, found):
            want = find_common_axis(ops)
            assert (got is None) == (want is None) and (got is None or got.tobytes() == want.tobytes())

    def test_a_stack_refusal_names_the_set_and_operator(self):
        families = np.tile([1.0 + 0j, 0j], (2, 3, 1))
        families[1, 2] = (1.0, 0.5)
        with pytest.raises(RowError, match=r"^row 1, 2: not unimodular"):
            operators.find_common_axes(families)
        with pytest.raises(ValueError, match=r"nonempty operator sets, got shape \(2, 0, 2\)$"):
            operators.find_common_axes(np.zeros((2, 0, 2), dtype=complex))


def _axis_search_set(rng, kind, size=None):
    """A seeded operator set of one of ``AXIS_SEARCH_KINDS``, conjugated by a
    Haar rotation; ``central_first`` is a common-axis set led by -1, so that
    its first candidate is a half-turn's axis."""
    w = random_unimodular(rng)
    size = int(rng.integers(2, 11)) if size is None else size
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    if kind == "central_only":
        return [Unimodular(rng.choice([1.0, -1.0]), 0) for _ in range(size)]
    if kind == "no_axis":
        return [random_unimodular(rng) for _ in range(size)]
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


def _eager_common_axis(operators):
    """The axis search with every candidate built up front: each
    operator's own axis, then every pairwise cross product."""
    axes = []
    for u in operators:
        _, vec = u.pauli_decompose()
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
        if all(classify_operator(u, cand).kind != GENERAL for u in operators):
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


def _one_candidate_search(matrices, axes):
    """The axis search one candidate at a time: the rest of ``axes``, then
    their cross products, every one tried by its own ``_fits`` pass."""
    for cand in itertools.chain(axes[1:], operators._cross_axes(axes)):
        if operators._fits(matrices, pauli_dot(cand)):
            return cand * operators._canonical_signs(cand) + 0.0
    return None


class TestOrthogonalPair:
    def test_quarter_turn_example(self):
        # U2^dag U1 = i sz has eigenvalues e^{+-i pi/2}.
        pair = find_orthogonal_pair(Unimodular(1j, 0), IDENTITY)
        assert pair.lam == pytest.approx(np.pi / 2, abs=1e-12)
        assert np.vdot(pair.phi_prime, pair.phi) == pytest.approx(1j, abs=1e-9)

    def test_degenerate_pair_rejected(self):
        u = random_unimodular(np.random.default_rng(14))
        with pytest.raises(ValueError, match="degenerate"):
            find_orthogonal_pair(u, u)

    def test_overlap_identity_for_random_pairs(self):
        rng = np.random.default_rng(15)
        done = 0
        while done < 1000:
            u1, u2 = random_unimodular(rng), random_unimodular(rng)
            try:
                pair = find_orthogonal_pair(u1, u2)
            except ValueError:
                continue
            done += 1
            # independent oracle: lam off the raw eigenvalues of U2^dag U1
            evals = np.linalg.eigvals(u2.dagger().matrix @ u1.matrix)
            lam_ref = abs(np.angle(evals[0]))
            overlap = np.vdot(pair.phi_prime, pair.phi)
            assert abs(abs(overlap) - abs(np.sin(lam_ref))) < 1e-9
            assert abs(overlap - 1j * np.sin(pair.lam)) < 1e-9
            assert abs(np.vdot(pair.psi, pair.psi_perp)) < 1e-10
            np.testing.assert_allclose(pair.phi, u1.matrix @ pair.psi, atol=1e-12)
            np.testing.assert_allclose(pair.phi_prime, u2.matrix @ pair.psi_perp, atol=1e-12)

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
        pair = find_orthogonal_pair(from_axis_angle(axis, 1.1), IDENTITY)
        want = np.array([1 + nz, nx + 1j * ny] if nz >= 0 else [nx - 1j * ny, 1 - nz]) / np.sqrt(2 * (1 + abs(nz)))
        np.testing.assert_allclose((pair.psi - pair.psi_perp) / np.sqrt(2), want, rtol=0, atol=1e-15)
        assert abs(np.vdot(pair.phi_prime, pair.phi) - 1j * np.sin(pair.lam)) <= 1e-15
        w = random_unimodular(np.random.default_rng(28))
        pair = find_orthogonal_pair(w @ from_axis_angle(axis, 1.1), w)
        assert abs(np.vdot(pair.phi_prime, pair.phi) - 1j * np.sin(pair.lam)) <= 1e-12
        assert abs(np.vdot(pair.psi, pair.psi_perp)) <= 1e-12


class TestDiagFormDecompose:
    def test_same_operator_gives_zero(self):
        u = random_unimodular(np.random.default_rng(16))
        assert diag_form_decompose(u, u) == pytest.approx(0.0, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        for beta in rng.uniform(-np.pi + 0.01, np.pi, size=20):
            u0 = random_unimodular(rng)
            u = u0 @ rz(beta)
            assert diag_form_decompose(u, u0) == pytest.approx(beta, abs=1e-9)

    def test_off_diagonal_gives_none(self):
        u0 = random_unimodular(np.random.default_rng(18))
        u = from_axis_angle(X_AXIS, 1.0) @ u0
        assert diag_form_decompose(u, u0) is None


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
