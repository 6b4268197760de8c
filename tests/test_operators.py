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
    orthogonal_state,
    pauli_dot,
    q_operator,
    random_qubit,
    random_unimodular,
    rz,
    sigma_x,
    sigma_y,
    sigma_z,
    solve_correction,
)

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

    def test_huge_entry_refused_with_residual(self):
        with pytest.raises(ValueError, match="deviates from 1 by inf"):
            Unimodular(1e200, 0)

    def test_from_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        u = random_unimodular(rng)
        np.testing.assert_allclose(Unimodular.from_matrix(u.matrix).matrix, u.matrix)

    def test_from_matrix_rejects_non_special(self):
        with pytest.raises(ValueError, match="special-unitary"):
            Unimodular.from_matrix(sigma_z)  # det -1

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

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError, match="theta is not finite: inf"):
            from_axis_angle(Z_AXIS, np.inf)

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
