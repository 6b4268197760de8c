import numpy as np
import pytest

from remotegate import (
    GENERAL,
    BlochVector,
    Unimodular,
    bloch_vector,
    classify_operator,
    density_from_bloch,
    mirror_state,
    pure_density,
    random_qubit,
    random_unimodular,
    rz,
    verify_restoration,
)
from remotegate import bloch, operators
from remotegate.gates import PAULIS, dot_norms, matmul2, sigma_z
from remotegate.bloch import bloch_vectors, densities_from_bloch, pure_densities, verify_restorations
from remotegate.tolerances import DENSITY_TOL, RESTORE_TOL

HADAMARD_LIKE = Unimodular(1 / np.sqrt(2), 1 / np.sqrt(2))


class TestBlochVector:
    def test_north_pole(self):
        vec = bloch_vector(pure_density([1, 0]))
        assert (vec.sx, vec.sy, vec.sz) == pytest.approx((0, 0, 1))

    def test_maximally_mixed(self):
        vec = bloch_vector(np.eye(2) / 2)
        assert (vec.sx, vec.sy, vec.sz) == pytest.approx((0, 0, 0))

    def test_sz_is_population_difference(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            psi = random_qubit(rng)
            vec = bloch_vector(pure_density(psi))
            assert vec.sz == pytest.approx(abs(psi[0]) ** 2 - abs(psi[1]) ** 2, abs=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        psi = random_qubit(rng)
        rho = pure_density(psi)
        np.testing.assert_allclose(density_from_bloch(bloch_vector(rho)), rho, atol=1e-9)

    def test_pure_states_have_unit_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            vec = bloch_vector(pure_density(random_qubit(rng)))
            assert vec.norm == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            bloch_vector(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            bloch_vector(np.eye(2))

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="positive"):
            bloch_vector(np.diag([1.5, -0.5]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match=r"rho\[0, 1\] is not finite"):
            bloch_vector(np.array([[0.5, np.nan], [0.0, 0.5]]))


class TestStackForms:
    @staticmethod
    def _densities(rng, count):
        """Pure states, and mixtures of two of them."""
        pure = pure_densities([random_qubit(rng) for _ in range(2 * count)])
        weights = rng.random(count)[:, None, None]
        return np.concatenate([pure[:count], weights * pure[:count] + (1 - weights) * pure[count:]])

    def test_rows_are_the_one_matrix_formulas_bit_for_bit(self):
        """Against the formulas the one-matrix functions used before they
        became the stacks' one-row case: tr(rho s) per Pauli, and 1 plus
        each S s in turn, halved."""
        rhos = self._densities(np.random.default_rng(30), 100)
        vecs = bloch_vectors(rhos)
        assert vecs.shape == (200, 3)
        for rho, vec in zip(rhos, vecs):
            assert np.array_equal([float(np.trace(rho @ p).real) for p in PAULIS], vec)
            assert np.array_equal(bloch_vector(rho).as_array(), vec)
        assert np.array_equal(dot_norms(vecs), [BlochVector(*vec).norm for vec in vecs])
        back = densities_from_bloch(vecs)
        assert back.shape == (200, 2, 2)
        for vec, rho in zip(vecs, back):
            want = np.eye(2, dtype=complex)
            for s, p in zip(vec, PAULIS):
                want += s * p
            assert np.array_equal(want / 2.0, rho)
            assert np.array_equal(density_from_bloch(BlochVector(*vec)), rho)

    @pytest.mark.parametrize(
        "row, bad, message",
        [
            (2, [[0.5, np.nan], [0.0, 0.5]], r"^row 2: rho\[0, 1\] is not finite: nan$"),
            (1, [[0.5, 0.5], [0.0, 0.5]], r"^row 1: invalid density matrix: not Hermitian$"),
            (3, np.eye(2), r"^row 3: invalid density matrix: trace differs from 1$"),
            (0, np.diag([1.5, -0.5]), r"^row 0: invalid density matrix: not positive semidefinite$"),
        ],
        ids=["not_finite", "not_hermitian", "trace", "not_psd"],
    )
    def test_a_bad_row_is_refused_naming_it(self, row, bad, message):
        rhos = self._densities(np.random.default_rng(31), 2)
        rhos[row] = bad
        with pytest.raises(ValueError, match=message):
            bloch_vectors(rhos)

    @pytest.mark.parametrize("seed", [0, 28])
    def test_min_eigenvalues_are_eigvalsh_s(self, seed):
        """The closed form against LAPACK on 1,000 seeded Hermitian matrices
        at scales 1e-6, 1 and 1e6, diagonal ones and ones with equal
        eigenvalues among them, within 8 ulps of the larger |eigenvalue|."""
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(1000, 2, 2)) + 1j * rng.normal(size=(1000, 2, 2))
        h = (a + a.conj().swapaxes(1, 2)) / 2 * np.repeat([1e-6, 1.0, 1e6], [300, 400, 300])[:, None, None]
        h[:50, 0, 1] = h[:50, 1, 0] = 0
        h[50:100] = rng.normal(size=(50, 1, 1)) * np.eye(2)
        eigs = np.linalg.eigvalsh(h)
        scale = np.abs(eigs).max(axis=1)
        assert (np.abs(bloch._min_eigenvalues(h) - eigs[:, 0]) <= 8 * np.finfo(float).eps * scale).all()

    @pytest.mark.parametrize("eps, refused", [(2 * DENSITY_TOL, True), (DENSITY_TOL / 2, False)], ids=["past", "within"])
    def test_a_negative_eigenvalue_is_read_against_the_tolerance(self, eps, refused):
        """(1 + eps)|psi><psi| - eps|psi_perp><psi_perp| has unit trace and
        the eigenvalue -eps; on a general psi every entry counts. Row 3 is
        refused by row and message past DENSITY_TOL, and admitted within it."""
        rng = np.random.default_rng(32)
        rhos = self._densities(rng, 3)
        psi = random_qubit(rng)
        rhos[3] = (1 + eps) * pure_density(psi) - eps * pure_density(operators.orthogonal_state(psi))
        if refused:
            with pytest.raises(ValueError, match=r"^row 3: invalid density matrix: not positive semidefinite$"):
                bloch_vectors(rhos)
        else:
            assert bloch_vectors(rhos).shape == (6, 3)

    @pytest.mark.parametrize(
        "rhos", [np.eye(2) / 2, np.zeros((2, 3, 3)), np.zeros((1, 2, 2, 2))], ids=["one_matrix", "3x3", "4d"]
    )
    def test_a_stack_that_is_not_of_2x2_matrices_is_refused(self, rhos):
        with pytest.raises(ValueError, match=r"^expected an \(N, 2, 2\) stack of density matrices, got shape "):
            bloch_vectors(rhos)

    @pytest.mark.parametrize("vecs", [[0.0, 0.0, 1.0], np.zeros((2, 4))], ids=["one_vector", "4_components"])
    def test_a_stack_that_is_not_of_3_vectors_is_refused(self, vecs):
        with pytest.raises(ValueError, match=r"^expected an \(N, 3\) stack of Bloch vectors, got shape "):
            densities_from_bloch(vecs)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: densities_from_bloch([[0, 0, 1], [0, np.inf, 0]]), r"^row 1: S\[1\] is not finite: inf$"),
            (lambda: densities_from_bloch([[np.nan, 0, 1], [0, np.inf, 0]]), r"^row 0: S\[0\] is not finite: nan$"),
            (lambda: density_from_bloch(BlochVector(np.nan, 0, 0)), r"^S\[0\] is not finite: nan$"),
            (lambda: density_from_bloch(BlochVector(0, 0, -np.inf)), r"^S\[2\] is not finite: -inf$"),
        ],
        ids=["stack_inf", "stack_first_row", "one_nan", "one_minus_inf"],
    )
    def test_a_vector_that_is_not_finite_is_refused_by_name(self, call, message):
        """Refused before any arithmetic: tier-1 errors on any warning, so
        a product with inf or nan taken first fails here."""
        with pytest.raises(ValueError, match=message):
            call()

    def test_one_matrix_that_is_not_2x2_is_refused(self):
        with pytest.raises(ValueError, match=r"^expected a 2x2 density matrix, got shape \(3, 3\)$"):
            bloch_vector(np.eye(3) / 3)


def test_pure_density_of_huge_state():
    np.testing.assert_allclose(pure_density([1e200, 0]), [[1, 0], [0, 0]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pure_density([np.nan, 0]), r"^psi\[0\] is not finite: nan$"),
        (lambda: pure_density([np.inf, 0]), r"^psi\[0\] is not finite: inf$"),
        (lambda: pure_density([0, -np.inf]), r"^psi\[1\] is not finite: -inf$"),
        (lambda: verify_restoration(rz(0.1), [np.nan, 1]), r"^psi\[0\] is not finite: nan$"),
        (lambda: pure_density([0, 0]), r"^psi must be nonzero$"),
        # a stack names its first bad row, with the first check that row fails
        (lambda: pure_densities([[1, 0], [np.nan, 1], [0, 0]]), r"^row 1: psi\[0\] is not finite"),
        (lambda: pure_densities([[1, 0], [0, 0], [np.nan, 1]]), r"^row 1: psi must be nonzero$"),
        # a state with other than two entries
        (lambda: pure_density([1, 0, 0]), r"^psi must be a single-qubit state$"),
        (lambda: verify_restoration(rz(0.1), [1, 0, 0]), r"^psi must be a single-qubit state$"),
        (lambda: pure_densities([[1, 0, 0], [0, 1, 0]]), r"^row 0: psi must be a single-qubit state$"),
    ],
    ids=[
        "nan",
        "inf",
        "minus_inf_second",
        "restoration_nan",
        "zero",
        "stack_nan_first",
        "stack_zero_first",
        "three_entries",
        "restoration_three_entries",
        "stack_three_entries",
    ],
)
def test_pure_density_names_a_bad_psi(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestMirrorState:
    def test_plus_maps_to_minus(self):
        out = mirror_state(np.array([1, 1]) / np.sqrt(2))
        np.testing.assert_allclose(out, np.array([1, -1]) / np.sqrt(2))
        assert bloch_vector(pure_density(out)).sx == pytest.approx(-1.0)

    def test_zero_is_fixed_point(self):
        np.testing.assert_allclose(mirror_state(np.array([1, 0])), [1, 0])

    def test_equator_negated_pole_kept(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            psi = random_qubit(rng)
            before = bloch_vector(pure_density(psi))
            after = bloch_vector(pure_density(mirror_state(psi)))
            assert after.sx == pytest.approx(-before.sx, abs=1e-10)
            assert after.sy == pytest.approx(-before.sy, abs=1e-10)
            assert after.sz == pytest.approx(before.sz, abs=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            mirror_state(np.array([1.0, 1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match=r"psi\[1\] is not finite: inf$"):
            mirror_state(np.array([1.0, np.inf]))

    @pytest.mark.parametrize("psi", [[1, 0, 0], [1], [[1, 0]]])
    def test_rejects_a_state_that_is_not_one_qubits(self, psi):
        with pytest.raises(ValueError, match=r"^psi must be a single-qubit state$"):
            mirror_state(psi)


class TestRestoration:
    @pytest.mark.parametrize(
        "count, psis, message",
        [
            (3, [[1, 0], [0, 1]], r"^3 rotations and 2 states do not match$"),
            (1, [[1, 0], [0, 1]], r"^1 rotations and 2 states do not match$"),
        ],
        ids=["more_rotations", "fewer_rotations"],
    )
    def test_stacks_of_unequal_length_are_refused(self, count, psis, message):
        with pytest.raises(ValueError, match=message):
            verify_restorations([rz(0.1)] * count, psis)

    @staticmethod
    def _restorations_by_products(us, psis):
        """``verify_restorations`` with each conjugation by sz written as two ``matmul2`` products."""
        m = operators.unimodular_matrices(operators.as_pairs(us))
        m_dag, rho = m.conj().swapaxes(1, 2), pure_densities(psis)
        mirrored = matmul2(matmul2(sigma_z, rho), sigma_z)
        restored = matmul2(matmul2(sigma_z, matmul2(matmul2(m, mirrored), m_dag)), sigma_z)
        return np.abs(restored - matmul2(matmul2(m, rho), m_dag)).max(axis=(1, 2)) <= RESTORE_TOL

    @pytest.mark.parametrize("seed", [0, 28])
    def test_the_sign_mask_is_the_sz_conjugation(self, seed):
        """On seeded Haar, z-rotation and off-diagonal operators, with |0>,
        |1> and |+> among Haar states: the mask negates the off-diagonal
        entries of each density matrix as sz X sz does, equal up to the sign
        of a zero, and the verdicts are the two-product form's."""
        rng = np.random.default_rng(seed)
        phases, diagonal = np.exp(1j * rng.uniform(0, 2 * np.pi, 400)), rng.random(400) < 0.5
        in_set = np.stack([np.where(diagonal, phases, 0), np.where(diagonal, 0, phases)], axis=-1)
        us = np.concatenate([operators.random_unimodulars(rng, 400), in_set])
        psis = operators.random_qubits(rng, 800)
        psis[::7], psis[1::7], psis[2::7] = [1, 0], [0, 1], np.array([1, 1]) / np.sqrt(2)
        rho = pure_densities(psis)
        masked, conjugated = rho * bloch._SZ_SIGNS, matmul2(matmul2(sigma_z, rho), sigma_z)
        assert np.array_equal(masked, conjugated)
        differ = masked.view(np.uint64) != conjugated.view(np.uint64)
        assert (masked.view(float)[differ] == 0).all()
        assert np.array_equal(verify_restorations(us, psis), self._restorations_by_products(us, psis))

    def test_z_rotation_restores(self):
        rng = np.random.default_rng(4)
        assert verify_restoration(rz(1.23), random_qubit(rng))

    def test_anticommuting_restores(self):
        rng = np.random.default_rng(5)
        assert verify_restoration(Unimodular(0, np.exp(0.4j)), random_qubit(rng))

    def test_general_fails_off_axis(self):
        # direct evaluation: U |0><0| U^dag = (1 - sx)/2 for the
        # Hadamard-like rotation, and conjugating its mirror by sz gives
        # (1 + sx)/2 instead.
        assert not verify_restoration(HADAMARD_LIKE, np.array([1, 0]))

    def test_rotation_covariance(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            u, psi = random_unimodular(rng), random_qubit(rng)
            rho = pure_density(psi)
            conj = u.matrix @ rho @ u.matrix.conj().T
            np.testing.assert_allclose(density_from_bloch(bloch_vector(conj)), conj, atol=1e-9)

    def test_restoration_matches_classification(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            if rng.random() < 0.5:
                u = random_unimodular(rng)
            elif rng.random() < 0.5:
                u = rz(rng.uniform(0, 2 * np.pi))
            else:
                u = Unimodular(0, np.exp(1j * rng.uniform(0, 2 * np.pi)))
            if classify_operator(u).kind != GENERAL:
                assert verify_restoration(u, random_qubit(rng))
            else:
                assert not all(
                    verify_restoration(u, random_qubit(rng)) for _ in range(10)
                )
