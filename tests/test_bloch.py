import numpy as np
import pytest

from remotegate import (
    GENERAL,
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
from remotegate.bloch import pure_densities

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


def test_pure_density_of_huge_state():
    np.testing.assert_allclose(pure_density([1e200, 0]), [[1, 0], [0, 0]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pure_density([np.nan, 0]), r"^psi\[0\] is not finite: \(nan\+0j\)$"),
        (lambda: pure_density([np.inf, 0]), r"^psi\[0\] is not finite: \(inf\+0j\)$"),
        (lambda: pure_density([0, -np.inf]), r"^psi\[1\] is not finite: \(-inf\+0j\)$"),
        (lambda: verify_restoration(rz(0.1), [np.nan, 1]), r"^psi\[0\] is not finite: \(nan\+0j\)$"),
        (lambda: pure_density([0, 0]), r"^psi must be nonzero$"),
        # a stack names its first bad row, with the first check that row fails
        (lambda: pure_densities([[1, 0], [np.nan, 1], [0, 0]]), r"^row 1: psi\[0\] is not finite"),
        (lambda: pure_densities([[1, 0], [0, 0], [np.nan, 1]]), r"^row 1: psi must be nonzero$"),
    ],
    ids=["nan", "inf", "minus_inf_second", "restoration_nan", "zero", "stack_nan_first", "stack_zero_first"],
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
        with pytest.raises(ValueError, match=r"psi\[1\] is not finite: \(inf"):
            mirror_state(np.array([1.0, np.inf]))


class TestRestoration:
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
