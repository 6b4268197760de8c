"""Bloch-vector computations and the sign-flip restoration identity.

A qubit density matrix splits as rho = (1 + Sx*sx + Sy*sy + Sz*sz)/2 with
Si = tr(rho si). The mirror state sz|psi> negates the equatorial projection
(Sx, Sy) while keeping Sz, which is why a final sz fixes the wrong protocol
branch exactly for operators that commute or anticommute with sz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import _require_rows, identity2, matmul2, pauli_dot, pauli_vectors, require_finite_rows, sigma_z, single_row
from .operators import Unimodular, as_pairs, unimodular_matrices
from .statevector import _given_unit, _qubit_rows, _unit_qubits
from .tolerances import DENSITY_TOL, RESTORE_TOL

#: sz X sz for a 2x2 X is X with its off-diagonal entries negated
_SZ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


@dataclass(frozen=True)
class BlochVector:
    sx: float
    sy: float
    sz: float

    def as_array(self) -> np.ndarray:
        return np.array([self.sx, self.sy, self.sz])


def pure_densities(psis) -> np.ndarray:
    """|psi><psi| for each row of a stack of states, normalized on entry as a protocol
    run admits Bob's (README, Conventions); the first bad row is refused, naming it."""
    unit, check = _unit_qubits(psis)
    _require_rows(*check)
    return unit[:, :, None] * unit[:, None, :].conj()


def pure_density(psi) -> np.ndarray:
    """|psi><psi| for a (normalized) single-qubit state: ``pure_densities`` of one."""
    with single_row:
        return pure_densities([psi])[0]


def _min_eigenvalues(hermitians) -> np.ndarray:
    """The smaller eigenvalue tr/2 - hypot((h00 - h11)/2, |h01|) of each
    matrix of an (N, 2, 2) Hermitian stack, read from its diagonal and upper entry."""
    h00, h11 = hermitians[:, 0, 0].real, hermitians[:, 1, 1].real
    return (h00 + h11) / 2 - np.hypot((h00 - h11) / 2, np.abs(hermitians[:, 0, 1]))


def bloch_vectors(rhos) -> np.ndarray:
    """(Sx, Sy, Sz) of each valid density matrix of an (N, 2, 2) stack, as
    an (N, 3) array. Each test in turn (finite, Hermitian, unit trace,
    positive semidefinite) refuses the first row that fails it, naming it."""
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1:] != (2, 2):
        raise ValueError(f"expected an (N, 2, 2) stack of density matrices, got shape {rhos.shape}")
    require_finite_rows("rho", rhos)
    with np.errstate(over="ignore", invalid="ignore"):  # an entry near the float range gives inf or nan, which fails
        tests = (
            (np.linalg.norm(rhos - rhos.conj().swapaxes(1, 2), axis=(1, 2)) <= DENSITY_TOL, "not Hermitian"),
            (np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0) <= DENSITY_TOL, "trace differs from 1"),
            (_min_eigenvalues(rhos) >= -DENSITY_TOL, "not positive semidefinite"),
        )
    for ok, why in tests:
        _require_rows(ok, lambda n: f"invalid density matrix: {why}")
    return 2.0 * pauli_vectors(rhos)


def bloch_vector(rho) -> BlochVector:
    """(Sx, Sy, Sz) of a valid 2x2 density matrix: ``bloch_vectors`` of one."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {rho.shape}")
    with single_row:
        return BlochVector(*bloch_vectors(rho[None])[0].tolist())


def densities_from_bloch(vecs) -> np.ndarray:
    """Reconstruction (1 + S.sigma)/2 of each Bloch vector of an (N, 3)
    stack, as an (N, 2, 2) stack; the first row that is not finite is
    refused, naming it."""
    vecs = np.asarray(vecs, dtype=float)
    if vecs.ndim != 2 or vecs.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) stack of Bloch vectors, got shape {vecs.shape}")
    require_finite_rows("S", vecs)
    return (identity2 + pauli_dot(vecs)) / 2.0


def density_from_bloch(vec: BlochVector) -> np.ndarray:
    """Reconstruction (1 + S.sigma)/2 of a Bloch vector: ``densities_from_bloch`` of one."""
    with single_row:
        return densities_from_bloch(vec.as_array()[None])[0]


def mirror_state(psi) -> np.ndarray:
    """sigma_z|psi>: same Sz, opposite equatorial projection, for a
    single-qubit psi given normalized (README, Conventions)."""
    psi, check = _qubit_rows([psi], "psi")
    with single_row:
        _require_rows(*check)
        _given_unit("psi", psi)
    return sigma_z @ psi[0]


def verify_restorations(us, psis) -> np.ndarray:
    """``verify_restoration`` for each row of an (N, 2) stack of (a, b)
    pairs and an (N, 2) stack of states; refused unless the stacks are
    equally long."""
    pairs = as_pairs(us)
    rho = pure_densities(psis)
    if len(pairs) != len(rho):
        raise ValueError(f"{len(pairs)} rotations and {len(rho)} states do not match")
    m = unimodular_matrices(pairs)
    m_dag = m.conj().swapaxes(1, 2)
    restored = matmul2(matmul2(m, rho * _SZ_SIGNS), m_dag) * _SZ_SIGNS
    return np.abs(restored - matmul2(matmul2(m, rho), m_dag)).max(axis=(1, 2)) <= RESTORE_TOL


def verify_restoration(u: Unimodular, psi) -> bool:
    """Whether sz U |mirror><mirror| U^dag sz equals U |psi><psi| U^dag:
    ``verify_restorations`` of one row.

    True for every input when U commutes or anticommutes with sz; false for
    a general U except at special inputs.
    """
    with single_row:
        return bool(verify_restorations([u], [psi])[0])
