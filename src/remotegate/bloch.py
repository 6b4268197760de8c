"""Bloch-vector computations and the sign-flip restoration identity.

A qubit density matrix splits as rho = (1 + Sx*sx + Sy*sy + Sz*sz)/2 with
Si = tr(rho si). The mirror state sz|psi> negates the equatorial projection
(Sx, Sy) while keeping Sz, which is why a final sz fixes the wrong protocol
branch exactly for operators that commute or anticommute with sz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import PAULIS, identity2, require_finite, sigma_z, unit_vector, vector_norm
from .operators import Unimodular
from .tolerances import DENSITY_TOL, NORM_TOL, RESTORE_TOL, STATE_NORM_TOL


@dataclass(frozen=True)
class BlochVector:
    sx: float
    sy: float
    sz: float

    def as_array(self) -> np.ndarray:
        return np.array([self.sx, self.sy, self.sz])

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))


def pure_density(psi) -> np.ndarray:
    """|psi><psi| for a (normalized) single-qubit state."""
    psi = unit_vector(np.asarray(psi, dtype=complex), NORM_TOL)
    if psi is None:
        raise ValueError("psi must be nonzero")
    return np.outer(psi, psi.conj())


def bloch_vector(rho) -> BlochVector:
    """(Sx, Sy, Sz) of a valid 2x2 density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {rho.shape}")
    require_finite("rho", rho)
    if not np.linalg.norm(rho - rho.conj().T) <= DENSITY_TOL:
        raise ValueError("invalid density matrix: not Hermitian")
    if not abs(np.trace(rho) - 1.0) <= DENSITY_TOL:
        raise ValueError("invalid density matrix: trace differs from 1")
    if not np.linalg.eigvalsh(rho).min() >= -DENSITY_TOL:
        raise ValueError("invalid density matrix: not positive semidefinite")
    s = [float(np.trace(rho @ p).real) for p in PAULIS]
    return BlochVector(*s)


def density_from_bloch(vec: BlochVector) -> np.ndarray:
    """Reconstruction (1 + S.sigma)/2 of a Bloch vector."""
    out = identity2.copy()
    for s, p in zip(vec.as_array(), PAULIS):
        out += s * p
    return out / 2.0


def mirror_state(psi) -> np.ndarray:
    """sigma_z|psi>: same Sz, opposite equatorial projection."""
    psi = np.asarray(psi, dtype=complex)
    require_finite("psi", psi)
    norm = vector_norm(psi)
    if not abs(norm - 1.0) <= STATE_NORM_TOL:
        raise ValueError(f"state is not normalized (norm {norm!r})")
    return sigma_z @ psi


def verify_restoration(u: Unimodular, psi) -> bool:
    """Whether sz U |mirror><mirror| U^dag sz equals U |psi><psi| U^dag.

    True for every input when U commutes or anticommutes with sz; false for
    a general U except at special inputs.
    """
    m = u.matrix
    rho = pure_density(psi)
    mirrored = sigma_z @ rho @ sigma_z
    restored = sigma_z @ (m @ mirrored @ m.conj().T) @ sigma_z
    return bool(np.abs(restored - m @ rho @ m.conj().T).max() <= RESTORE_TOL)
