"""Bloch-vector computations and the sign-flip restoration identity.

A qubit density matrix splits as rho = (1 + Sx*sx + Sy*sy + Sz*sz)/2 with
Si = tr(rho si). The mirror state sz|psi> negates the equatorial projection
(Sx, Sy) while keeping Sz, which is why a final sz fixes the wrong protocol
branch exactly for operators that commute or anticommute with sz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import PAULIS, RowError, identity2, not_finite, require_finite, sigma_z, single_row, unit_rows, vector_norm
from .operators import Unimodular, as_pairs, unimodular_matrices
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


def pure_densities(psis) -> np.ndarray:
    """|psi><psi| for each row of an (N, 2) stack of states, each normalized
    first; the first row that is not finite, or is zero, is refused, naming it,
    and so is a stack whose rows are not single-qubit states."""
    psis = np.asarray(psis, dtype=complex)
    if psis.ndim != 2 or psis.shape[1] != 2:
        raise RowError(0, "psi must be a single-qubit state")
    unit, ok = unit_rows(psis, NORM_TOL)
    if not ok.all():
        n = int(np.argmin(ok))
        raise RowError(n, not_finite("psi", psis[n]) or "psi must be nonzero")
    return unit[:, :, None] * unit[:, None, :].conj()


def pure_density(psi) -> np.ndarray:
    """|psi><psi| for a (normalized) single-qubit state: ``pure_densities`` of one."""
    with single_row:
        return pure_densities(np.asarray(psi, dtype=complex)[None])[0]


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
    if psi.shape != (2,):
        raise ValueError("psi must be a single-qubit state")
    require_finite("psi", psi)
    norm = vector_norm(psi)
    if not abs(norm - 1.0) <= STATE_NORM_TOL:
        raise ValueError(f"state is not normalized (norm {norm!r})")
    return sigma_z @ psi


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
    mirrored = sigma_z @ rho @ sigma_z
    restored = sigma_z @ (m @ mirrored @ m_dag) @ sigma_z
    return np.abs(restored - m @ rho @ m_dag).max(axis=(1, 2)) <= RESTORE_TOL


def verify_restoration(u: Unimodular, psi) -> bool:
    """Whether sz U |mirror><mirror| U^dag sz equals U |psi><psi| U^dag:
    ``verify_restorations`` of one row.

    True for every input when U commutes or anticommutes with sz; false for
    a general U except at special inputs.
    """
    with single_row:
        return bool(verify_restorations([u], np.asarray(psi, dtype=complex)[None])[0])
