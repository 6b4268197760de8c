"""SU(2) operator algebra behind the restricted remote-implementation sets.

A single-qubit rotation is stored as the unimodular pair (a, b) realizing

    [[ a,   b ],
     [-b*,  a*]],      |a|^2 + |b|^2 = 1,

equivalently U = u0*1 - i*(ux*sx + uy*sy + uz*sz) with real (u0, ux, uy, uz)
on the unit 3-sphere. The module classifies operators against a rotation
axis (commuting / anticommuting / general), solves for the sign-flip
correction V = U sz U^dag, searches a set for a common axis, and builds the
orthogonal input pair whose images overlap by i*sin(lambda).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .gates import Gate, identity2, pauli_dot, require_finite, sigma_x, sigma_y, sigma_z, vector_norm
from .tolerances import (
    AXIS_NORM_TOL,
    CENTRAL_TOL,
    CLASS_TOL,
    CROSS_TOL,
    DEGENERACY_TOL,
    DUPLICATE_AXIS_TOL,
    SIGN_TOL,
    SPECIAL_UNITARY_TOL,
    UNIMODULAR_TOL,
)

_SQRT2 = np.sqrt(2.0)
_PAULI_TRIPLE = (sigma_x, sigma_y, sigma_z)

COMMUTING = "commuting"
ANTICOMMUTING = "anticommuting"
GENERAL = "general"

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class Unimodular:
    """Special-unitary 2x2 operator [[a, b], [-b*, a*]]."""

    a: complex
    b: complex

    def __post_init__(self):
        a, b = complex(self.a), complex(self.b)
        norm = math.hypot(a.real, a.imag, b.real, b.imag)
        residual = abs(norm * norm - 1.0)
        if not residual <= UNIMODULAR_TOL:
            require_finite("Unimodular.a", a)
            require_finite("Unimodular.b", b)
            raise ValueError(
                f"not unimodular: |a|^2 + |b|^2 deviates from 1 by {residual:.3e}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_matrix(cls, m) -> "Unimodular":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        u = cls(m[0, 0], m[0, 1])
        if not np.abs(u.matrix - m).max() <= SPECIAL_UNITARY_TOL:
            raise ValueError("matrix is not special-unitary (det must be 1)")
        return u

    @property
    def matrix(self) -> np.ndarray:
        a, b = self.a, self.b
        return np.array([[a, b], [-b.conjugate(), a.conjugate()]])

    def dagger(self) -> "Unimodular":
        return Unimodular(self.a.conjugate(), -self.b)

    def __matmul__(self, other: "Unimodular") -> "Unimodular":
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return Unimodular(a1 * a2 - b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate())

    def as_gate(self, name: str = "u") -> Gate:
        return Gate(self.matrix, name)

    def pauli_decompose(self) -> tuple[float, np.ndarray]:
        """Real (u0, uvec) with U = u0*1 - i*uvec.sigma and u0^2+|uvec|^2 = 1."""
        return self.a.real, np.array([-self.b.imag, -self.b.real, -self.a.imag])


IDENTITY = Unimodular(1, 0)


def _unit_axis(axis) -> np.ndarray:
    """``axis`` as a float array, rejected unless finite with unit norm."""
    axis = np.asarray(axis, dtype=float)
    norm = vector_norm(axis)
    if not abs(norm - 1.0) <= AXIS_NORM_TOL:
        require_finite("axis", axis)
        raise ValueError(f"non-unit axis (norm {norm!r})")
    return axis


def from_axis_angle(axis, theta: float) -> Unimodular:
    """Rotation exp(-i theta axis.sigma / 2) about a unit 3-vector."""
    axis = _unit_axis(axis)
    require_finite("theta", theta)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return Unimodular(c - 1j * s * axis[2], -s * axis[1] - 1j * s * axis[0])


def rz(phi: float) -> Unimodular:
    """diag(e^{i phi}, e^{-i phi}); equals from_axis_angle(z, -2*phi)."""
    return Unimodular(cmath.exp(1j * phi), 0)


def orthogonal_state(psi) -> np.ndarray:
    """The unique (up to phase) state orthogonal to a qubit state."""
    psi = np.asarray(psi, dtype=complex)
    return np.array([-psi[1].conjugate(), psi[0].conjugate()])


def random_unimodular(rng: np.random.Generator) -> Unimodular:
    """Haar-random SU(2) element (uniform on the unit 3-sphere)."""
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return Unimodular(v[0] + 1j * v[1], v[2] + 1j * v[3])


def random_qubit(rng: np.random.Generator) -> np.ndarray:
    """Haar-random single-qubit state (uniform on the Bloch sphere)."""
    return random_unimodular(rng).matrix @ np.array([1.0, 0.0], dtype=complex)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True, eq=False)
class OperatorClass:
    """Commutation class of an operator against a rotation axis."""

    kind: str
    axis: np.ndarray | None = None

    def __str__(self):
        if self.axis is None:
            return self.kind
        ax = ",".join(f"{c:g}" for c in self.axis)
        return f"{self.kind}({ax})"


def classify_operator(u: Unimodular, axis=Z_AXIS) -> OperatorClass:
    """Tag ``u`` as commuting, anticommuting or general against ``axis``.

    Exactly one tag applies: [U, n.sigma] and {U, n.sigma} cannot both vanish
    for a unitary U.
    """
    axis = _unit_axis(axis)
    m = pauli_dot(axis)
    um, mu = u.matrix @ m, m @ u.matrix
    if np.linalg.norm(um - mu) <= CLASS_TOL:
        return OperatorClass(COMMUTING, axis)
    if np.linalg.norm(um + mu) <= CLASS_TOL:
        return OperatorClass(ANTICOMMUTING, axis)
    return OperatorClass(GENERAL)


def q_operator(alpha: float, xi) -> Unimodular:
    """e^{i alpha}|xi><xi| + e^{-i alpha}(1 - |xi><xi|) for a normalized xi.

    Satisfies Q(alpha, xi) == Q(-alpha, xi_perp). Proportional to the
    identity when alpha is a multiple of pi, so only other values probe
    anything.
    """
    xi = np.asarray(xi, dtype=complex)
    norm = vector_norm(xi)
    if not abs(norm - 1.0) <= UNIMODULAR_TOL:
        raise ValueError(f"xi is not normalized (norm {norm!r})")
    proj = np.outer(xi, xi.conj())
    m = cmath.exp(1j * alpha) * proj + cmath.exp(-1j * alpha) * (identity2 - proj)
    return Unimodular.from_matrix(m)


# ---------------------------------------------------------------------------
# correction operators


@dataclass(frozen=True, eq=False)
class CorrectionSolution:
    """Unitary V and phase delta with V U = e^{i delta} U sigma_z."""

    v: np.ndarray
    delta: float


@dataclass(frozen=True, eq=False)
class CommonCorrection:
    """A single V working for a whole set, with one phase per element."""

    v: np.ndarray
    deltas: tuple[float, ...]


def solve_correction(u: Unimodular) -> CorrectionSolution:
    """The correction for one operator: V = U sigma_z U^dag, delta = 0."""
    m = u.matrix
    return CorrectionSolution(v=m @ sigma_z @ m.conj().T, delta=0.0)


def _pauli_vector(hermitian_traceless: np.ndarray) -> np.ndarray:
    return np.array(
        [np.trace(hermitian_traceless @ s).real / 2.0 for s in _PAULI_TRIPLE]
    )


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    """Flip sign so the first component larger than SIGN_TOL is positive."""
    for c in vec:
        if abs(c) > SIGN_TOL:
            return -vec if c < 0 else vec
    return vec


def check_common_correction(operators) -> CommonCorrection | None:
    """Search a set for one V with U_i sigma_z U_i^dag = +/-V throughout.

    Each W_i = U_i sigma_z U_i^dag is Hermitian, traceless and unitary; the
    set admits a common correction exactly when all W_i agree up to sign.
    V is sign-fixed so its Pauli vector has a positive leading component,
    and deltas[i] is 0 where W_i = V and pi where W_i = -V.
    """
    operators = list(operators)
    if not operators:
        raise ValueError("empty operator set")
    ws = [u.matrix @ sigma_z @ u.matrix.conj().T for u in operators]
    base = ws[0]
    vec = _pauli_vector(base)
    if not np.array_equal(_canonical_sign(vec), vec):
        base = -base
    deltas = []
    for w in ws:
        if np.linalg.norm(w - base) <= CLASS_TOL:
            deltas.append(0.0)
        elif np.linalg.norm(w + base) <= CLASS_TOL:
            deltas.append(np.pi)
        else:
            return None
    return CommonCorrection(v=base, deltas=tuple(deltas))


# ---------------------------------------------------------------------------
# axis search


def find_common_axis(operators) -> np.ndarray | None:
    """A unit axis against which every operator is commuting or anticommuting.

    Candidate axes are read from the traceless parts of the operators plus
    pairwise cross products (for sets made purely of half-turns); each
    candidate is verified by classification. Operators within tolerance of
    +/-1 constrain nothing and are skipped; a set of only such operators is
    compatible with every axis and gets the z axis by convention. Returns
    None when no axis fits.
    """
    operators = list(operators)
    if not operators:
        raise ValueError("empty operator set")
    axes = []
    for u in operators:
        _, vec = u.pauli_decompose()
        norm = np.linalg.norm(vec)
        if norm > CENTRAL_TOL:
            axes.append(vec / norm)
    if not axes:
        return Z_AXIS.copy()
    candidates = list(axes)
    for i in range(len(axes)):
        for j in range(i + 1, len(axes)):
            cross = np.cross(axes[i], axes[j])
            norm = np.linalg.norm(cross)
            if norm > CROSS_TOL:
                candidates.append(cross / norm)
    seen: list[np.ndarray] = []
    for cand in candidates:
        if any(abs(np.dot(cand, s)) > 1.0 - DUPLICATE_AXIS_TOL for s in seen):
            continue
        seen.append(cand)
        if all(classify_operator(u, cand).kind != GENERAL for u in operators):
            return _canonical_sign(cand)
    return None


# ---------------------------------------------------------------------------
# orthogonal input pair


@dataclass(frozen=True, eq=False)
class OrthogonalPair:
    """Orthogonal inputs psi, psi_perp with images phi = U1 psi and
    phi_prime = U2 psi_perp overlapping by <phi'|phi> = i sin(lam)."""

    psi: np.ndarray
    psi_perp: np.ndarray
    phi: np.ndarray
    phi_prime: np.ndarray
    lam: float


def find_orthogonal_pair(u1: Unimodular, u2: Unimodular) -> OrthogonalPair:
    """Diagonalize U2^dag U1 = e^{+/- i lam} on |lam+/->, set
    psi = (|lam+> + |lam->)/sqrt(2) and psi_perp = (|lam+> - |lam->)/sqrt(2).

    Raises for a degenerate product (U2 proportional to U1 up to phase),
    where lam is a multiple of pi and the images are orthogonal instead.
    """
    prod = u2.dagger() @ u1
    p0, pvec = prod.pauli_decompose()
    s = np.linalg.norm(pvec)
    if not s >= DEGENERACY_TOL:
        raise ValueError(
            "degenerate pair: U2^dag U1 is proportional to the identity "
            f"(|sin| = {s:.3e})"
        )
    lam = float(np.arctan2(s, p0))
    # eigh of the Hermitian axis operator gives orthonormal eigenvectors;
    # its -1 eigenvector carries the e^{+i lam} eigenvalue of the product.
    _, evecs = np.linalg.eigh(pauli_dot(pvec / s))
    lam_plus, lam_minus = evecs[:, 0], evecs[:, 1]
    psi = (lam_plus + lam_minus) / _SQRT2
    psi_perp = (lam_plus - lam_minus) / _SQRT2
    return OrthogonalPair(
        psi=psi,
        psi_perp=psi_perp,
        phi=u1.matrix @ psi,
        phi_prime=u2.matrix @ psi_perp,
        lam=lam,
    )


def diag_form_decompose(u: Unimodular, u0: Unimodular) -> float | None:
    """Angle beta in (-pi, pi] with u = u0 diag(e^{i beta}, e^{-i beta}),
    or None when u0^dag u is not diagonal within tolerance."""
    d = u0.dagger() @ u
    if abs(d.b) > CLASS_TOL:
        return None
    return float(np.angle(d.a))
