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

from .gates import (
    RowError,
    _require_rows,
    dot_norms,
    identity2,
    matmul2,
    not_finite,
    pauli_vectors,
    require_finite,
    require_finite_rows,
    sigma_z,
    single_row,
    vector_norm,
)
from .statevector import _given_unit, _qubit_rows
from .tolerances import (
    AXIS_NORM_TOL,
    CENTRAL_TOL,
    CLASS_TOL,
    CROSS_TOL,
    DEGENERACY_TOL,
    SIGN_TOL,
    SPECIAL_UNITARY_TOL,
    UNIMODULAR_TOL,
)

_SQRT2 = np.sqrt(2.0)
_2SQRT2 = 2.0 * _SQRT2

COMMUTING = "commuting"
ANTICOMMUTING = "anticommuting"
GENERAL = "general"

Z_AXIS = np.array([0.0, 0.0, 1.0])


def unimodular_error(a: complex, b: complex, residual: float) -> str:
    """Why the pair (a, b), whose | |a|^2 + |b|^2 - 1 | is ``residual``, is
    not unimodular: an entry that is not finite, or the residual. A finite
    residual proves both entries finite, so they are read only when it is not."""
    message = None if math.isfinite(residual) else not_finite("Unimodular.a", a) or not_finite("Unimodular.b", b)
    return message or f"not unimodular: |a|^2 + |b|^2 deviates from 1 by {residual:.3e}"


@dataclass(frozen=True)
class Unimodular:
    """Special-unitary 2x2 operator [[a, b], [-b*, a*]]."""

    a: complex
    b: complex

    def __post_init__(self):
        a, b = complex(self.a), complex(self.b)
        # the sum unimodular_residuals takes, in its order
        residual = abs(a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag - 1.0)
        if not residual <= UNIMODULAR_TOL:
            raise ValueError(unimodular_error(a, b, residual))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_matrix(cls, m) -> "Unimodular":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        with single_row:
            return cls(*pairs_from_matrices(m[None])[0])

    @property
    def matrix(self) -> np.ndarray:
        a, b = self.a, self.b
        return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


# ---------------------------------------------------------------------------
# stacks: N operators as an (N, 2) array of (a, b) pairs


def unimodular_residuals(pairs) -> np.ndarray:
    """| |a|^2 + |b|^2 - 1 | for each row of an (..., 2) stack of pairs. A
    square beyond the float range is inf, and numpy warns of the overflow
    unless the caller runs this under ``np.errstate(over="ignore")``."""
    flat = np.ascontiguousarray(pairs, dtype=complex).view(float)
    return np.abs(np.add.reduce(flat * flat, axis=-1) - 1.0)


def _pair_rows(us) -> tuple[np.ndarray, np.ndarray | None]:
    """A sequence of ``Unimodular``, a list of (a, b) pairs or an array of
    them as a complex array, with each row's ``unimodular_residuals``; None
    in their place for ``Unimodular`` values only, admitted on their
    construction proof. Every other form takes the one residual test in
    the order the constructor takes it (README, Conventions)."""
    if not isinstance(us, np.ndarray):
        us = list(us)
        if all(isinstance(u, Unimodular) for u in us):
            return np.array([(u.a, u.b) for u in us], dtype=complex), None
        us = [(u.a, u.b) if isinstance(u, Unimodular) else u for u in us]
    pairs = np.asarray(us, dtype=complex)
    with np.errstate(over="ignore"):  # a square beyond the float range is inf, and fails
        return pairs, unimodular_residuals(pairs)


def as_pairs(us) -> np.ndarray:
    """A sequence of ``Unimodular`` (or an array of (a, b) pairs) as a
    complex (..., 2) stack. Pairs not read from ``Unimodular`` values are
    refused unless every row passes ``_pair_rows``' residual test; the
    error names the first bad row."""
    pairs, residuals = _pair_rows(us)
    if residuals is None:
        return pairs.reshape(-1, 2)
    if pairs.ndim < 2 or pairs.shape[-1] != 2:
        raise ValueError(f"expected a stack of (a, b) pairs, got shape {pairs.shape}")
    bad = ~(residuals <= UNIMODULAR_TOL)
    if bad.any():
        row = tuple(np.argwhere(bad)[0].tolist())
        raise RowError(", ".join(map(str, row)), unimodular_error(*pairs[row].tolist(), residuals[row]))
    return pairs


def unimodular_matrices(pairs) -> np.ndarray:
    """[[a, b], [-b*, a*]] for each row of an (..., 2) stack of pairs."""
    m = np.empty(pairs.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, :] = pairs
    m[..., 1, 0] = -pairs[..., 1].conj()
    m[..., 1, 1] = pairs[..., 0].conj()
    return m


def products(p, q) -> np.ndarray:
    """The pair of U V, (a1 a2 - b1 b2*, a1 b2 + b1 a2*), for each row U =
    (a1, b1) of ``p`` and V = (a2, b2) of ``q``, two (..., 2) stacks of
    pairs with ordinary broadcasting over the leading axes. The pairs are
    taken as given: a product of unimodular pairs drifts from |a|^2 + |b|^2
    = 1 by rounding only, and the closure check reads that drift."""
    p, q = np.asarray(p, dtype=complex), np.asarray(q, dtype=complex)
    a1, b1, a2, b2 = p[..., 0], p[..., 1], q[..., 0], q[..., 1]
    a = a1 * a2 - b1 * b2.conj()
    out = np.empty(a.shape + (2,), dtype=complex)
    out[..., 0], out[..., 1] = a, a1 * b2 + b1 * a2.conj()
    return out


def daggers(p) -> np.ndarray:
    """The pair of U^dag, (a*, -b), for each row U = (a, b) of an (..., 2)
    stack of pairs."""
    p = np.asarray(p, dtype=complex)
    out = p.conj()
    out[..., 1] = -p[..., 1]
    return out


def pairs_from_matrices(m) -> np.ndarray:
    """The (a, b) pair of each matrix in an (N, 2, 2) stack, refused unless
    every matrix is special-unitary; the error names the first bad row."""
    m = np.asarray(m, dtype=complex)
    pairs = as_pairs(m[:, 0])
    near = np.abs(unimodular_matrices(pairs) - m).max(axis=(1, 2)) <= SPECIAL_UNITARY_TOL
    _require_rows(near, lambda n: "matrix is not special-unitary (det must be 1)")
    return pairs


def _unit_axis(axis) -> np.ndarray:
    """``axis`` as a float array, rejected unless a finite 3-vector with unit norm."""
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {axis.shape}")
    norm = vector_norm(axis)
    if not abs(norm - 1.0) <= AXIS_NORM_TOL:
        require_finite("axis", axis)
        raise ValueError(f"non-unit axis (norm {norm!r})")
    return axis


def from_axis_angles(axes, thetas) -> np.ndarray:
    """The rotation exp(-i theta n.sigma / 2) for each row of an (N, 3)
    stack of unit axes n and an (N,) stack of angles, as (N, 2) pairs;
    refused unless there are as many angles as axes, and refused, naming
    the row, unless each axis is a finite unit 3-vector, each angle finite
    and each pair passes ``Unimodular``'s residual test: an axis is taken as
    given, and near theta = pi one within ``AXIS_NORM_TOL`` of 1 can fail it."""
    axes = np.asarray(axes, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    if axes.ndim != 2 or axes.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) stack of axes, got shape {axes.shape}")
    if thetas.shape != (len(axes),):
        raise ValueError(f"{thetas.size} angles and {len(axes)} axes do not match")
    half = thetas / 2.0
    with np.errstate(invalid="ignore", over="ignore"):  # a row that is not finite is refused below
        c, s = np.cos(half), np.sin(half)
        # (c, -s n_y) - i s (n_z, n_x) as complex products and differences, so
        # that each row is what the one-rotation formula gave, signed zeros
        # included; the real parts are cast to complex as they are stored, the
        # cast the subtraction would make, and the difference is taken in place
        pairs = np.empty((len(axes), 2), dtype=complex)
        pairs[:, 0], pairs[:, 1] = c, -s * axes[:, 1]
        pairs -= (1j * s)[:, None] * axes[:, 2::-2]
        residuals = unimodular_residuals(pairs).tolist()
    for n, (axis, theta, residual) in enumerate(zip(axes.tolist(), thetas.tolist(), residuals)):
        norm = math.hypot(*axis)  # as _unit_axis, then require_finite, then Unimodular
        if not abs(norm - 1.0) <= AXIS_NORM_TOL:
            raise RowError(n, not_finite("axis", axes[n]) or f"non-unit axis (norm {norm!r})")
        if not math.isfinite(theta):
            raise RowError(n, not_finite("theta", thetas[n]))
        if not residual <= UNIMODULAR_TOL:
            raise RowError(n, f"non-unit axis (norm {norm!r})")
    return pairs


def from_axis_angle(axis, theta: float) -> Unimodular:
    """Rotation exp(-i theta axis.sigma / 2) about a unit 3-vector:
    ``from_axis_angles`` of one."""
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {axis.shape}")
    with single_row:
        return Unimodular(*from_axis_angles(axis[None], [theta])[0].tolist())


def rz(phi: float) -> Unimodular:
    """diag(e^{i phi}, e^{-i phi}); equals from_axis_angle(z, -2*phi)."""
    return Unimodular(cmath.exp(1j * phi), 0)


def orthogonal_state(psi) -> np.ndarray:
    """The unique (up to phase) state orthogonal to a qubit state, or to
    each state of an (..., 2) stack."""
    psi = np.asarray(psi, dtype=complex)
    return np.stack([-psi[..., 1].conj(), psi[..., 0].conj()], axis=-1)


def random_unimodulars(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` Haar-random SU(2) elements (uniform on the unit 3-sphere) as an
    (n, 2) stack of pairs: each row v of ``rng.normal(size=(n, 4))`` gives
    (v0 + i v1, v2 + i v3) / |v|. Each norm is ``dot_norms``', so the draws,
    and the values, are those of ``n`` calls of ``random_unimodular``."""
    v = rng.normal(size=(n, 4))
    return (v / dot_norms(v)[..., None]).view(complex)


def random_qubits(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` Haar-random single-qubit states (uniform on the Bloch sphere) as
    an (n, 2) stack: U|0> = (a, -b*) of each row U = (a, b) of
    ``random_unimodulars(rng, n)``, with the same draws, and the values, of
    ``n`` calls of ``random_qubit``."""
    psis = random_unimodulars(rng, n)
    psis[..., 1] = -psis[..., 1].conj()
    return psis


def random_unimodular(rng: np.random.Generator) -> Unimodular:
    """Haar-random SU(2) element: ``random_unimodulars`` of one."""
    return Unimodular(*random_unimodulars(rng, 1)[0])


def random_qubit(rng: np.random.Generator) -> np.ndarray:
    """Haar-random single-qubit state: ``random_qubits`` of one."""
    return random_qubits(rng, 1)[0]


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


def commutation_norms(pairs, axes) -> tuple[np.ndarray, np.ndarray]:
    """Frobenius norms of [U, n.sigma] = 2 (v x n).sigma and {U, n.sigma} =
    2 u0 n.sigma - 2i (v.n) 1, 2 sqrt(2)|v x n| and 2 sqrt(2) hypot(u0, v.n),
    for each U = u0*1 - i*v.sigma of an (..., 2) stack of pairs and unit n of
    an (..., 3) stack of axes, broadcast; elementwise, so a row alone gives
    its row of the stack. |v x n| is hypot(hypot(cx, cy), cz), not
    sqrt(|v|^2 - (v.n)^2), which can read above CLASS_TOL against U's own axis."""
    pairs, n = np.asarray(pairs, dtype=complex), np.asarray(axes, dtype=float)
    a, b = pairs[..., 0], pairs[..., 1]
    u0, vx, vy, vz = a.real, b.imag, b.real, a.imag  # v up to a sign neither norm reads
    nx, ny, nz = n[..., 0], n[..., 1], n[..., 2]
    comm = np.hypot(np.hypot(vy * nz - vz * ny, vz * nx - vx * nz), vx * ny - vy * nx)
    anti = np.hypot(u0, vx * nx + vy * ny + vz * nz)
    return _2SQRT2 * comm, _2SQRT2 * anti


# The tags as 0-d arrays, converted once: np.where converts a Python str on every call.
_COMMUTING_TAG, _ANTICOMMUTING_TAG, _GENERAL_TAG = (
    np.array(kind, dtype="<U13") for kind in (COMMUTING, ANTICOMMUTING, GENERAL)
)


def kinds_from_norms(comm, anti) -> np.ndarray:
    """COMMUTING where the commutator norm is within CLASS_TOL, else
    ANTICOMMUTING where the anticommutator norm is, else GENERAL."""
    return np.where(
        comm <= CLASS_TOL, _COMMUTING_TAG, np.where(anti <= CLASS_TOL, _ANTICOMMUTING_TAG, _GENERAL_TAG)
    )


def classify_pairs(pairs, axis=Z_AXIS) -> np.ndarray:
    """The tag of each row of an (..., 2) stack of pairs, checked by
    ``as_pairs``, against ``axis``: COMMUTING, ANTICOMMUTING or GENERAL.

    Exactly one tag applies: [U, n.sigma] and {U, n.sigma} cannot both vanish
    for a unitary U.
    """
    return kinds_from_norms(*commutation_norms(as_pairs(pairs), _unit_axis(axis)))


def classify_operator(u: Unimodular, axis=Z_AXIS) -> OperatorClass:
    """Tag ``u`` as commuting, anticommuting or general against ``axis``:
    ``classify_pairs``' tag of its own pair, checked when ``u`` was built."""
    axis = _unit_axis(axis)
    kind = str(kinds_from_norms(*commutation_norms((u.a, u.b), axis)))
    return OperatorClass(kind, None if kind == GENERAL else axis)


def q_matrices(alphas, xis) -> np.ndarray:
    """e^{i alpha}|xi><xi| + e^{-i alpha}(1 - |xi><xi|) for each row of an
    (N,) stack of angles and an (N, 2) stack of states given normalized, as
    (N, 2) pairs. Each test in turn, on every row, refuses the first row that
    fails it: xi is one qubit's; as many angles as states (no row named);
    alpha is finite; xi is finite and normalized; the matrix is special-unitary."""
    alphas = np.asarray(alphas, dtype=float)
    xis, check = _qubit_rows(xis, "xi")
    _require_rows(*check)
    if alphas.shape != (len(xis),):
        raise ValueError(f"{alphas.size} angles and {len(xis)} states do not match")
    require_finite_rows("alpha", alphas)
    _given_unit("xi", xis)
    proj = xis[:, :, None] * xis[:, None, :].conj()
    phase = np.exp(1j * alphas)[:, None, None]
    return pairs_from_matrices(phase * proj + phase.conj() * (identity2 - proj))


# ---------------------------------------------------------------------------
# correction operators


@dataclass(frozen=True, eq=False)
class CommonCorrection:
    """A single V working for a whole set, with one phase per element."""

    v: np.ndarray
    deltas: tuple[float, ...]


def _corrections(pairs: np.ndarray) -> np.ndarray:
    """U sz U^dag for each row U of an (..., 2) stack of checked pairs."""
    m = unimodular_matrices(pairs)
    return matmul2(matmul2(m, sigma_z), m.conj().swapaxes(-2, -1))


def solve_corrections(us) -> np.ndarray:
    """``solve_correction`` for each row of an (..., 2) stack of (a, b)
    pairs, checked by ``as_pairs``, as a (..., 2, 2) stack."""
    return _corrections(as_pairs(us))


def solve_correction(u: Unimodular) -> np.ndarray:
    """The correction V = U sigma_z U^dag of one operator, with V U = U
    sigma_z exactly: ``solve_corrections`` of one."""
    return solve_corrections([u])[0]


def _canonical_signs(vecs: np.ndarray) -> np.ndarray:
    """-1 where the first component of a vector larger than SIGN_TOL is
    negative, else 1, for each vector of a (..., 3) stack."""
    big = np.abs(vecs) > SIGN_TOL
    # the first big component, else the last, which is then within SIGN_TOL of 0
    lead = np.where(big[..., 0], vecs[..., 0], np.where(big[..., 1], vecs[..., 1], vecs[..., 2]))
    return np.where(lead < -SIGN_TOL, -1.0, 1.0)


def common_corrections(families) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``check_common_correction`` over an (M, K, 2) stack of M sets of K
    operators as (a, b) pairs: whether each set admits a common correction,
    its V (M, 2, 2) and its deltas (M, K), meaningful where it does; refused
    as ``find_common_axes`` refuses, with the pairs checked once."""
    return _common_corrections(_operator_sets(as_pairs(families)))


def _common_corrections(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``common_corrections`` of an (M, K, 2) stack of checked pairs."""
    ws = _corrections(pairs)
    base = ws[:, 0] * _canonical_signs(pauli_vectors(ws[:, 0]))[:, None, None]
    same = np.linalg.norm(ws - base[:, None], axis=(-2, -1)) <= CLASS_TOL
    flipped = np.linalg.norm(ws + base[:, None], axis=(-2, -1)) <= CLASS_TOL
    return (same | flipped).all(axis=1), base, np.where(same, 0.0, np.pi)


def check_common_correction(operators) -> CommonCorrection | None:
    """Search a set for one V with U_i sigma_z U_i^dag = +/-V throughout:
    ``common_corrections`` of one set.

    Each W_i = U_i sigma_z U_i^dag is Hermitian, traceless and unitary; the
    set admits a common correction exactly when all W_i agree up to sign.
    V is sign-fixed so its Pauli vector has a positive leading component,
    and deltas[i] is 0 where W_i = V and pi where W_i = -V.
    """
    pairs = as_pairs(operators)
    if not len(pairs):
        raise ValueError("empty operator set")
    (ok,), (v,), (deltas,) = _common_corrections(_operator_sets(pairs[None]))
    return CommonCorrection(v=v, deltas=tuple(deltas.tolist())) if ok else None


# ---------------------------------------------------------------------------
# axis search


def _operator_sets(pairs: np.ndarray) -> np.ndarray:
    """An (M, K, 2) stack of checked pairs, M sets of K > 0 operators, or a refusal naming its shape."""
    if pairs.ndim != 3 or not pairs.shape[1]:
        raise ValueError(f"expected an (M, K, 2) stack of nonempty operator sets, got shape {pairs.shape}")
    return pairs


def find_common_axes(families) -> list[np.ndarray | None]:
    """``find_common_axis`` of each set of an (M, K, 2) stack of M sets of K
    operators as (a, b) pairs; refused unless K > 0 and every pair is
    unimodular, the error naming the first bad set and operator.

    Each set's first candidate, the axis of its first operator beyond
    CENTRAL_TOL, is tried for every set at once; only a set it fails goes
    on to the remaining candidates, one set at a time. A fitting axis that
    is no operator's own anticommutes with the operators that move: they are
    half-turns about axes orthogonal to it (the paper's second set), so only
    half-turns' axes give cross products.
    """
    return _common_axes(_operator_sets(as_pairs(families)))


def find_common_axis(operators) -> np.ndarray | None:
    """A unit axis against which every operator is commuting or anticommuting:
    ``find_common_axes`` of one set, a sequence of ``Unimodular`` or an
    (N, 2) stack of pairs, checked by ``as_pairs``.

    Candidate axes are read from the traceless parts of the operators plus
    the pairwise cross products of the half-turns' axes (|Re a| within
    CLASS_TOL of 0), the crosses only once every operator's own axis has
    failed; each candidate is verified by classifying the whole set at
    once. Against an axis orthogonal to its own axis v, an operator that
    moves has a commutator of norm 2 sqrt(2)|v| > CLASS_TOL: only a
    half-turn fits it. An axis that repeats an earlier one exactly, up to
    sign, is tried once; candidates that are only close are each tried.
    Operators within tolerance of +/-1 constrain nothing and are skipped; a
    set of only such operators is compatible with every axis and gets the z
    axis by convention. The axis is sign-fixed so that its first component
    larger than SIGN_TOL is positive. Returns None when no axis fits.
    """
    pairs = as_pairs(operators)
    if not len(pairs):
        raise ValueError("empty operator set")
    return _common_axes(_operator_sets(pairs[None]))[0]


def _common_axes(pairs: np.ndarray) -> list[np.ndarray | None]:
    """``find_common_axes`` of an (M, K, 2) stack of unimodular pairs, K > 0."""
    # each U as u0*1 - i*vec.sigma: vec = -(Im b, Re b, Im a), then vec / |vec|
    vecs = -np.ascontiguousarray(pairs).view(float)[..., 3:0:-1]
    norms = dot_norms(vecs)
    moving = norms > CENTRAL_TOL
    axes = vecs / np.maximum(norms, CENTRAL_TOL)[..., None]  # a central operator's row is not used
    half = np.abs(pairs[..., 0].real) <= CLASS_TOL  # u0 = Re a within CLASS_TOL of 0: a half-turn
    rows = np.arange(len(pairs))
    firsts = axes[rows, moving.argmax(axis=1)]
    fits = _fits(pairs, firsts[:, None])
    firsts = firsts * _canonical_signs(firsts)[:, None] + 0.0  # + 0.0 turns a -0.0 into 0.0
    found = []
    for m, (constrained, fit) in enumerate(zip(moving.any(axis=1).tolist(), fits.tolist())):
        if not constrained:
            found.append(Z_AXIS.copy())
        elif fit:
            found.append(firsts[m])
        else:
            found.append(_search_axis(pairs[m], axes[m, moving[m]], half[m, moving[m]]))
    return found


def _fits(pairs, axes) -> np.ndarray:
    """Whether no operator of each (..., K, 2) set of pairs is GENERAL
    against its unit axis of an (..., 1, 3) stack (``kinds_from_norms``'
    tags, from the same norms)."""
    comm, anti = commutation_norms(pairs, axes)
    return (np.fmin(comm, anti) <= CLASS_TOL).all(axis=-1)


#: candidates checked together; a search stops at the first block holding a
#: fit, so its memory is O(block * operators)
_AXIS_BLOCK = 64


def _search_axis(pairs, axes, half) -> np.ndarray | None:
    """The candidates after ``axes[0]``, which has failed, in order: the rest
    of the unit ``axes``, then, only if none of them fits, the cross products
    of the half-turns' axes (where ``half``) in the pair order, whole rows
    of it gathered into blocks of at least _AXIS_BLOCK (or to the last
    row); the first that fits the set of ``pairs``, sign-fixed, or None.
    An axis equal to an earlier one once both are sign-fixed is dropped
    first: ``_fits`` decides the same for v and -v, and a cross product with
    a repeated axis is +/- an earlier one, bit for bit. The crosses of other
    axes cannot fit: against n orthogonal to v, U = u0*1 - i*v.sigma has
    [U, n.sigma] of norm 2 sqrt(2)|v| > CLASS_TOL and {U, n.sigma} 2 sqrt(2)|u0|."""
    firsts = {}
    for n, axis in enumerate((axes * _canonical_signs(axes)[:, None]).tolist()):
        firsts.setdefault(tuple(axis), n)
    kept = list(firsts.values())
    axes, half = axes[kept], half[kept]
    found = _first_fit(pairs, axes[1:])
    halves = axes[half]
    block, size = [], 0
    for i in range(len(halves) - 1):
        if found is not None:
            break
        crosses = np.cross(halves[i], halves[i + 1 :])
        norms = dot_norms(crosses)
        long = norms > CROSS_TOL
        block.append(crosses[long] / norms[long, None])
        size += len(block[-1])
        if size >= _AXIS_BLOCK or i == len(halves) - 2:
            found = _first_fit(pairs, np.concatenate(block))
            block, size = [], 0
    return found


def _first_fit(pairs, cands) -> np.ndarray | None:
    """The first row of ``cands`` that fits the set of ``pairs``,
    sign-fixed, or None; one ``_fits`` pass for each block of _AXIS_BLOCK
    rows, up to the first block with a fit."""
    for start in range(0, len(cands), _AXIS_BLOCK):
        block = cands[start : start + _AXIS_BLOCK]
        fits = _fits(pairs, block[:, None])
        if fits.any():
            cand = block[fits.argmax()]
            return cand * _canonical_signs(cand) + 0.0
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


def orthogonal_pairs(u1, u2) -> tuple[OrthogonalPair, np.ndarray]:
    """The orthogonal input pair of each row U1 of ``u1`` and U2 of ``u2``,
    two (N, 2) stacks of (a, b) pairs, refused unless equally long: with
    U2^dag U1 = e^{+/- i lam} on |lam+/->, psi = (|lam+> + |lam->)/sqrt(2)
    and psi_perp = (|lam+> - |lam->)/sqrt(2). Returns one ``OrthogonalPair``
    whose fields are stacks (``lam`` of shape (N,), the states (N, 2)), and
    |sin lam| of each row. Rows where that is below DEGENERACY_TOL hold no
    pair: U2 is U1 up to phase there, and the images are orthogonal instead.
    For the axis n of U2^dag U1 (z where degenerate), |lam-> is
    (1 + nz, nx + i ny) where nz >= 0, else (nx - i ny, 1 - nz), over
    sqrt(2(1 + |nz|)); |lam+> is its ``orthogonal_state``."""
    u1, u2 = as_pairs(u1), as_pairs(u2)
    if len(u1) != len(u2):
        raise ValueError(f"{len(u1)} rotations U1 and {len(u2)} rotations U2 do not match")
    # U2^dag U1 as a pair, and its Pauli decomposition p0*1 - i*pvec.sigma
    a, b = products(daggers(u2), u1).T
    pvec = np.stack([-b.imag, -b.real, -a.imag], axis=-1)
    s = np.linalg.norm(pvec, axis=-1)
    ok = s >= DEGENERACY_TOL
    lam = np.arctan2(s, a.real)
    # n.sigma's +1 eigenvector from the pole that keeps 1 +/- nz away from 0;
    # it carries the product's e^{-i lam}, its orthogonal state e^{+i lam}
    nx, ny, nz = np.where(ok[:, None], pvec / np.where(ok, s, 1.0)[:, None], Z_AXIS).T
    up = nz >= 0
    lam_minus = np.stack([np.where(up, 1 + nz, nx - 1j * ny), np.where(up, nx + 1j * ny, 1 - nz)], axis=-1)
    lam_minus /= np.sqrt(2 * (1 + np.abs(nz)))[:, None]
    lam_plus = orthogonal_state(lam_minus)
    psi = (lam_plus + lam_minus) / _SQRT2
    psi_perp = (lam_plus - lam_minus) / _SQRT2
    phi = (unimodular_matrices(u1) @ psi[..., None])[..., 0]
    phi_prime = (unimodular_matrices(u2) @ psi_perp[..., None])[..., 0]
    return OrthogonalPair(psi, psi_perp, phi, phi_prime, lam), s

