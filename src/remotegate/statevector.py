"""Exact statevector engine over party-labeled qubit registers.

Conventions, used everywhere in this package:

* The qubit at register position 0 is the most significant bit of the
  amplitude index, so ``tensor(s1, s2)`` is a plain Kronecker product with
  ``s1``'s register first.
* ``StateVector(...)`` normalizes on entry and rejects (near-)zero vectors.
  The kernels build their output states without that second check and do
  not renormalize: ``apply_gate`` returns ``G psi`` as computed, and a
  measurement's post-state is its projected amplitudes divided by the
  square root of the probability it reports.
* Bell outcomes are ordered (phi+, phi-, psi+, psi-) and reported as the
  two-bit strings "00", "01", "10", "11" in that order.
* A branch stack is an (N, 2, ..., 2) array, one state per branch and one
  axis per qubit. Its primitives (``_apply_matrix``, ``_split``,
  ``_entropies``) are what ``circuits`` compiles with and what the
  ``statevector.*`` checks run on; ``reduced_density`` and
  ``entanglement_entropy`` are their one-state case, on the state as
  ``_targets_front``, the kernels' one target resolver, orders it.

All values are immutable after construction; operations return new values,
so independent simulations can run concurrently as long as each owns its
random generator.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .gates import Gate, _require_rows, _row_hypots, not_finite, require_finite_rows, require_natural, unit_rows, unit_vector
from .tolerances import BRANCH_PRUNE, ENTROPY_CUTOFF, FACTOR_TOL, NORM_TOL, SAMPLE_SUM_TOL, STATE_NORM_TOL

PARTIES = ("alice", "bob")

_SQRT2 = np.sqrt(2.0)

#: Bell basis vectors on a qubit pair, in the fixed outcome order.
BELL_VECTORS = (
    np.array([1, 0, 0, 1], dtype=complex) / _SQRT2,
    np.array([1, 0, 0, -1], dtype=complex) / _SQRT2,
    np.array([0, 1, 1, 0], dtype=complex) / _SQRT2,
    np.array([0, 1, -1, 0], dtype=complex) / _SQRT2,
)
_BELL = np.array(BELL_VECTORS)


class InvariantViolation(RuntimeError):
    """An internal consistency guarantee was broken (not a usage error)."""


@dataclass(frozen=True)
class QubitId:
    """A register slot, owned by one party for the lifetime of a run."""

    owner: str
    index: int

    def __post_init__(self):
        if self.owner not in PARTIES:
            raise ValueError(f"unknown party {self.owner!r}, expected one of {PARTIES}")
        require_natural("qubit index", self.index)

    def __str__(self):
        return f"{self.owner}:{self.index}"


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over an ordered qubit register, checked and
    normalized on construction; the kernels' outputs skip both (see
    ``_state``)."""

    amplitudes: np.ndarray
    register: tuple[QubitId, ...]

    def __post_init__(self):
        reg = tuple(self.register)
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if len(set(reg)) != len(reg):
            raise ValueError("register conflict: duplicate qubit ids")
        if len(amps) != 2 ** len(reg):
            raise ValueError(f"expected {2 ** len(reg)} amplitudes for {len(reg)} qubits, got {len(amps)}")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        amps = unit_vector(amps, NORM_TOL)
        if amps is None:
            raise ValueError("cannot normalize a zero state vector")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "register", reg)

    @property
    def n(self) -> int:
        return len(self.register)

    def position(self, qubit: QubitId) -> int:
        try:
            return self.register.index(qubit)
        except ValueError:
            raise ValueError(f"qubit {qubit} not in register") from None

    def __repr__(self):
        reg = ",".join(str(q) for q in self.register)
        return f"StateVector([{reg}], dim={len(self.amplitudes)})"


# ---------------------------------------------------------------------------
# a single-qubit state on entry (README, Conventions)


def _amplitudes(values) -> np.ndarray:
    """``values`` as a complex array, or an empty one for rows of several lengths."""
    try:
        return np.asarray(values, dtype=complex)
    except ValueError:
        return np.empty(0, dtype=complex)


def _qubit_rows(states, name: str) -> tuple[np.ndarray, tuple]:
    """An (N, 2) array or a sequence of amplitude pairs and one-qubit ``StateVector``s as an
    (N, 2) stack, and the check (rows that pass, message for row n) that a row is two amplitudes."""
    if not isinstance(states, np.ndarray):
        states = [s.amplitudes if isinstance(s, StateVector) else s for s in states]
    stack = _amplitudes(states)
    fits = np.ones(len(stack), dtype=bool)
    if stack.shape[1:] != (2,):  # read row by row; a row that is not two amplitudes reads as zeros
        rows = list(map(_amplitudes, states))
        fits = np.array([row.shape == (2,) for row in rows], dtype=bool)
        stack = np.array([row if ok else (0, 0) for row, ok in zip(rows, fits)], dtype=complex).reshape(-1, 2)
    return stack, (fits, lambda n: f"{name} must be a single-qubit state")


def _unit_qubits(states) -> tuple[np.ndarray, tuple]:
    """States normalized on entry: ``_qubit_rows``' stack by ``unit_rows`` at
    ``NORM_TOL``, and the check that a row is one qubit's, finite and nonzero.
    A one-qubit ``StateVector`` is taken as it is, on its construction proof:
    normalizing it again need not give back its bits."""
    psi, (fits, misfit) = _qubit_rows(states, "psi")
    unit, ok = unit_rows(psi, NORM_TOL)  # a row read as zeros fails
    if not isinstance(states, np.ndarray):
        for n, state in enumerate(states):
            if isinstance(state, StateVector) and fits[n]:
                unit[n] = psi[n]
    return unit, (ok, lambda n: (not_finite("psi", psi[n]) or "psi must be nonzero") if fits[n] else misfit(n))


def _given_unit(name: str, states: np.ndarray) -> None:
    """Refuse the first row of an (N, 2) stack given normalized that is not finite,
    then the first whose ``_row_hypots`` norm is off 1 by more than ``STATE_NORM_TOL``."""
    require_finite_rows(name, states)
    norms = _row_hypots(states)
    off = np.abs(np.array(norms) - 1.0)
    _require_rows(off <= STATE_NORM_TOL, lambda n: f"{name} is not normalized (norm {norms[n]!r})")


@dataclass(frozen=True, eq=False)
class MeasurementBranch:
    """One measurement outcome: its bit string, probability and post-state."""

    outcome: str
    probability: float
    post_state: StateVector


# ---------------------------------------------------------------------------
# constructors


def basis_state(bits: str, register) -> StateVector:
    """Computational basis state |bits> over the given register."""
    register = tuple(register)
    if len(bits) != len(register) or any(b not in "01" for b in bits):
        raise ValueError(f"bad basis label {bits!r} for {len(register)} qubits")
    amps = np.zeros(2 ** len(register), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(amps, register)


def qubit_state(alpha, beta, qubit: QubitId) -> StateVector:
    """Single-qubit state alpha|0> + beta|1> (normalized on entry)."""
    return StateVector(np.array([alpha, beta], dtype=complex), (qubit,))


def plus_state(qubit: QubitId) -> StateVector:
    return qubit_state(1, 1, qubit)


def minus_state(qubit: QubitId) -> StateVector:
    return qubit_state(1, -1, qubit)


def bell_phi_plus(q1: QubitId, q2: QubitId) -> StateVector:
    """The shared pair (|00> + |11>)/sqrt(2), one e-bit of entanglement."""
    return StateVector(BELL_VECTORS[0], (q1, q2))


# ---------------------------------------------------------------------------
# branch stacks: ``amps[b]`` is branch b, with one axis per qubit (so qubit
# axes count from 1), the form the protocols compile on


@functools.cache
def _to_front(ndim: int, axes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose that moves ``axes`` to the front, in order, the others
    keeping theirs (what ``np.moveaxis`` does, without its per-call cost),
    and its inverse."""
    perm = axes + tuple(a for a in range(ndim) if a not in axes)
    return perm, tuple(np.argsort(perm).tolist())


def _apply_matrix(matrix: np.ndarray, axes: tuple[int, ...], amps: np.ndarray) -> np.ndarray:
    """``matrix`` on the given qubit axes of every branch, or, for an (N, d,
    d) stack of matrices, ``matrix[b]`` on branch b."""
    perm, inverse = _to_front(amps.ndim, (0,) + axes)
    front = amps.transpose(perm)
    out = matrix @ front.reshape(len(front), matrix.shape[-1], 2 ** (front.ndim - 1 - len(axes)))
    return out.reshape(front.shape).transpose(inverse)


def _squared_norms(amps: np.ndarray) -> np.ndarray:
    """Squared norm over the last axis, with no temporary the size of ``amps``."""
    flat = np.ascontiguousarray(amps).view(float)
    return np.einsum("...i,...i->...", flat, flat)


#: The measurement bases by (name, qubit count): row o is outcome o's vector.
_BASES = {
    ("computational", 1): np.eye(2),
    ("computational", 2): np.eye(4),
    ("bell", 2): _BELL,
}


def _split(amps: np.ndarray, axes: tuple[int, ...], bras: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every branch split by measuring its qubit ``axes`` against ``bras``,
    row o outcome o's vector (``_BASES`` holds the bases by name). The
    children, (N, outcomes) + the unmeasured axes, are the bras contracted
    with the measured axes, which they drop; with them comes each child's
    squared norm, (N, outcomes). Every child is returned, a zero one too."""
    front = amps.transpose(_to_front(amps.ndim, (0,) + axes)[0])
    n_branch, dim, rest = len(front), len(bras), front.shape[len(axes) + 1 :]
    coeff = bras.conj() @ front.reshape(n_branch, dim, 2 ** len(rest))
    return coeff.reshape(n_branch, dim, *rest), _squared_norms(coeff)


def _reduced_densities(amps: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """The reduced density matrix of the qubit ``axes`` of every branch,
    the other qubits traced out."""
    front = amps.transpose(_to_front(amps.ndim, (0,) + axes)[0])
    mat = front.reshape(len(front), 2 ** len(axes), 2 ** (front.ndim - 1 - len(axes)))
    return mat @ mat.conj().swapaxes(1, 2)


def _entropies(amps: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Von Neumann entropy (base 2), in bits, of every branch across the cut
    between its qubit ``axes`` and the rest: each eigenvalue of
    ``_reduced_densities`` above ``ENTROPY_CUTOFF`` adds -e log2 e, and a
    sum below 0 reads 0 (a NaN stays NaN)."""
    evals = np.linalg.eigvalsh(_reduced_densities(amps, axes))
    kept = evals > ENTROPY_CUTOFF
    logs = np.log2(evals, out=np.zeros_like(evals), where=kept)
    return np.maximum(-(evals * logs).sum(axis=-1), 0.0)


# ---------------------------------------------------------------------------
# per-branch kernels


def _state(amplitudes: np.ndarray, register: tuple[QubitId, ...]) -> StateVector:
    """A kernel's output, built without ``StateVector``'s checks, which it
    holds by construction: the register is the checked input's, the length
    follows from the shape, and the values are finite because the input's
    are and every ``Gate`` is checked unitary. It is not renormalized.
    ``BatchOutcome.row`` builds Bob's unit outputs with it too."""
    amplitudes.setflags(write=False)
    state = object.__new__(StateVector)
    fields = state.__dict__
    fields["amplitudes"], fields["register"] = amplitudes, register
    return state


def tensor(s1: StateVector, s2: StateVector) -> StateVector:
    """Kronecker product; ``s1``'s register comes first."""
    overlap = set(s1.register) & set(s2.register)
    if overlap:
        names = ", ".join(sorted(str(q) for q in overlap))
        raise ValueError(f"register conflict: {names} present in both states")
    return _state(np.multiply.outer(s1.amplitudes, s2.amplitudes).reshape(-1), s1.register + s2.register)


def _targets_front(s: StateVector, targets) -> tuple[np.ndarray, tuple[int, ...]]:
    """Amplitude tensor with the target axes moved to the front, in order,
    and the transpose that moves them back."""
    targets = tuple(targets)
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate targets")
    perm, inverse = _to_front(s.n, tuple(map(s.position, targets)))
    return s.amplitudes.reshape((2,) * s.n).transpose(perm), inverse


def apply_gate(s: StateVector, g: Gate, targets) -> StateVector:
    """Apply ``g`` on the target qubits (identity elsewhere), as computed:
    the result is ``G psi``, not renormalized.

    For a two-qubit gate the first target is the more significant input,
    so ``apply_gate(s, CNOT, [control, target])`` reads naturally.
    """
    targets = list(targets)
    if len(targets) != g.qubits:
        raise ValueError(
            f"gate {g.name!r} acts on {g.qubits} qubit(s), got {len(targets)} target(s)"
        )
    psi, inverse = _targets_front(s, targets)
    out = g.matrix @ psi.reshape(len(g.matrix), -1)
    return _state(out.reshape(psi.shape).transpose(inverse).reshape(-1), s.register)


def measure(s: StateVector, targets, basis: str = "computational") -> list[MeasurementBranch]:
    """Exhaustive projective measurement onto the basis vectors v_o: each
    outcome o with p_o = |<v_o|psi>|^2 at or above ``BRANCH_PRUNE``, and its
    post-state |v_o> (x) <v_o|psi> / sqrt(p_o), not renormalized.

    ``basis`` is ``"computational"`` (any number of targets) or ``"bell"``
    (exactly two targets, outcomes ordered phi+, phi-, psi+, psi-).
    """
    targets = list(targets)
    if not targets:
        raise ValueError("empty target list")
    if basis == "computational":
        vecs = np.eye(2 ** len(targets))
    elif basis == "bell":
        if len(targets) != 2:
            raise ValueError("bell basis requires exactly 2 targets")
        vecs = _BELL
    else:
        raise ValueError(f"unknown basis {basis!r}")
    psi, inverse = _targets_front(s, targets)
    coeffs = vecs.conj() @ psi.reshape(len(vecs), -1)
    probs = np.sum(np.abs(coeffs) ** 2, axis=1)
    branches = []
    for o, (prob, vec, coeff) in enumerate(zip(probs.tolist(), vecs, coeffs)):
        if prob < BRANCH_PRUNE:
            continue
        post = np.multiply.outer(vec, coeff) / math.sqrt(prob)
        post = post.reshape(psi.shape).transpose(inverse).reshape(-1)
        branches.append(MeasurementBranch(format(o, f"0{len(targets)}b"), prob, _state(post, s.register)))
    return branches


def sample_index(probs, rng: np.random.Generator) -> int:
    """Index drawn with probability ``probs[i]``: the first whose running
    sum reaches ``rng.random() * sum(probs)``, the sum being the last running
    sum. Consumes one draw, so a fixed seed gives a fixed sequence."""
    sums = list(accumulate(map(float, probs)))
    if not sums:
        raise ValueError("no branches to sample")
    total = sums[-1]
    if not abs(total - 1.0) <= SAMPLE_SUM_TOL:
        raise ValueError(f"degenerate probability vector (sums to {total!r})")
    r = rng.random() * total
    return min(bisect_left(sums, r), len(sums) - 1)


def reduced_density(s: StateVector, keep) -> np.ndarray:
    """Reduced density matrix of the kept qubits (others traced out):
    ``_reduced_densities`` of one state, as ``_targets_front`` orders it."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be a nonempty subset of the register")
    return _reduced_densities(_targets_front(s, keep)[0][None], tuple(range(1, len(keep) + 1)))[0]


def entanglement_entropy(s: StateVector, cut) -> float:
    """Von Neumann entropy (base 2) of ``reduced_density(s, cut)``, in bits:
    ``_entropies`` of one state, as ``_targets_front`` orders it."""
    cut = list(cut)
    if len(cut) >= s.n:
        raise ValueError("cut must be a proper subset of the register")
    return float(_entropies(_targets_front(s, cut)[0][None], tuple(range(1, len(cut) + 1)))[0])


def factor_qubit(s: StateVector, qubit: QubitId) -> np.ndarray:
    """Amplitude pair of one qubit, provided it is unentangled from the rest.

    The returned pair is phase-fixed so its largest-magnitude component is
    real and positive. Raises :class:`InvariantViolation` if the qubit is
    entangled, since a protocol output is then not a valid single-qubit state.
    """
    psi, _ = _targets_front(s, [qubit])
    mat = psi.reshape(2, -1)
    u, sing, _ = np.linalg.svd(mat, full_matrices=False)
    if len(sing) > 1 and not sing[1] <= FACTOR_TOL:
        raise InvariantViolation(
            f"qubit {qubit} is entangled (second Schmidt coefficient {sing[1]:.3e})"
        )
    vec = u[:, 0]
    lead = vec[np.argmax(np.abs(vec))]
    return vec * (lead.conjugate() / abs(lead))
