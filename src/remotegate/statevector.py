"""Exact statevector engine over party-labeled qubit registers.

Conventions, used everywhere in this package:

* The qubit at register position 0 is the most significant bit of the
  amplitude index, so ``tensor(s1, s2)`` is a plain Kronecker product with
  ``s1``'s register first.
* States are stored normalized; every constructor normalizes on entry and
  rejects (near-)zero vectors.
* Bell outcomes are ordered (phi+, phi-, psi+, psi-) and reported as the
  two-bit strings "00", "01", "10", "11" in that order.

All values are immutable after construction; operations return new values,
so independent simulations can run concurrently as long as each owns its
random generator.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .gates import Gate, unit_vector
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
BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")


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
        if self.index < 0:
            raise ValueError("qubit index must be nonnegative")

    def __str__(self):
        return f"{self.owner}:{self.index}"


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over an ordered qubit register."""

    amplitudes: np.ndarray
    register: tuple[QubitId, ...]

    def __post_init__(self):
        reg = tuple(self.register)
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        _check_block(amps[None], reg)
        amps = unit_vector(amps, NORM_TOL)
        if amps is None:
            raise ValueError("cannot normalize a zero state vector")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "register", reg)

    @classmethod
    def from_unit_rows(cls, rows, register) -> list[StateVector]:
        """One state per row of ``rows``, each row already a unit vector.

        The block is checked once, finite and within ``STATE_NORM_TOL`` of
        unit norm, and no row is renormalised on its own.
        """
        reg = tuple(register)
        rows = np.array(rows, dtype=complex)
        _check_block(rows, reg)
        deviation = np.abs(np.sum(rows.real**2 + rows.imag**2, axis=1) - 1.0)
        if not np.all(deviation <= STATE_NORM_TOL):
            raise ValueError(f"rows are not unit vectors (norm^2 off by {deviation.max():.3e})")
        rows.setflags(write=False)
        states = []
        for amps in rows:
            state = object.__new__(cls)
            state.__dict__.update(amplitudes=amps, register=reg)
            states.append(state)
        return states

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


def _check_block(rows: np.ndarray, reg: tuple[QubitId, ...]):
    """Rows of amplitudes over ``reg``: distinct qubits, the right length, finite."""
    if len(set(reg)) != len(reg):
        raise ValueError("register conflict: duplicate qubit ids")
    if rows.ndim != 2 or rows.shape[1] != 2 ** len(reg):
        raise ValueError(
            f"expected {2 ** len(reg)} amplitudes for {len(reg)} qubits, "
            f"got {rows.shape[-1]}"
        )
    if not np.all(np.isfinite(rows.view(float))):
        raise ValueError("amplitudes must be finite")


@dataclass(frozen=True, eq=False)
class MeasurementBranch:
    """One measurement outcome: its bit string, probability and post-state."""

    outcome: str
    probability: float
    post_state: StateVector


# ---------------------------------------------------------------------------
# constructors


def from_amplitudes(amps, register) -> StateVector:
    """State from raw amplitudes (normalized on entry)."""
    return StateVector(np.asarray(amps, dtype=complex), tuple(register))


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
# operations


def tensor(s1: StateVector, s2: StateVector) -> StateVector:
    """Kronecker product; ``s1``'s register comes first."""
    overlap = set(s1.register) & set(s2.register)
    if overlap:
        names = ", ".join(sorted(str(q) for q in overlap))
        raise ValueError(f"register conflict: {names} present in both states")
    return StateVector(np.kron(s1.amplitudes, s2.amplitudes), s1.register + s2.register)


def _targets_front(s: StateVector, targets) -> tuple[np.ndarray, list[int]]:
    """Amplitude tensor with the target axes moved to the front, in order."""
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate targets")
    pos = [s.position(q) for q in targets]
    psi = s.amplitudes.reshape([2] * s.n)
    return np.moveaxis(psi, pos, range(len(pos))), pos


def apply_gate(s: StateVector, g: Gate, targets) -> StateVector:
    """Apply ``g`` on the target qubits (identity elsewhere).

    For a two-qubit gate the first target is the more significant input,
    so ``apply_gate(s, CNOT, [control, target])`` reads naturally.
    """
    targets = list(targets)
    if len(targets) != g.qubits:
        raise ValueError(
            f"gate {g.name!r} acts on {g.qubits} qubit(s), got {len(targets)} target(s)"
        )
    psi, pos = _targets_front(s, targets)
    k = len(targets)
    mat = psi.reshape(2**k, -1)
    out = (g.matrix @ mat).reshape([2] * s.n)
    out = np.moveaxis(out, range(k), pos)
    return StateVector(out.reshape(-1), s.register)


def measure(s: StateVector, targets, basis: str = "computational") -> list[MeasurementBranch]:
    """Exhaustive projective measurement: every branch with its exact
    probability and renormalized post-state (zero-weight branches dropped).

    ``basis`` is ``"computational"`` (any number of targets) or ``"bell"``
    (exactly two targets, outcomes ordered phi+, phi-, psi+, psi-).
    """
    targets = list(targets)
    if not targets:
        raise ValueError("empty target list")
    if basis == "computational":
        psi, pos = _targets_front(s, targets)
        k = len(targets)
        mat = psi.reshape(2**k, -1)
        probs = np.sum(np.abs(mat) ** 2, axis=1)
        branches = []
        for idx in range(2**k):
            if probs[idx] < BRANCH_PRUNE:
                continue
            post = np.zeros_like(mat)
            post[idx] = mat[idx]
            post = np.moveaxis(post.reshape([2] * s.n), range(k), pos)
            branches.append(
                MeasurementBranch(
                    outcome=format(idx, f"0{k}b"),
                    probability=float(probs[idx]),
                    post_state=StateVector(post.reshape(-1), s.register),
                )
            )
        return branches
    if basis == "bell":
        if len(targets) != 2:
            raise ValueError("bell basis requires exactly 2 targets")
        psi, pos = _targets_front(s, targets)
        mat = psi.reshape(4, -1)
        branches = []
        for idx, bell in enumerate(BELL_VECTORS):
            coeff = bell.conj() @ mat
            prob = float(np.sum(np.abs(coeff) ** 2))
            if prob < BRANCH_PRUNE:
                continue
            post = np.outer(bell, coeff)
            post = np.moveaxis(post.reshape([2] * s.n), range(2), pos)
            branches.append(
                MeasurementBranch(
                    outcome=format(idx, "02b"),
                    probability=prob,
                    post_state=StateVector(post.reshape(-1), s.register),
                )
            )
        return branches
    raise ValueError(f"unknown basis {basis!r}")


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


def sample_branch(branches, rng: np.random.Generator) -> MeasurementBranch:
    """Draw one branch with its probability; deterministic for a fixed seed."""
    branches = list(branches)
    return branches[sample_index([b.probability for b in branches], rng)]


def reduced_density(s: StateVector, keep) -> np.ndarray:
    """Reduced density matrix of the kept qubits (others traced out)."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be a nonempty subset of the register")
    psi, _ = _targets_front(s, keep)
    mat = psi.reshape(2 ** len(keep), -1)
    return mat @ mat.conj().T


def entanglement_entropy(s: StateVector, cut) -> float:
    """Von Neumann entropy (base 2) of ``reduced_density(s, cut)``, in bits."""
    cut = list(cut)
    if len(cut) >= s.n:
        raise ValueError("cut must be a proper subset of the register")
    rho = reduced_density(s, cut)
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > ENTROPY_CUTOFF]
    entropy = float(-(evals * np.log2(evals)).sum())
    return entropy if entropy > 0.0 else 0.0


def fidelity_up_to_phase(s1: StateVector, s2: StateVector) -> float:
    """|<s1|s2>|^2, insensitive to global phase."""
    if len(s1.amplitudes) != len(s2.amplitudes):
        raise ValueError("dimension mismatch")
    return float(abs(np.vdot(s1.amplitudes, s2.amplitudes)) ** 2)


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
