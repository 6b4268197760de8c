"""Two-party protocols that implement a rotation on Bob's qubit remotely.

Alice holds the black box applying an unknown rotation U; Bob holds a qubit
in an arbitrary state psi. The parties may only act locally, share prepared
(|00> + |11>)/sqrt(2) pairs, and exchange classical bits. Every protocol
returns the exhaustive branch tree (or one path drawn from it) with the
ledger of e-bits and classical bits per direction that its steps imply:

* ``run_bqst``            baseline via two state teleportations, (2, 2, 2)
* ``run_universal_221``   any U, succeeds with probability 1/2,  (2, 2, 1)
* ``run_restricted_221``  U (anti)commuting with sz, always,     (2, 2, 1)
* ``run_111``             as above with the class known upfront, (1, 1, 1)

``run_batch`` runs any of them exactly on N configurations at once and
returns the branches of all N as one ``BatchOutcome`` table.

The capacity demos bound the resources from below: a gate applying a Pauli
picked by two control bits creates 2 e-bits from nothing and carries 2
classical bits toward Bob, and a plain controlled-NOT carries 1 bit back.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .gates import (
    CNOT,
    Gate,
    H,
    RowError,
    X,
    Z,
    controlled,
    controlled_phase,
    identity2,
    not_finite,
    require_seed,
    sigma_x,
    sigma_y,
    sigma_z,
    single_row,
    unit_rows,
)
from .operators import (
    ANTICOMMUTING,
    COMMUTING,
    Unimodular,
    commutation_norms,
    kinds_from_norms,
    rz,
    unimodular_error,
    unimodular_matrices,
    unimodular_residuals,
)
from .statevector import (
    BELL_VECTORS,
    InvariantViolation,
    QubitId,
    StateVector,
    _to_front,
    apply_gate,
    basis_state,
    bell_phi_plus,
    entanglement_entropy,
    measure,
    minus_state,
    plus_state,
    sample_index,
    tensor,
)
from .tolerances import (
    BRANCH_PRUNE,
    CLASS_TOL,
    FACTOR_TOL,
    NORM_TOL,
    PROB_TOL,
    STATE_NORM_TOL,
    SUCCESS_TOL,
    UNIMODULAR_TOL,
    UNITARY_TOL,
)

#: Pauli fix-up on the receiving qubit, keyed by Bell outcome.
BELL_CORRECTIONS = {
    "00": None,
    "01": Z,
    "10": X,
    "11": Gate(sigma_x @ sigma_z, "xz"),
}

ZX = Gate(sigma_z @ sigma_x, "zx")


@dataclass(frozen=True)
class ResourceLedger:
    """Consumed e-bits and classical bits sent in each direction."""

    ebits_consumed: int = 0
    cbits_a_to_b: int = 0
    cbits_b_to_a: int = 0

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.ebits_consumed, self.cbits_a_to_b, self.cbits_b_to_a)


class ProtocolOutcome(NamedTuple):
    """One branch of a protocol run."""

    measurement_record: tuple[tuple[str, str, str], ...]
    probability: float
    bob_final: StateVector
    target_fidelity: float
    succeeded: bool
    ledger: ResourceLedger

    @property
    def branch_id(self) -> str:
        return "/".join(outcome for _, _, outcome in self.measurement_record)


@dataclass(frozen=True, eq=False)
class _Rows:
    """N configurations as stacks: the black boxes (N, 2, 2), Bob's unit
    states (N, 2) and each row's promise as its code (``_PROMISES``)."""

    u: np.ndarray
    psi: np.ndarray
    promise: np.ndarray

    @functools.cached_property
    def norms(self) -> tuple[np.ndarray, np.ndarray]:
        """Commutator and anticommutator norms of each black box with sz."""
        return commutation_norms(self.u, sigma_z)

    @functools.cached_property
    def kinds(self) -> np.ndarray:
        """The class of each black box against the z axis."""
        return kinds_from_norms(*self.norms)

    def take(self, index) -> "_Rows":
        """The rows at ``index``, as a stack of their own."""
        return type(self)(u=self.u[index], psi=self.psi[index], promise=self.promise[index])


#: The promises a row may carry, at their codes in ``_Rows.promise``; any
#: other value has the code ``_UNKNOWN``.
_PROMISES = (None, COMMUTING, ANTICOMMUTING)
_NO_PROMISE, _COMMUTING, _ANTICOMMUTING, _UNKNOWN = range(4)


def _promise_code(promise) -> int:
    return _PROMISES.index(promise) if promise in _PROMISES else _UNKNOWN


def _messages(checks, n_row: int) -> list[str | None]:
    """For each of ``n_row`` rows, the message of the first of ``checks``
    it fails, or None: what checking row by row reports. ``checks`` are
    pairs (rows that pass, message for row n), in the order one row is
    checked. A check every row passes costs one reduction; the messages are
    built only for the rows that fail."""
    messages = [None] * n_row
    for ok, message in checks:
        if not ok.all():
            for n in np.flatnonzero(~ok).tolist():
                if messages[n] is None:
                    messages[n] = message(n)
    return messages


def _refuse(messages):
    """Raise ``RowError`` for the first row with a message, if there is one."""
    if any(messages):
        row = next(n for n, message in enumerate(messages) if message)
        raise RowError(row, messages[row])


def _state_rows(psis) -> tuple[np.ndarray, np.ndarray]:
    """Bob's states as an (N, 2) stack, and which rows are one qubit's."""
    if not isinstance(psis, np.ndarray):
        psis = [p.amplitudes if isinstance(p, StateVector) else p for p in psis]
    try:
        stack = np.asarray(psis, dtype=complex)
    except ValueError:  # rows of several lengths
        stack = None
    if stack is not None and stack.ndim >= 1 and stack.size == 2 * len(stack):
        return stack.reshape(len(stack), 2), np.ones(len(stack), dtype=bool)
    rows = [np.asarray(p, dtype=complex).reshape(-1) for p in psis]
    one_qubit = np.array([row.shape == (2,) for row in rows], dtype=bool)
    stack = np.array([row if ok else np.zeros(2) for row, ok in zip(rows, one_qubit)])
    return stack.reshape(-1, 2), one_qubit


def _class_checks(rows: _Rows, given, precondition) -> list:
    """The checks on rows whose values pass, in ``_messages``' form and in
    order: a promise names a class (``given[n]`` is row n's as given) and
    the rotation has it; then ``precondition``."""
    checks = precondition(rows)
    if any(p is not None for p in given):
        comm, anti = rows.norms
        # the norm the promised class needs within CLASS_TOL; a unitary
        # black box cannot have both within it, so the anticommutator's
        # alone decides ANTICOMMUTING
        promised = np.where(rows.promise == _ANTICOMMUTING, anti, np.where(rows.promise == _COMMUTING, comm, 0.0))
        checks[:0] = [
            (rows.promise != _UNKNOWN, lambda n: f"unknown promise {given[n]!r}"),
            (
                promised <= CLASS_TOL,
                lambda n: f"promise violation: operator classifies as {rows.kinds[n]}, promise says {given[n]}",
            ),
        ]
    return checks


def _checked(us, psis, promise, precondition) -> tuple[_Rows, list[str | None]]:
    """Stack N configurations and check each row on its own. ``promise`` is
    one value for every row or a sequence of N. Returns the rows and, for
    each row, the message of the first check it fails, or None.

    The checks on a row's values come first, in order: the rotation is
    finite and unimodular (a ``Unimodular`` or an (a, b) pair) and its
    black box, as built, unitary; psi is one qubit's, finite and nonzero
    (and is normalised). The rows that pass them then get
    ``_class_checks``. Stacks whose shapes do not fit are refused."""
    if not isinstance(us, np.ndarray):
        us = [(u.a, u.b) if isinstance(u, Unimodular) else u for u in us]
    pairs = np.asarray(us, dtype=complex)
    psi, one_qubit = _state_rows(psis)
    n_row = len(pairs)
    if promise is None or isinstance(promise, str):
        given, codes = [promise] * n_row, [_promise_code(promise)] * n_row
    else:
        given = list(promise)
        codes = [_promise_code(p) for p in given]
    if not n_row == len(psi) == len(given):
        raise ValueError(f"{n_row} rotations, {len(psi)} states and {len(given)} promises do not match")
    if not n_row:
        raise ValueError("a batch needs at least one configuration")
    if pairs.shape != (n_row, 2):
        raise ValueError(f"rotations must be (a, b) pairs, got shape {pairs.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # rows that are not finite fail anyway
        residuals = unimodular_residuals(pairs)
        u = unimodular_matrices(pairs)
        off = np.abs(u.conj().swapaxes(1, 2) @ u - identity2)
    unit, nonzero = unit_rows(psi, NORM_TOL)
    rows = _Rows(u=u, psi=unit, promise=np.array(codes, dtype=np.intp))
    # one reduction per check decides for the whole stack: ``nonzero`` is
    # also False where psi is not one qubit's (a zero row) or not finite
    if residuals.max() <= UNIMODULAR_TOL and off.max() <= UNITARY_TOL and nonzero.all():
        return rows, _messages(_class_checks(rows, given, precondition), n_row)
    messages = _messages(
        [
            (residuals <= UNIMODULAR_TOL, lambda n: unimodular_error(*pairs[n].tolist(), residuals[n])),
            (off.max(axis=(1, 2)) <= UNITARY_TOL, lambda n: f"gate 'u' is not unitary within {UNITARY_TOL}"),
            (one_qubit, lambda n: "psi must be a single-qubit state"),
            (np.isfinite(psi).all(axis=1), lambda n: not_finite("psi", psi[n])),
            (nonzero, lambda n: "psi must be nonzero"),
        ],
        n_row,
    )
    # the class checks go to the rows whose values pass: the norms of a row
    # that is not finite are not taken (they would warn)
    index = [n for n, message in enumerate(messages) if message is None]
    if index:
        later = _class_checks(rows.take(index), [given[n] for n in index], precondition)
        for n, message in zip(index, _messages(later, len(index))):
            messages[n] = message
    return rows, messages


def _rows(us, psis, promise, precondition) -> _Rows:
    """``_checked``'s rows, refused with ``RowError`` for the first bad row,
    with the message of the first check it fails."""
    rows, messages = _checked(us, psis, promise, precondition)
    _refuse(messages)
    rows.psi.setflags(write=False)
    return rows


def admissible(protocol: str, us, psis, promise=None) -> list[str | None]:
    """For each row of a batch, the message a single run of it raises, the
    one ``run_batch`` refuses the batch with (after ``row n: ``) when it is
    the first bad row, or None for a row that runs. Stacks whose shapes do
    not fit are refused as ``run_batch`` refuses them."""
    if protocol not in _CIRCUITS:
        raise ValueError(f"unknown protocol {protocol!r}")
    return _checked(us, psis, promise, _CIRCUITS[protocol][0])[1]


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    """Inputs of a run: the black-box rotation, Bob's state, an optional
    promise about the rotation's class, and the execution mode. ``rows``
    holds the configuration as the checked one-row stack a run takes. A
    rotation given as an (a, b) pair is kept as its checked ``Unimodular``."""

    u: Unimodular
    psi: np.ndarray
    promise: str | None = None
    mode: str = "exact"
    seed: int | None = None
    rows: _Rows = field(init=False, repr=False)

    def __post_init__(self):
        with single_row:
            rows = _rows([self.u], [self.psi], [self.promise], _any_config)
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "sampled" and self.seed is None:
            raise ValueError("sampled mode requires a seed")
        if self.seed is not None:
            require_seed(self.seed)
        if not isinstance(self.u, Unimodular):
            object.__setattr__(self, "u", Unimodular(*rows.u[0, 0].tolist()))
        object.__setattr__(self, "psi", rows.psi[0])
        object.__setattr__(self, "rows", rows)


# ---------------------------------------------------------------------------
# branch tensor

#: Measurement bases as rows of outcome vectors, keyed by (basis, qubits).
_BASES = {
    ("computational", 1): np.eye(2),
    ("computational", 2): np.eye(4),
    ("bell", 2): np.array(BELL_VECTORS),
}


@dataclass(frozen=True, eq=False)
class BatchOutcome:
    """Every branch of one protocol run over N configurations (rows).

    Branch b has the same measurement record in every row, and the ledger
    is the same for every branch. The arrays are indexed ``[n, b]``; every
    row has every branch.
    """

    records: tuple[tuple[tuple[str, str, str], ...], ...]
    probability: np.ndarray  # (N, B)
    fidelity: np.ndarray  # (N, B), to U|psi>
    succeeded: np.ndarray  # (N, B)
    bob_final: np.ndarray  # (N, B, 2), phase-fixed unit vectors
    ledger: ResourceLedger
    bob_qubit: QubitId

    def row(self, n: int, branches=None) -> list[ProtocolOutcome]:
        """Row n as a single run returns it: one outcome per branch (or per one in ``branches``).

        Each state is a read-only view of ``bob_final``, built without a
        second check: ``_finish`` certified every final state once.
        """
        register, ledger = (self.bob_qubit,), self.ledger
        probs, fids, wins = (a[n].tolist() for a in (self.probability, self.fidelity, self.succeeded))
        cells = zip(self.records, probs, list(self.bob_final[n]), fids, wins)
        if branches is not None:
            cells = list(cells)
            cells = [cells[b] for b in branches]
        # tuple.__new__ skips the named tuple's Python-level __new__
        new_state, new_outcome = object.__new__, tuple.__new__
        outcomes = []
        for record, probability, amplitudes, fidelity, succeeded in cells:
            final = new_state(StateVector)
            fields = final.__dict__
            fields["amplitudes"], fields["register"] = amplitudes, register
            outcomes.append(new_outcome(ProtocolOutcome, (record, probability, final, fidelity, succeeded, ledger)))
        return outcomes


def _apply_matrix(matrix: np.ndarray, axes: tuple[int, ...], amps: np.ndarray) -> np.ndarray:
    """``matrix`` on the given qubit axes of every branch."""
    perm, inverse = _to_front(amps.ndim, (0,) + axes)
    front = amps.transpose(perm)
    out = matrix @ front.reshape(len(front), len(matrix), 2 ** (front.ndim - 1 - len(axes)))
    return out.reshape(front.shape).transpose(inverse)


def _squared_norms(amps: np.ndarray) -> np.ndarray:
    """Squared norm over the last axis, with no temporary the size of ``amps``."""
    flat = np.ascontiguousarray(amps).view(float)
    return np.einsum("...i,...i->...", flat, flat)


_SWAP = Gate(np.eye(4)[[0, 2, 1, 3]], "swap")
#: The comb's references: Bob's R_psi, paired with his data qubit, and Alice's R_in and R_out.
_R_PSI, _R_IN, _R_OUT = QubitId("bob", 3), QubitId("alice", 2), QubitId("alice", 3)


class _Run:
    """All branches of one protocol as one array: the protocol as a one-slot
    quantum comb (Chiribella, D'Ariano and Perinotti, PRL 101, 060401, 2008).
    Bob's data qubit is paired with a reference R_psi, and the black box is
    a slot (``black_box``) wired to Alice's references R_in and R_out, so at
    (R_out, R_in, R_psi) = (i, j, m) the run holds the protocol's output for
    the box E_ij = |i><j| and Bob's state |m>, which ``_instrument`` reads.

    ``amps[b]`` is branch b, with one axis per register qubit not yet
    measured. A measurement contracts its qubits with the basis vectors and
    drops them from the register (deferred measurement); the outcomes go
    onto the branch axis, parent branch first and outcome second, which
    keeps the order of the branch tree. Each measurement is logged once, as
    its party, basis and qubit count, beside its outcome on each branch; the
    branch records and the ledger's bits follow from that log.

    Each step acts for the party that owns its qubits, and a step across
    the Alice|Bob cut is refused (LOCC: local operations and classical
    communication). The ledger follows from the steps: one e-bit per shared
    pair, and in each direction the bits of every outcome one party measured
    and the other read, counted once however many steps read it.
    """

    def __init__(self, pairs: StateVector, data: QubitId):
        """The shared ``pairs`` beside three references, each at amplitude 1
        on its basis states: |00> + |11> on (``data``, R_psi), |0> on R_in
        and |0> + |1> on R_out."""
        self.ebits = len(pairs.register) // 2
        self._set_register(pairs.register + (data, _R_PSI, _R_IN, _R_OUT))
        references = np.kron(np.kron([1, 0, 0, 1], [1, 0]), [1, 1])
        self.amps = np.kron(pairs.amplitudes, references).reshape((1,) + (2,) * len(self.register))
        #: per measurement, its (party, basis, qubit count)
        self.log: list[tuple[str, str, int]] = []
        #: ``outcomes[b, m]``: the outcome of measurement m on branch b
        self.outcomes = np.zeros((1, 0), dtype=int)
        #: measurements whose outcome the other party read
        self.sent: set[int] = set()

    def _set_register(self, register: tuple[QubitId, ...]):
        self.register = register
        #: (owner, index) -> the qubit's axis in ``amps``
        self._axes = {(q.owner, q.index): 1 + i for i, q in enumerate(register)}

    def _locate(self, targets, step: str) -> tuple[str, tuple[int, ...]]:
        """The one party that owns ``targets``, and their axes."""
        keys = [(q.owner, q.index) for q in targets]
        axes = tuple(map(self._axes.get, keys))
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate targets")
        if None in axes:
            raise ValueError(f"qubit {targets[axes.index(None)]} not in register")
        owners = {owner for owner, _ in keys}
        if len(owners) > 1:
            raise ValueError(f"{step} on ({', '.join(map(str, targets))}) crosses the Alice|Bob cut")
        return (owners.pop() if owners else None), axes

    @property
    def records(self) -> list[tuple[tuple[str, str, str], ...]]:
        """Each branch's measurement record: (party, basis, outcome bits) per measurement."""
        labels = [[(party, basis, format(o, f"0{k}b")) for o in range(2**k)] for party, basis, k in self.log]
        return [tuple(labels[m][o] for m, o in enumerate(branch)) for branch in self.outcomes.tolist()]

    def apply(self, gate: Gate, targets, when: tuple[int, int] | None = None):
        """Apply ``gate`` on every branch, or, with ``when=(m, value)``, on
        those where measurement m gave ``value``."""
        party, axes = self._locate(targets, f"gate {gate.name!r}")
        if len(axes) != gate.qubits:
            raise ValueError(f"gate {gate.name!r} acts on {gate.qubits} qubit(s), got {len(axes)} target(s)")
        if when is None:
            self.amps = _apply_matrix(gate.matrix, axes, self.amps)
        else:
            m, value = when
            if self.log[m][0] != party:  # measured by the other party
                self.sent.add(m)
            hit = self.outcomes[:, m] == value
            self.amps[hit] = _apply_matrix(gate.matrix, axes, self.amps[hit])

    def black_box(self, q: QubitId):
        """Alice's black box on ``q``, as the comb's slot: q's state moves to
        R_in and q takes R_out's, which leaves the box E_ij at (R_out, R_in)
        = (i, j)."""
        self.apply(_SWAP, [q, _R_IN])
        self.apply(CNOT, [_R_OUT, q])

    def measure(self, targets, basis: str) -> int:
        """Split every branch by the outcome of measuring ``targets``, which
        leave the register, and return the measurement's index for ``when``.
        A child below ``BRANCH_PRUNE`` of its parent is dropped."""
        party, axes = self._locate(targets, f"{basis} measurement")
        k = len(axes)
        vecs = _BASES.get((basis, k))
        if vecs is None:
            raise ValueError(f"cannot measure {k} qubit(s) in the {basis!r} basis")
        front = self.amps.transpose(_to_front(self.amps.ndim, (0,) + axes)[0])
        n_branch, dim, rest = len(front), 2**k, front.shape[k + 1 :]
        coeff = vecs.conj() @ front.reshape(n_branch, dim, 2 ** len(rest))
        child = _squared_norms(coeff)
        # child / parent < BRANCH_PRUNE, written so that a zero parent divides nothing
        keep = ~(child < BRANCH_PRUNE * child.sum(axis=1, keepdims=True)).reshape(-1)
        self.amps = coeff.reshape(n_branch * dim, *rest)[keep]
        self._set_register(tuple(q for i, q in enumerate(self.register, 1) if i not in axes))
        kept = np.flatnonzero(keep)  # child index: parent branch * dim + outcome
        self.outcomes = np.column_stack((self.outcomes[kept // dim], kept % dim))
        self.log.append((party, basis, k))
        return len(self.log) - 1

    @property
    def ledger(self) -> ResourceLedger:
        """One e-bit per shared pair and, in each direction, the bits of every
        outcome one party measured and the other read."""
        sent = [self.log[m] for m in self.sent]
        a_to_b, b_to_a = (sum(k for p, _, k in sent if p == side) for side in ("alice", "bob"))
        return ResourceLedger(self.ebits, a_to_b, b_to_a)


def _near_one(largest, smallest, tol: float) -> bool:
    """Whether |x - 1| <= ``tol`` for every x from ``smallest`` to
    ``largest``, a NaN failing: x - 1 rounds monotonically in x, and 1 - x
    rounds to its negation, so the two ends decide what |x - 1| of each
    value would."""
    return largest - 1.0 <= tol and 1.0 - smallest <= tol


def _finish(amps, rows: _Rows, records, ledger: ResourceLedger, bob_qubit: QubitId) -> BatchOutcome:
    """The table of the branches ``amps[n, b]`` of ``rows``, each shaped (2,
    R) as Bob's qubit and the rest of the register, and never renormalised.
    Refuses a row whose probabilities do not sum to 1 (a step was not
    unitary), a branch below ``BRANCH_PRUNE`` of its row (the rows share
    every branch), a Bob's qubit that is entangled with the rest and a
    final state of Bob's that is not finite and unit within
    ``STATE_NORM_TOL``. Normalises Bob's states in ``amps`` in place.

    Each check decides for the whole table from a few extremes; the row and
    branch that fail are looked for only when one does not pass."""
    n_row, n_branch = amps.shape[:2]
    probs = _squared_norms(amps.reshape(n_row, n_branch, -1))
    totals = probs.sum(axis=1)
    largest = totals.max()
    if not _near_one(largest, totals.min(), PROB_TOL):
        off = np.abs(totals - 1.0)
        n = int(np.argmax(~(off <= PROB_TOL)))
        raise InvariantViolation(
            f"branch probabilities of row {n} sum to {float(totals[n])!r}, "
            "expected 1.0: a step was not unitary"
        )
    # no branch is below BRANCH_PRUNE of its row if none is below it of the largest row
    if not probs.min() >= BRANCH_PRUNE * largest:
        small = probs < BRANCH_PRUNE * totals[:, None]
        if small.any():
            n, b = np.argwhere(small)[0]
            branch = "/".join(outcome for _, _, outcome in records[b])
            raise InvariantViolation(
                f"row {n} drops branch {branch} (probability {probs[n, b]:.3e}), which every row keeps"
            )
    norms = np.sqrt(probs)
    if amps.shape[3] == 1:
        finals = amps[..., 0]
        finals /= norms[..., None]
    else:
        u, sing, _ = np.linalg.svd(amps, full_matrices=False)
        # second Schmidt coefficient of the normalised branch <= FACTOR_TOL
        entangled = ~(sing[..., 1] <= FACTOR_TOL * norms)
        if entangled.any():
            n, b = np.argwhere(entangled)[0]
            raise InvariantViolation(
                f"qubit {bob_qubit} is entangled in row {n} (second Schmidt "
                f"coefficient {sing[n, b, 1] / norms[n, b]:.3e})"
            )
        finals = u[..., 0]
    # phase-fix: the larger component (the first on a tie) real and positive
    lead = np.where(np.abs(finals[..., 0]) >= np.abs(finals[..., 1]), finals[..., 0], finals[..., 1])
    np.divide(lead.conj(), np.abs(lead), out=lead)
    finals *= lead[..., None]
    # certified once here, so that ``BatchOutcome.row`` hands the states out unchecked
    squares = _squared_norms(finals)
    if not _near_one(squares.max(), squares.min(), STATE_NORM_TOL):
        off = np.abs(squares - 1.0)
        n, b = np.argwhere(~(off <= STATE_NORM_TOL))[0]
        branch = "/".join(outcome for _, _, outcome in records[b])
        raise InvariantViolation(
            f"row {n} branch {branch}: Bob's final state is not a unit vector (norm^2 off by {off[n, b]:.3e})"
        )
    fids = np.abs(finals @ (rows.u @ rows.psi[..., None]).conj())[..., 0] ** 2  # to U|psi>
    succeeded = fids >= 1.0 - SUCCESS_TOL
    for array in (probs, fids, succeeded, finals):
        array.setflags(write=False)
    return BatchOutcome(
        records=records,
        probability=probs,
        fidelity=fids,
        succeeded=succeeded,
        bob_final=finals,
        ledger=ledger,
        bob_qubit=bob_qubit,
    )


def _spread_amplitudes(run: _Run, alice_half: QubitId, bob_half: QubitId, data: QubitId):
    """Move Bob's amplitudes onto a shared pair: CNOT from his pair half onto
    the data qubit, measure the data qubit, send the outcome to Alice, and
    on outcome 1 both parties flip their halves. Leaves the pair in
    alpha|00> + beta|11>; Alice's flip costs one bit Bob -> Alice."""
    run.apply(CNOT, [bob_half, data])
    m = run.measure([data], "computational")
    run.apply(X, [alice_half], when=(m, 1))
    run.apply(X, [bob_half], when=(m, 1))


def _teleport(run: _Run, source: QubitId, source_half: QubitId, dest: QubitId):
    """Standard teleportation step: Bell-measure (source, source_half) and
    apply the Pauli fix-up on ``dest``, which reads the two outcome bits."""
    m = run.measure([source, source_half], "bell")
    for outcome, gate in BELL_CORRECTIONS.items():
        if gate is not None:
            run.apply(gate, [dest], when=(m, int(outcome, 2)))


# ---------------------------------------------------------------------------
# protocols
#
# Each protocol is a circuit on the comb for a promise class, which returns
# the finished run and Bob's output qubit, plus a precondition on the rows.
# The circuit runs once per promise class, to compile the protocol's
# instrument; ``run_batch`` and each ``run_*`` function contract the
# instrument with their rows.

_A1, _A2 = QubitId("alice", 0), QubitId("alice", 1)
_B1, _B2 = QubitId("bob", 0), QubitId("bob", 1)
#: The shared pairs (alice:0, bob:0) and (alice:1, bob:1). Both pairs
#: together come from the normalising constructor, not from ``tensor``,
#: which does not renormalise: the rounded 1/sqrt(2) squared is 0.5 plus
#: one ulp, and the compiled instruments start from exactly 0.5.
_ONE_PAIR = bell_phi_plus(_A1, _B1)
_TWO_PAIRS = StateVector(np.kron(_ONE_PAIR.amplitudes, _ONE_PAIR.amplitudes), (_A1, _B1, _A2, _B2))


def _bqst() -> tuple[_Run, QubitId]:
    data = QubitId("bob", 2)
    run = _Run(_TWO_PAIRS, data)
    _teleport(run, data, _B1, _A1)
    run.black_box(_A1)
    _teleport(run, _A1, _A2, _B2)
    return run, _B2


def _run_221(correct_failure: bool) -> tuple[_Run, QubitId]:
    data = QubitId("bob", 2)
    run = _Run(_TWO_PAIRS, data)
    _spread_amplitudes(run, _A1, _B1, data)
    run.black_box(_A1)
    _teleport(run, _A1, _A2, _B2)
    run.apply(H, [_B1])
    m = run.measure([_B1], "computational")
    if correct_failure:
        run.apply(Z, [_B2], when=(m, 1))
    return run, _B2


def _one11(promise: str) -> tuple[_Run, QubitId]:
    data = QubitId("bob", 1)
    run = _Run(_ONE_PAIR, data)
    _spread_amplitudes(run, _A1, _B1, data)
    run.black_box(_A1)
    run.apply(H, [_A1])
    m = run.measure([_A1], "computational")
    # Bob's fix-ups on outcomes 0 and 1: (1, sz) when commuting, (sx, sz sx) when anticommuting
    if promise == COMMUTING:
        run.apply(Z, [_B1], when=(m, 1))
    else:
        run.apply(X, [_B1], when=(m, 0))
        run.apply(ZX, [_B1], when=(m, 1))
    return run, _B1


# Each precondition returns its checks on the rows, in ``_messages``' form.


def _any_config(rows: _Rows):
    """bqst takes every rotation, with or without a promise."""
    return []


def _no_promise(rows: _Rows):
    return [(rows.promise == _NO_PROMISE, lambda n: "the universal protocol takes no promise")]


def _in_set_only(rows: _Rows):
    comm, anti = rows.norms
    return [
        (
            np.fmin(comm, anti) <= CLASS_TOL,  # not GENERAL
            lambda n: "operator is neither commuting nor anticommuting with the z axis "
            f"(commutator norm {comm[n]:.3e}, anticommutator norm {anti[n]:.3e})",
        )
    ]


def _promised(rows: _Rows):
    return [(rows.promise != _NO_PROMISE, lambda n: "the 1-1-1 protocol requires a promise")]


#: Protocol name -> (precondition on the rows, circuit for a promise class).
_CIRCUITS = {
    "bqst": (_any_config, lambda promise: _bqst()),
    "universal221": (_no_promise, lambda promise: _run_221(correct_failure=False)),
    "restricted221": (_in_set_only, lambda promise: _run_221(correct_failure=True)),
    "one11": (_promised, _one11),
}


class _Instrument(NamedTuple):
    """A protocol compiled for one promise class. Row (i, j, m) of
    ``tensor`` is every branch's output, flattened from ``shape`` (B, 2, R),
    for the black box E_ij and Bob's state |m>. A run is linear in both, so
    its output on (U, psi) is the sum of U[i, j] psi[m] times row (i, j, m)."""

    tensor: np.ndarray  # (8, B * 2 * R)
    shape: tuple[int, int, int]
    records: tuple[tuple[tuple[str, str, str], ...], ...]
    ledger: ResourceLedger
    bob_qubit: QubitId


@functools.cache
def _instrument(protocol: str, promise: str | None) -> _Instrument:
    """Compile ``protocol`` for a promise class: run its circuit once on the
    comb and read row (i, j, m) at (R_out, R_in, R_psi) = (i, j, m). A class
    spans only its own E_ij (the diagonal ones commute with sz, the others
    anticommute), so under a promise the other rows are zeroed: the part of
    U off the promised class, which the promise check admits within
    CLASS_TOL, is dropped.

    ``one11`` takes a promise, so its instrument of no promise is instead
    its two class tensors side by side, (8, 2 * B * 2 * R), commuting
    first: one contraction serves a batch of both classes."""
    if protocol == "one11" and promise is None:
        commuting, anticommuting = _instrument(protocol, COMMUTING), _instrument(protocol, ANTICOMMUTING)
        both = np.concatenate((commuting.tensor, anticommuting.tensor), axis=1)
        both.setflags(write=False)
        return commuting._replace(tensor=both)
    run, bob_qubit = _CIRCUITS[protocol][1](promise)
    axes = tuple(run._axes[q.owner, q.index] for q in (_R_OUT, _R_IN, _R_PSI, bob_qubit))
    out = np.moveaxis(run.amps.transpose(_to_front(run.amps.ndim, (0,) + axes)[0]), 0, 3)
    out = out.reshape(2, 2, 2, len(run.amps), 2, -1).copy()
    if promise is not None:
        out[np.eye(2, dtype=bool) == (promise == ANTICOMMUTING)] = 0
    tensor = out.reshape(8, -1)
    tensor.setflags(write=False)
    return _Instrument(tensor, out.shape[3:], tuple(run.records), run.ledger, bob_qubit)


def _run_rows(protocol: str, rows: _Rows) -> BatchOutcome:
    """``protocol`` on checked rows: each row's U[i, j] psi[m] contracted
    with the instrument of its promise class, then finished."""
    n_row = len(rows.psi)
    inputs = (rows.u[:, :, :, None] * rows.psi[:, None, None, :]).reshape(n_row, 8)
    inst = _instrument(protocol, None)
    amps = inputs @ inst.tensor
    if protocol == "one11":
        # One circuit for both classes, so the two share records, ledger and
        # Bob's qubit; each row keeps the half of its promised class. Each
        # half spans its class's matrices only: the part of U off the
        # promised class, which the promise check admits within CLASS_TOL,
        # is dropped.
        half = (rows.promise == _ANTICOMMUTING).astype(np.intp)
        amps = amps.reshape(n_row, 2, -1)[np.arange(n_row), half]
    return _finish(amps.reshape(n_row, *inst.shape), rows, inst.records, inst.ledger, inst.bob_qubit)


def _run_one(protocol: str, cfg: ProtocolConfig) -> list[ProtocolOutcome]:
    """One configuration, run as the one-row stack it holds."""
    with single_row:
        _refuse(_messages(_CIRCUITS[protocol][0](cfg.rows), 1))
    table = _run_rows(protocol, cfg.rows)
    return table.row(0, [_draw(table, np.random.default_rng(cfg.seed))] if cfg.mode == "sampled" else None)


def _draw(table: BatchOutcome, rng) -> int:
    """One branch of row 0, drawn down the tree a measurement at a time: each
    outcome with its probability given those before it (the weight below it)."""
    probs = table.probability[0].tolist()
    branches = list(range(len(table.records)))
    for level in range(len(table.records[0])):
        children = [list(c) for _, c in groupby(branches, lambda b: table.records[b][level])]
        weights = [sum(probs[b] for b in child) for child in children]
        branches = children[sample_index([w / sum(weights) for w in weights], rng)]
    return branches[0]


def run_batch(protocol: str, us, psis, promise=None) -> BatchOutcome:
    """Run ``protocol`` exactly on N configurations at once.

    Row n takes the rotation ``us[n]`` and Bob's state ``psis[n]``. ``us``
    is an (N, 2) complex array of (a, b) pairs or a sequence of
    ``Unimodular``; ``psis`` is an (N, 2) array or a sequence of states;
    ``promise`` is one class for every row or a sequence of N. The rows are
    checked as stacks, with every check a single run makes on its
    configuration, and an error names the first bad row.
    """
    if protocol not in _CIRCUITS:
        raise ValueError(f"unknown protocol {protocol!r}")
    return _run_rows(protocol, _rows(us, psis, promise, _CIRCUITS[protocol][0]))


def run_bqst(cfg: ProtocolConfig) -> list[ProtocolOutcome]:
    """Baseline: teleport psi to Alice, apply U locally, teleport back.

    Every branch ends with Bob holding U|psi> exactly; the ledger is
    (2 e-bits, 2 bits each way), the cost any universal scheme must beat.
    """
    return _run_one("bqst", cfg)


def run_universal_221(cfg: ProtocolConfig) -> list[ProtocolOutcome]:
    """Remote implementation of an arbitrary rotation, succeeding half the
    time, with ledger (2, 2, 1).

    Steps: spread Bob's amplitudes onto the first shared pair; Alice applies
    the black box to her half and teleports it to Bob through the second
    pair; Bob applies a Hadamard to his first qubit and measures it. Outcome
    0 leaves U|psi>; outcome 1 leaves U sz|psi>, which no fixed local
    operation can repair for arbitrary U.
    """
    return _run_one("universal221", cfg)


def run_restricted_221(cfg: ProtocolConfig) -> list[ProtocolOutcome]:
    """Same circuit as the universal protocol plus a final sz on the failed
    branch, exact for every operator commuting or anticommuting with sz.

    Works without knowing which of the two classes U belongs to. Rejects a
    general operator up front, naming the failed commutation test.
    """
    return _run_one("restricted221", cfg)


def run_111(cfg: ProtocolConfig) -> list[ProtocolOutcome]:
    """Remote implementation with the operator class promised in advance,
    exact on every branch with ledger (1, 1, 1).

    After the amplitude spread, Alice applies the black box and a Hadamard
    to her half and measures it; one bit tells Bob which fix-up to apply:
    nothing / sz under the commuting promise, sx / sz sx under the
    anticommuting one.
    """
    return _run_one("one11", cfg)


def success_probability(outcomes) -> float:
    return float(sum(o.probability for o in outcomes if o.succeeded))


# ---------------------------------------------------------------------------
# capacity demos


def _controlled_pauli_steps(c: QubitId, cp: QubitId, target: QubitId):
    """The gate applying (1, sx, sy, sz) to ``target`` for control values
    (00, 01, 10, 11), decomposed into two-qubit gates:
    cphase(pi/2) on (c, cp) after controlled-y on (c, t) after CNOT(cp, t).
    """
    return [
        (CNOT, [cp, target]),
        (controlled(sigma_y, "cy"), [c, target]),
        (controlled_phase(np.pi / 2), [c, cp]),
    ]


def demo_cp_entanglement() -> tuple[StateVector, float]:
    """Run the controlled-Pauli gate on |+>|+> (Alice) and a shared-format
    pair on Bob's side, and return the output state with its entanglement
    entropy across the Alice|Bob cut. The output holds the four Bell states
    tagged by Alice's basis states, i.e. exactly 2 e-bits."""
    c, cp = QubitId("alice", 0), QubitId("alice", 1)
    t1, t2 = QubitId("bob", 0), QubitId("bob", 1)
    state = tensor(tensor(plus_state(c), plus_state(cp)), bell_phi_plus(t1, t2))
    for gate, targets in _controlled_pauli_steps(c, cp, t1):
        state = apply_gate(state, gate, targets)
    return state, entanglement_entropy(state, [c, cp])


#: Bell outcome of Bob's pair -> two-bit message, for the capacity demo.
_CAPACITY_DECODE = {"00": "00", "10": "01", "11": "10", "01": "11"}


def demo_cp_capacity(message: str) -> str:
    """Send two classical bits through one controlled-Pauli application.

    Alice encodes the message in her control pair; the gate turns Bob's
    (|00> + |11>)/sqrt(2) into one of the four orthogonal Bell states, which
    his Bell measurement identifies uniquely.
    """
    if message not in ("00", "01", "10", "11"):
        raise ValueError(f"message must be two bits, got {message!r}")
    c, cp = QubitId("alice", 0), QubitId("alice", 1)
    t1, t2 = QubitId("bob", 0), QubitId("bob", 1)
    state = tensor(basis_state(message, (c, cp)), bell_phi_plus(t1, t2))
    for gate, targets in _controlled_pauli_steps(c, cp, t1):
        state = apply_gate(state, gate, targets)
    branches = measure(state, [t1, t2], "bell")
    top = max(branches, key=lambda b: b.probability)
    return _CAPACITY_DECODE[top.outcome]


def demo_cnot_reverse(bob_bit: int) -> int:
    """Send one classical bit from the target side of a controlled-NOT back
    to the control side: Bob's choice of |+> or |-> flips Alice's |+> to
    |->, which she reads out in the +/- basis."""
    if bob_bit not in (0, 1):
        raise ValueError(f"bob_bit must be 0 or 1, got {bob_bit!r}")
    c = QubitId("alice", 0)
    t = QubitId("bob", 0)
    bob = plus_state(t) if bob_bit == 0 else minus_state(t)
    state = tensor(plus_state(c), bob)
    state = apply_gate(state, CNOT, [c, t])
    state = apply_gate(state, H, [c])
    branches = measure(state, [c], "computational")
    top = max(branches, key=lambda b: b.probability)
    return int(top.outcome)


def ramsey_curve(thetas) -> list[tuple[float, float]]:
    """Probability of finding Bob's qubit in |+> after remotely applying a
    z rotation with accumulated phase theta to |+> through the 1-1-1
    protocol, one batch row per theta. Computed from the protocol branches,
    not from the closed form (1 + cos theta)/2 they reproduce."""
    thetas = [float(theta) for theta in thetas]
    if not thetas:
        return []
    plus = np.array([1, 1])
    table = run_batch("one11", [rz(theta / 2.0) for theta in thetas], [plus] * len(thetas), COMMUTING)
    overlap = table.bob_final @ plus_state(_B1).amplitudes.conj()
    p_plus = np.sum(table.probability * np.abs(overlap) ** 2, axis=1)
    return list(zip(thetas, p_plus.tolist()))


# ---------------------------------------------------------------------------
# serialization


def outcome_record(protocol: str, outcome: ProtocolOutcome) -> dict:
    """Machine-readable record for one branch (schema version 1)."""
    return {
        "protocol": protocol,
        "branch_id": outcome.branch_id,
        "measurement_record": [list(entry) for entry in outcome.measurement_record],
        "probability": outcome.probability,
        "fidelity": outcome.target_fidelity,
        "succeeded": outcome.succeeded,
        "ledger": dict(zip(("ebits", "cbits_ab", "cbits_ba"), outcome.ledger.as_tuple())),
    }


PROTOCOLS = {
    "bqst": run_bqst,
    "universal221": run_universal_221,
    "restricted221": run_restricted_221,
    "one11": run_111,
}
