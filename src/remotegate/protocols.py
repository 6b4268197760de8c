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
    GENERAL,
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
    FACTOR_TOL,
    NORM_TOL,
    PROB_TOL,
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


@dataclass(frozen=True, eq=False)
class ProtocolOutcome:
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
    """N checked configurations as stacks: the black boxes (N, 2, 2), Bob's
    unit states (N, 2) and each row's promise (an object array of None or
    a class)."""

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


def _refuse(checks):
    """Raise ``RowError`` for the first row that fails a check, with the
    message of the first check it fails: what checking row by row, every
    check on a row before the next row, reports. ``checks`` are pairs (rows
    that pass, message for row n), in the order one row is checked."""
    if not checks:
        return
    passed = np.logical_and.reduce([ok for ok, _ in checks])
    if not passed.all():
        row = int(np.argmin(passed))
        raise RowError(row, next(message(row) for ok, message in checks if not ok[row]))


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


def _rows(us, psis, promise, precondition) -> _Rows:
    """Stack and check N configurations. Each row gets every check, in
    order: its rotation is finite and unimodular (a ``Unimodular`` or an
    (a, b) pair) and its black box, as built, unitary; psi is one qubit's,
    finite and nonzero (and is normalised); a promise names a class the
    rotation has; then ``precondition``. ``promise`` is one value for every
    row or a sequence of N. Raises ``RowError`` for the first bad row, with
    the message of the first check it fails."""
    if not isinstance(us, np.ndarray):
        us = [(u.a, u.b) if isinstance(u, Unimodular) else u for u in us]
    pairs = np.asarray(us, dtype=complex)
    psi, one_qubit = _state_rows(psis)
    n_row = len(pairs)
    given = [promise] * n_row if promise is None or isinstance(promise, str) else list(promise)
    promises = np.array(given + [None], dtype=object)[:-1]  # strings stay entries
    if not n_row == len(psi) == len(promises):
        raise ValueError(
            f"{n_row} rotations, {len(psi)} states and {len(promises)} promises do not match"
        )
    if not n_row:
        raise ValueError("a batch needs at least one configuration")
    if pairs.shape != (n_row, 2):
        raise ValueError(f"rotations must be (a, b) pairs, got shape {pairs.shape}")
    residuals = unimodular_residuals(pairs)
    u = unimodular_matrices(pairs)
    with np.errstate(invalid="ignore", over="ignore"):  # rows that are not finite fail anyway
        unitary = np.abs(u.conj().swapaxes(1, 2) @ u - identity2).reshape(n_row, 4).max(axis=1) <= UNITARY_TOL
    unit, nonzero = unit_rows(psi, NORM_TOL)
    rows = _Rows(u=u, psi=unit, promise=promises)
    checks = [
        (residuals <= UNIMODULAR_TOL, lambda n: unimodular_error(*pairs[n].tolist(), residuals[n])),
        (unitary, lambda n: f"gate 'u' is not unitary within {UNITARY_TOL}"),
        (one_qubit, lambda n: "psi must be a single-qubit state"),
        (np.isfinite(psi).all(axis=1), lambda n: not_finite("psi", psi[n])),
        (nonzero, lambda n: "psi must be nonzero"),
    ]
    if any(p is not None for p in given):
        none = np.array([p is None for p in given])
        known = np.array([p in (COMMUTING, ANTICOMMUTING) for p in given])
        checks += [
            (none | known, lambda n: f"unknown promise {promises[n]!r}"),
            (
                none | (rows.kinds == promises),
                lambda n: f"promise violation: operator classifies as {rows.kinds[n]}, "
                f"promise says {promises[n]}",
            ),
        ]
    _refuse(checks + precondition(rows))
    rows.psi.setflags(write=False)
    return rows


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    """Inputs of a run: the black-box rotation, Bob's state, an optional
    promise about the rotation's class, and the execution mode. ``rows``
    holds the configuration as the checked one-row stack a run takes."""

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
    is the same for every branch. The arrays are indexed ``[n, b]``.
    ``live[n, b]`` is False where row n dropped branch b because its
    conditional probability fell below ``BRANCH_PRUNE``; there the
    probability, fidelity and ``bob_final`` are zero and ``succeeded`` is
    False, so sums over a row cover exactly the branches a single run keeps.
    """

    records: tuple[tuple[tuple[str, str, str], ...], ...]
    probability: np.ndarray  # (N, B)
    fidelity: np.ndarray  # (N, B), to U|psi>
    succeeded: np.ndarray  # (N, B)
    bob_final: np.ndarray  # (N, B, 2), phase-fixed unit vectors
    live: np.ndarray  # (N, B)
    ledger: ResourceLedger
    bob_qubit: QubitId

    def row(self, n: int, branches=None) -> list[ProtocolOutcome]:
        """Row n as a single run returns it: one outcome per live branch (or per one in ``branches``)."""
        kept = np.flatnonzero(self.live[n]) if branches is None else np.asarray(branches)
        finals = StateVector.from_unit_rows(self.bob_final[n, kept], (self.bob_qubit,))
        probs, fids, wins = (a[n].tolist() for a in (self.probability, self.fidelity, self.succeeded))
        outcomes = []
        for b, final in zip(kept.tolist(), finals):
            # the fields set directly: a frozen dataclass's __init__ sets each
            # through object.__setattr__, and that was most of this method's time
            outcome = object.__new__(ProtocolOutcome)
            outcome.__dict__.update(
                measurement_record=self.records[b],
                probability=probs[b],
                bob_final=final,
                target_fidelity=fids[b],
                succeeded=wins[b],
                ledger=self.ledger,
            )
            outcomes.append(outcome)
        return outcomes


@functools.cache
def _to_front(ndim: int, axes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose that moves qubit ``axes`` to positions 2, 3, ..., right
    after the row and branch axes, the others keeping their order (what
    ``np.moveaxis`` does, without its per-call cost), and its inverse."""
    perm = (0, 1) + axes + tuple(a for a in range(2, ndim) if a not in axes)
    return perm, tuple(np.argsort(perm).tolist())


def _apply_matrix(matrix: np.ndarray, axes: tuple[int, ...], amps: np.ndarray) -> np.ndarray:
    """``matrix`` on the given qubit axes of every branch of every row; a
    matrix of shape (N, 1, d, d) gives each row its own."""
    k = len(axes)
    perm, inverse = _to_front(amps.ndim, axes)
    front = amps.transpose(perm)
    n_row, n_branch = front.shape[:2]
    out = matrix @ front.reshape(n_row, n_branch, 2**k, 2 ** (front.ndim - 2 - k))
    return out.reshape(front.shape).transpose(inverse)


def _squared_norms(amps: np.ndarray) -> np.ndarray:
    """Squared norm over the last axis, with no temporary the size of ``amps``."""
    flat = np.ascontiguousarray(amps).view(float)
    return np.einsum("...i,...i->...", flat, flat)


class _Run:
    """All branches of one protocol over N configurations, held as one array.

    ``amps[n, b]`` is branch b of row n, with one axis per register qubit
    not yet measured. It is never renormalised: its squared norm is the
    branch probability, so a step that is not unitary shows in the row's
    total when the run ends. A measurement contracts its qubits with the
    basis vectors and drops them from the register (deferred measurement);
    the outcomes go onto the branch axis, parent branch first and outcome
    second, which keeps the order of the branch tree. The rows share the
    branch axis, so each measurement is logged once, as its party, basis
    and qubit count, beside its outcome on each branch; the branch records
    and the ledger's bits follow from that log.

    Each step acts for the party that owns its qubits, and a step across
    the Alice|Bob cut is refused (LOCC: local operations and classical
    communication). The ledger follows from the steps: one e-bit per shared
    pair, and in each direction the bits of every outcome one party measured
    and the other read, counted once however many steps read it.
    """

    def __init__(self, pairs: StateVector, data: QubitId, rows: _Rows):
        """Row n starts as the shared ``pairs`` and Bob's data qubit in ``rows.psi[n]``."""
        self.rows = rows
        self.ebits = len(pairs.register) // 2
        self._set_register(pairs.register + (data,))
        n_row = len(rows.psi)
        amps = pairs.amplitudes[None, :, None] * rows.psi[:, None, :]
        self.amps = amps.reshape((n_row, 1) + (2,) * len(self.register))
        self.live = np.ones((n_row, 1), dtype=bool)
        #: per measurement, its (party, basis, qubit count)
        self.log: list[tuple[str, str, int]] = []
        #: ``outcomes[b, m]``: the outcome of measurement m on branch b
        self.outcomes = np.zeros((1, 0), dtype=int)
        #: measurements whose outcome the other party read
        self.sent: set[int] = set()

    def _set_register(self, register: tuple[QubitId, ...]):
        self.register = register
        #: (owner, index) -> the qubit's axis in ``amps``
        self._axes = {(q.owner, q.index): 2 + i for i, q in enumerate(register)}

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

    def apply(self, gate, targets, when: tuple[int, int] | None = None):
        """Apply ``gate`` on every branch, or, with ``when=(m, value)``, on
        those where measurement m gave ``value``. ``gate`` is a ``Gate`` for
        all rows or an (N, 2, 2) stack holding each row's own matrix."""
        named = isinstance(gate, Gate)
        party, axes = self._locate(targets, f"gate {gate.name!r}" if named else "row-wise gate")
        if named and len(axes) != gate.qubits:
            raise ValueError(f"gate {gate.name!r} acts on {gate.qubits} qubit(s), got {len(axes)} target(s)")
        matrix = gate.matrix if named else gate[:, None]
        if when is None:
            self.amps = _apply_matrix(matrix, axes, self.amps)
        else:
            m, value = when
            if self.log[m][0] != party:  # measured by the other party
                self.sent.add(m)
            hit = self.outcomes[:, m] == value
            self.amps[:, hit] = _apply_matrix(matrix, axes, self.amps[:, hit])

    def measure(self, targets, basis: str) -> int:
        """Split every branch by the outcome of measuring ``targets``, which
        leave the register, and return the measurement's index for ``when``.

        A child whose conditional probability in row n is below
        ``BRANCH_PRUNE`` is not live in that row, and one live in no row is
        dropped.
        """
        party, axes = self._locate(targets, f"{basis} measurement")
        k = len(axes)
        vecs = _BASES.get((basis, k))
        if vecs is None:
            raise ValueError(f"cannot measure {k} qubit(s) in the {basis!r} basis")
        front = self.amps.transpose(_to_front(self.amps.ndim, axes)[0])
        (n_row, n_branch), dim, rest = front.shape[:2], 2**k, front.shape[k + 2 :]
        coeff = vecs.conj() @ front.reshape(n_row, n_branch, dim, 2 ** len(rest))
        child = _squared_norms(coeff)
        parent = child.sum(axis=2, keepdims=True)
        # child / parent < BRANCH_PRUNE, written so that a zero parent divides nothing
        live = self.live[:, :, None] & ~(child < BRANCH_PRUNE * parent)
        live = live.reshape(n_row, n_branch * dim)
        keep = live.any(axis=0)
        self.amps = coeff.reshape(n_row, n_branch * dim, *rest)
        if not keep.all():
            self.amps, live = self.amps[:, keep], live[:, keep]
        self.live = live
        self._set_register(tuple(q for i, q in enumerate(self.register, 2) if i not in axes))
        kept = np.flatnonzero(keep)  # child index: parent branch * dim + outcome
        self.outcomes = np.column_stack((self.outcomes[kept // dim], kept % dim))
        self.log.append((party, basis, k))
        return len(self.log) - 1

    def result(self, bob_qubit: QubitId) -> BatchOutcome:
        """Every branch of every row, with Bob's qubit factored out. Ends
        the run: Bob's states are normalised in place."""
        n_row, n_branch = self.amps.shape[:2]
        live = self.live
        targets = (self.rows.u @ self.rows.psi[..., None])[..., 0]
        probs = _squared_norms(self.amps.reshape(n_row, n_branch, -1))
        probs[~live] = 0.0
        totals = probs.sum(axis=1)
        bad = ~(np.abs(totals - 1.0) <= PROB_TOL)
        if bad.any():
            n = int(np.argmax(bad))
            raise InvariantViolation(
                f"branch probabilities of row {n} sum to {float(totals[n])!r}, "
                "expected 1.0: a step was not unitary"
            )
        front = self.amps.transpose(_to_front(self.amps.ndim, self._locate([bob_qubit], "result")[1])[0])
        mat = front.reshape(n_row, n_branch, 2, -1)
        norms = np.sqrt(probs)
        if mat.shape[3] == 1:
            finals = mat[..., 0]
            np.divide(finals, norms[..., None], out=finals, where=live[..., None])
        else:
            u, sing, _ = np.linalg.svd(mat, full_matrices=False)
            # second Schmidt coefficient of the normalised branch <= FACTOR_TOL
            entangled = live & ~(sing[..., 1] <= FACTOR_TOL * norms)
            if entangled.any():
                n, b = np.argwhere(entangled)[0]
                raise InvariantViolation(
                    f"qubit {bob_qubit} is entangled in row {n} (second Schmidt "
                    f"coefficient {sing[n, b, 1] / norms[n, b]:.3e})"
                )
            finals = u[..., 0]
        finals[~live] = 0.0
        # phase-fix: the larger component (the first on a tie) real and positive
        lead = np.where(np.abs(finals[..., 0]) >= np.abs(finals[..., 1]), finals[..., 0], finals[..., 1])
        size = np.abs(lead)
        np.divide(lead.conj(), size, out=lead, where=size > 0)
        finals *= lead[..., None]
        fids = np.abs(finals @ targets[..., None].conj())[..., 0] ** 2
        succeeded = live & (fids >= 1.0 - SUCCESS_TOL)
        for array in (probs, fids, succeeded, finals, live):
            array.setflags(write=False)
        sent = [self.log[m] for m in self.sent]
        a_to_b, b_to_a = (sum(k for p, _, k in sent if p == side) for side in ("alice", "bob"))
        return BatchOutcome(
            records=tuple(self.records),
            probability=probs,
            fidelity=fids,
            succeeded=succeeded,
            bob_final=finals,
            live=live,
            ledger=ResourceLedger(self.ebits, a_to_b, b_to_a),
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
# Each protocol is a circuit over a list of configurations that returns a
# BatchOutcome, plus a precondition on one configuration. ``run_batch`` runs
# a circuit on N rows; each ``run_*`` function runs it on one.

_A1, _A2 = QubitId("alice", 0), QubitId("alice", 1)
_B1, _B2 = QubitId("bob", 0), QubitId("bob", 1)
#: The shared pairs (alice:0, bob:0) and (alice:1, bob:1).
_ONE_PAIR = bell_phi_plus(_A1, _B1)
_TWO_PAIRS = tensor(_ONE_PAIR, bell_phi_plus(_A2, _B2))


def _bqst(rows: _Rows) -> BatchOutcome:
    data = QubitId("bob", 2)
    run = _Run(_TWO_PAIRS, data, rows)
    _teleport(run, data, _B1, _A1)
    run.apply(rows.u, [_A1])
    _teleport(run, _A1, _A2, _B2)
    return run.result(_B2)


def _run_221(rows: _Rows, correct_failure: bool) -> BatchOutcome:
    data = QubitId("bob", 2)
    run = _Run(_TWO_PAIRS, data, rows)
    _spread_amplitudes(run, _A1, _B1, data)
    run.apply(rows.u, [_A1])
    _teleport(run, _A1, _A2, _B2)
    run.apply(H, [_B1])
    m = run.measure([_B1], "computational")
    if correct_failure:
        run.apply(Z, [_B2], when=(m, 1))
    return run.result(_B2)


def _one11(rows: _Rows) -> BatchOutcome:
    data = QubitId("bob", 1)
    run = _Run(_ONE_PAIR, data, rows)
    _spread_amplitudes(run, _A1, _B1, data)
    run.apply(rows.u, [_A1])
    run.apply(H, [_A1])
    m = run.measure([_A1], "computational")
    # Bob's fix-up per promise: (1, sz) when commuting, (sx, sz sx) when anticommuting
    commuting = (rows.promise == COMMUTING)[:, None, None]
    run.apply(np.where(commuting, identity2, sigma_x), [_B1], when=(m, 0))
    run.apply(np.where(commuting, sigma_z, ZX.matrix), [_B1], when=(m, 1))
    return run.result(_B1)


# Each precondition returns its checks on the rows, in ``_refuse``'s form.


def _any_config(rows: _Rows):
    """bqst takes every rotation, with or without a promise."""
    return []


def _no_promise(rows: _Rows):
    return [(rows.promise == None, lambda n: "the universal protocol takes no promise")]  # noqa: E711


def _in_set_only(rows: _Rows):
    comm, anti = rows.norms
    return [
        (
            rows.kinds != GENERAL,
            lambda n: "operator is neither commuting nor anticommuting with the z axis "
            f"(commutator norm {comm[n]:.3e}, anticommutator norm {anti[n]:.3e})",
        )
    ]


def _promised(rows: _Rows):
    return [(rows.promise != None, lambda n: "the 1-1-1 protocol requires a promise")]  # noqa: E711


#: Protocol name -> (precondition on the rows, circuit over the rows).
_CIRCUITS = {
    "bqst": (_any_config, _bqst),
    "universal221": (_no_promise, lambda rows: _run_221(rows, correct_failure=False)),
    "restricted221": (_in_set_only, lambda rows: _run_221(rows, correct_failure=True)),
    "one11": (_promised, _one11),
}


def _run_one(protocol: str, cfg: ProtocolConfig) -> list[ProtocolOutcome]:
    """One configuration, run as the one-row stack it holds."""
    precondition, circuit = _CIRCUITS[protocol]
    with single_row:
        _refuse(precondition(cfg.rows))
    table = circuit(cfg.rows)
    return table.row(0, [_draw(table, np.random.default_rng(cfg.seed))] if cfg.mode == "sampled" else None)


def _draw(table: BatchOutcome, rng) -> int:
    """One branch of row 0, drawn down the tree a measurement at a time: each
    outcome with its probability given those before it (the weight below it)."""
    probs = table.probability[0].tolist()
    branches = np.flatnonzero(table.live[0]).tolist()
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
    precondition, circuit = _CIRCUITS[protocol]
    return circuit(_rows(us, psis, promise, precondition))


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
