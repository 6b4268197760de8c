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
    PAULIS,
    Gate,
    H,
    RowError,
    X,
    Z,
    controlled,
    controlled_phase,
    identity2,
    require_finite,
    require_natural,
    sigma_x,
    sigma_y,
    sigma_z,
    single_row,
)
from .operators import (
    ANTICOMMUTING,
    COMMUTING,
    Z_AXIS,
    Unimodular,
    _pair_rows,
    commutation_norms,
    kinds_from_norms,
    rz,
    unimodular_error,
    unimodular_matrices,
)
from .statevector import (
    InvariantViolation,
    QubitId,
    StateVector,
    _BASES,
    _apply_matrix,
    _exact_form,
    _root2_powers,
    _split,
    _squared_norms,
    _state,
    _unit_qubits,
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
from .tolerances import CLASS_TOL, PROB_TOL, SUCCESS_TOL, UNIMODULAR_TOL

#: Pauli fix-up on the receiving qubit, keyed by Bell outcome.
BELL_CORRECTIONS = {
    "00": None,
    "01": Z,
    "10": X,
    "11": Gate(sigma_x @ sigma_z, "xz"),
}


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
    states (N, 2), each row's promise as its code (``_PROMISES``) and the
    admitted (a, b) pairs (N, 2) the black boxes are built from."""

    u: np.ndarray
    psi: np.ndarray
    promise: np.ndarray
    pairs: np.ndarray

    @functools.cached_property
    def norms(self) -> tuple[np.ndarray, np.ndarray]:
        """Commutator and anticommutator norms of each rotation with sz."""
        return commutation_norms(self.pairs, Z_AXIS)

    @functools.cached_property
    def kinds(self) -> np.ndarray:
        """The class of each rotation against the z axis."""
        return kinds_from_norms(*self.norms)


#: The promises a row may carry, at their codes in ``_Rows.promise``; any
#: other value has the code ``_UNKNOWN``.
_PROMISES = (None, COMMUTING, ANTICOMMUTING)
_NO_PROMISE, _COMMUTING, _ANTICOMMUTING, _UNKNOWN = range(4)
_CODES = {promise: code for code, promise in enumerate(_PROMISES)}


def _promise_code(promise) -> int:
    """``promise``'s code: one dict lookup."""
    try:
        return _CODES.get(promise, _UNKNOWN)
    except TypeError:  # unhashable, such as a list: no promise
        return _UNKNOWN


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


def _class_checks(rows: _Rows, given, codes, precondition) -> list:
    """The checks on a row's class, in ``_messages``' form and in order: a
    promise names a class (``given[n]`` is row n's as given, ``codes[n]``
    its code, ``_NO_PROMISE`` (0) where none is given) and the rotation has
    it; then ``precondition``. They are taken on every row, also one whose
    values fail, whose value message comes first."""
    checks = precondition(rows)
    if any(codes):
        comm, anti = rows.norms
        # per promise code, the norm the promised class needs within
        # CLASS_TOL (a unitary black box cannot have both within it, so the
        # anticommutator's alone decides ANTICOMMUTING); no norm meets an
        # unknown promise's inf
        promised = np.choose(rows.promise, (0.0, comm, anti, np.inf))
        checks.insert(0, (
            promised <= CLASS_TOL,
            lambda n: f"unknown promise {given[n]!r}" if codes[n] == _UNKNOWN
            else f"promise violation: operator classifies as {rows.kinds[n]}, promise says {given[n]}",
        ))
    return checks


def _checked(us, psis, promise, precondition) -> tuple[_Rows, list[str | None]]:
    """Stack N configurations and check each row on its own. ``promise`` is
    one value for every row or a sequence of N. Returns the rows and, for
    each row, the message of the first check it fails, or None.

    The checks on a row's values come first, in order: the rotation is
    finite and unimodular (``operators._pair_rows``' residual test, which a
    stack of ``Unimodular`` only skips on its construction proof); psi is one
    qubit's, finite and nonzero (``statevector._unit_qubits``, which
    normalises it). ``_class_checks`` follow, in the same pass over every
    row. Stacks whose shapes do not fit are refused."""
    pairs, residuals = _pair_rows(us)
    unit, psi_check = _unit_qubits(psis)
    n_row = len(pairs)
    if promise is None or isinstance(promise, str):
        given, codes = [promise] * n_row, [_promise_code(promise)] * n_row
    else:
        given = promise.tolist() if isinstance(promise, np.ndarray) else list(promise)
        codes = list(map(_promise_code, given))
    if not n_row == len(unit) == len(given):
        raise ValueError(f"{n_row} rotations, {len(unit)} states and {len(given)} promises do not match")
    if not n_row:
        raise ValueError("a batch needs at least one configuration")
    if pairs.shape != (n_row, 2):
        raise ValueError(f"rotations must be (a, b) pairs, got shape {pairs.shape}")
    rows = _Rows(u=unimodular_matrices(pairs), psi=unit, promise=np.array(codes, dtype=np.intp), pairs=pairs)
    if residuals is None:
        return rows, _messages([psi_check, *_class_checks(rows, given, codes, precondition)], n_row)
    with np.errstate(invalid="ignore", over="ignore"):  # a row that is not finite fails a value check first,
        # so its class norms, taken quietly here, are never read
        checks = _class_checks(rows, given, codes, precondition)
        # one reduction per check decides for the whole stack
        if not (residuals.max() <= UNIMODULAR_TOL and psi_check[0].all()):
            checks[:0] = [
                (residuals <= UNIMODULAR_TOL, lambda n: unimodular_error(*pairs[n].tolist(), residuals[n])),
                psi_check,
            ]
        return rows, _messages(checks, n_row)


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
    if protocol not in _PRECONDITIONS:
        raise ValueError(f"unknown protocol {protocol!r}")
    return _checked(us, psis, promise, _PRECONDITIONS[protocol])[1]


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    """Inputs of a run: the black-box rotation, Bob's state, an optional
    promise about the rotation's class, and the execution mode. ``rows``
    holds the checked one-row stack a run takes: a ``Unimodular`` is admitted
    on its construction proof, an (a, b) pair on the residual test that proof
    takes, and kept as one."""

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
            require_natural("seed", self.seed)
        if not isinstance(self.u, Unimodular):
            object.__setattr__(self, "u", Unimodular(*rows.u[0, 0].tolist()))
        object.__setattr__(self, "psi", rows.psi[0])
        object.__setattr__(self, "rows", rows)


# ---------------------------------------------------------------------------
# branch tensor


@dataclass(frozen=True, eq=False)
class BatchOutcome:
    """Every branch of one protocol run over N configurations (rows).

    Branch b has the same measurement record in every row, and the ledger
    is the same for every branch. Branches whose outputs are equal up to
    sign share one finished output: branch b's is output ``group[b]`` of
    the D distinct ones, whose arrays are indexed ``[n, d]``. The branch
    arrays ``probability``, ``succeeded`` and ``bob_final``, indexed
    ``[n, b]``, are spread from them on first access, read-only; every row
    has every branch.
    """

    records: tuple[tuple[tuple[str, str, str], ...], ...]
    group: tuple[int, ...]  # (B,), branch b -> its distinct output
    distinct_probability: np.ndarray  # (N, D), of each branch of the output
    distinct_fidelity: np.ndarray  # (N, D), to U|psi> / |U|psi>|
    distinct_succeeded: np.ndarray  # (N, D)
    distinct_final: np.ndarray  # (N, D, 2), phase-fixed unit vectors
    ledger: ResourceLedger
    bob_qubit: QubitId

    def _spread(self, distinct: np.ndarray) -> np.ndarray:
        branches = distinct.take(self.group, axis=1)
        branches.setflags(write=False)
        return branches

    @functools.cached_property
    def probability(self) -> np.ndarray:  # (N, B)
        return self._spread(self.distinct_probability)

    @functools.cached_property
    def succeeded(self) -> np.ndarray:  # (N, B)
        return self._spread(self.distinct_succeeded)

    @functools.cached_property
    def bob_final(self) -> np.ndarray:  # (N, B, 2)
        return self._spread(self.distinct_final)

    def row(self, n: int, branches=None) -> list[ProtocolOutcome]:
        """Row n as a single run returns it: one outcome per branch (or per one in ``branches``).
        Each state is a read-only view of ``distinct_final``, unit by the compile's
        frame fit (``_compile``) and built unchecked by ``statevector._state``, one per
        distinct output picked, which its branches share; the branch arrays are not built."""
        register, ledger, records, group = (self.bob_qubit,), self.ledger, self.records, self.group
        probs, fids, wins, finals = (self.distinct_probability[n].tolist(), self.distinct_fidelity[n].tolist(),
                                     self.distinct_succeeded[n].tolist(), self.distinct_final[n])
        new_outcome = tuple.__new__  # skips the named tuple's Python-level __new__
        states = [None] * len(probs)
        outcomes = []
        for b in range(len(group)) if branches is None else branches:
            d = group[b]
            final = states[d]
            if final is None:
                final = states[d] = _state(finals[d], register)
            outcomes.append(new_outcome(ProtocolOutcome, (records[b], probs[d], final, fids[d], wins[d], ledger)))
        return outcomes


_SWAP = Gate(np.eye(4)[[0, 2, 1, 3]], "swap")
#: The references of the protocol as a one-slot quantum comb (Chiribella,
#: D'Ariano and Perinotti, PRL 101, 060401, 2008): Bob's R_psi, paired with
#: his data qubit, and Alice's R_in and R_out, wired to the black box's slot.
#: At (R_out, R_in, R_psi) = (i, j, m) a run holds the protocol's output for
#: the box E_ij = |i><j| and Bob's state |m>.
_R_PSI, _R_IN, _R_OUT = QubitId("bob", 3), QubitId("alice", 2), QubitId("alice", 3)


# ---------------------------------------------------------------------------
# circuits as data, in the manner of OpenQASM 3's classically conditioned
# gates (Cross et al., ACM Trans. Quantum Comput. 3, 12, 2022)


class Apply(NamedTuple):
    """``gate`` on ``targets``, or, with ``when=(measure, value)``, on the
    branches where the earlier ``Measure`` step ``measure`` gave ``value``."""

    gate: Gate
    targets: tuple[QubitId, ...]
    when: tuple[Measure, int] | None = None

    def __str__(self):
        return f"gate {self.gate.name!r} on ({', '.join(map(str, self.targets))})"


class Measure(NamedTuple):
    """Measure ``targets``, which leave the register, in ``basis``: no
    circuit measures the same qubits twice, so the step names itself."""

    targets: tuple[QubitId, ...]
    basis: str

    def __str__(self):
        return f"{self.basis} measurement on ({', '.join(map(str, self.targets))})"


class Slot(NamedTuple):
    """Alice's black box on ``qubit``."""

    qubit: QubitId


class Circuit(NamedTuple):
    """A protocol for one promise class: the shared ``pairs``, Bob's
    ``data`` qubit that holds psi, the ``steps`` and Bob's ``output`` qubit.
    The compile plays it exactly, so its pairs and gates need exact forms
    (``_exact_form``): stabilizer states and Clifford gates have them."""

    pairs: StateVector
    data: QubitId
    steps: tuple[Apply | Measure | Slot, ...]
    output: QubitId


class _Plan(NamedTuple):
    """A circuit resolved by ``_plan``: the pairs (an axis per qubit), gates
    and bases as exact forms (k, e), targets as axes, each ``when`` as
    (measurement index, value) and each ``Slot`` as two gates; the final axes
    of (R_out, R_in, R_psi, output); the outcome labels; and the ledger."""

    pairs: tuple[np.ndarray, int]
    steps: tuple[Apply | Measure, ...]
    readout: tuple[int, ...]
    labels: tuple[tuple[tuple[str, str, str], ...], ...]
    ledger: ResourceLedger


def _expand(steps):
    """The steps with each ``Slot`` as the comb's slot: a SWAP moves its
    qubit's state to R_in, and a CNOT gives the qubit R_out's."""
    for step in steps:
        yield from (Apply(_SWAP, (step.qubit, _R_IN)), Apply(CNOT, (_R_OUT, step.qubit))) if type(step) is Slot else (step,)


def _plan(circuit: Circuit) -> _Plan:
    """Resolve ``circuit`` on the comb before any amplitude is touched. Each
    step acts for the party that owns its qubits, and a step across the
    Alice|Bob cut is refused (LOCC: local operations and classical
    communication), as are a target not in the register or repeated, a
    wrong gate arity or basis size, a ``when`` that names no earlier
    measurement or a value outside its outcomes, and any qubit left
    unmeasured but the output and the comb's references, and pairs or a
    gate with no exact form. Each measurement is logged once, as its party,
    basis and qubit count; the outcome labels and the ledger follow from
    that log: one e-bit per shared pair, and in each direction the bits of
    every outcome one party measured and the other read, once however many
    steps read it."""
    shared = circuit.pairs
    register = list(shared.register + (circuit.data, _R_PSI, _R_IN, _R_OUT))
    pairs = _exact_form(shared.amplitudes.reshape((2,) * shared.n), f"the pairs on {', '.join(map(str, shared.register))}")

    def locate(qubits) -> tuple[int, ...]:  # qubit axes count from 1
        for q in qubits:
            if q not in register:
                raise ValueError(f"qubit {q} not in register")
        return tuple(1 + register.index(q) for q in qubits)

    steps, log, measured, sent = [], [], {}, set()
    for step in _expand(circuit.steps):
        if len(set(step.targets)) != len(step.targets):
            raise ValueError("duplicate targets")
        axes, owners = locate(step.targets), {q.owner for q in step.targets}
        if len(owners) > 1:
            raise ValueError(f"{step} crosses the Alice|Bob cut")
        party = owners.pop() if owners else None
        if type(step) is Measure:
            if (step.basis, len(axes)) not in _BASES:
                raise ValueError(f"{step}: cannot measure {len(axes)} qubit(s) in the {step.basis!r} basis")
            measured[step] = len(log)
            log.append((party, step.basis, len(axes)))
            steps.append(Measure(axes, _exact_form(_BASES[step.basis, len(axes)], step)))
            register = [q for q in register if q not in step.targets]
            continue
        if len(axes) != step.gate.qubits:
            raise ValueError(f"gate {step.gate.name!r} acts on {step.gate.qubits} qubit(s), got {len(axes)} target(s)")
        when = step.when
        if when is not None:
            if when[0] not in measured:
                raise ValueError(f"{step} reads the {when[0]}, which is not earlier in the circuit")
            m = measured[when[0]]
            if when[1] not in range(2 ** log[m][2]):
                raise ValueError(f"{step} reads outcome {when[1]!r} of the {when[0]}, which has {2 ** log[m][2]} outcomes")
            when = (m, when[1])
            if log[m][0] != party:  # measured by the other party
                sent.add(m)
        steps.append(Apply(_exact_form(step.gate.matrix, step), axes, when))
    readout = locate((_R_OUT, _R_IN, _R_PSI, circuit.output))
    left = [q for q in register if q not in (circuit.output, _R_PSI, _R_IN, _R_OUT)]
    if left:
        raise ValueError(f"unmeasured qubit(s) {', '.join(map(str, left))}: a circuit measures every qubit but its output")
    labels = tuple(tuple((party, basis, format(o, f"0{k}b")) for o in range(2**k)) for party, basis, k in log)
    a_to_b, b_to_a = (sum(log[m][2] for m in sent if log[m][0] == side) for side in ("alice", "bob"))
    return _Plan(pairs, tuple(steps), readout, labels, ResourceLedger(shared.n // 2, a_to_b, b_to_a))


def _play(plan: _Plan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All branches of ``plan`` on the integer grid: ``amps[b]``, branch b's
    Gaussian integers over sqrt(2)**powers[b], with one axis per register
    qubit not yet measured, and ``outcomes[b, m]``, the outcome of
    measurement m on branch b. ``amps`` starts as the pairs beside three
    references at 1 on their basis states: |00> + |11> on (data, R_psi), |0>
    on R_in and |0> + |1> on R_out; each step adds its e to the branches it
    acts on. A measurement contracts its qubits with the unnormalised bras,
    drops them and keeps each child that is not zero; the outcomes go onto
    the branch axis, parent branch first and outcome second, which keeps
    the order of the branch tree."""
    pairs, power = plan.pairs
    references = np.kron(np.kron([1, 0, 0, 1], [1, 0]), [1, 1]).reshape(2, 2, 2, 2)
    amps, powers = np.multiply.outer(pairs, references)[None], np.full(1, power)
    outcomes = np.zeros((1, 0), dtype=int)
    for step in plan.steps:
        if type(step) is Measure:
            bras, e = step.basis
            children, norms = _split(amps, step.targets, bras)
            parents, outcome = np.nonzero(norms)  # a sum of squared integers is 0 only for a zero child
            amps, powers = children[parents, outcome], powers[parents] + e
            outcomes = np.column_stack((outcomes[parents], outcome))
        else:
            matrix, e = step.gate
            hit = slice(None) if step.when is None else outcomes[:, step.when[0]] == step.when[1]
            amps[hit] = _apply_matrix(matrix, step.targets, amps[hit])
            powers[hit] += e
    return amps, powers, outcomes


def _finish(amps, rows: _Rows, inst: _Instrument) -> BatchOutcome:
    """The table of ``rows`` from ``amps[n, d]``, Bob's unnormalised output
    on row n for the branches of group d of ``inst``, each of which gives
    it up to sign. The compile fixed each branch's map as c V U W
    (``_compile``); the one check left reads the run's own amplitudes:
    each row's probabilities, each distinct one times its branch count, sum
    within ``PROB_TOL`` to 1 or to the row's own |a|^2 + |b|^2, read from
    its admitted pair, or a step was not unitary and the first such row is
    named. Normalises and phase-fixes Bob's states in ``amps`` in place."""
    probs = _squared_norms(amps)
    totals = probs.dot(inst.counts)
    # x - 1 rounds monotonically in x, so the two ends decide every |x - 1|; a NaN fails
    if not (totals.max() - 1.0 <= PROB_TOL and 1.0 - totals.min() <= PROB_TOL):
        # the frames make a row's total |a|^2 + |b|^2, which admission lets be off 1 by UNIMODULAR_TOL
        own = _squared_norms(rows.pairs)
        bad = ~(np.abs(totals - 1.0) <= PROB_TOL) & ~(np.abs(totals - own) <= PROB_TOL)
        if bad.any():
            n = int(np.argmax(bad))
            message = (f"branch probabilities of row {n} sum to {float(totals[n])!r}, "
                       f"expected {float(own[n])!r}: a step was not unitary")
            raise InvariantViolation(message)
    finals = np.divide(amps, np.sqrt(probs)[..., None], out=amps)
    # phase-fix: the larger component (the first on a tie) real and positive
    lead = np.where(np.abs(finals[..., 0]) >= np.abs(finals[..., 1]), finals[..., 0], finals[..., 1])
    np.divide(lead.conj(), np.abs(lead), out=lead)
    finals *= lead[..., None]
    fids = np.abs(finals @ (rows.u @ rows.psi[..., None]).conj())[..., 0] ** 2
    fids /= totals[:, None]  # to U|psi> / |U|psi>|: the frames make a row's total |U|psi>|^2
    np.minimum(fids, 1.0, out=fids)  # both vectors are unit only to rounding
    succeeded = fids >= 1.0 - SUCCESS_TOL
    for array in (probs, fids, succeeded, finals):
        array.setflags(write=False)
    return BatchOutcome(inst.records, inst.group, probs, fids, succeeded, finals, inst.ledger, inst.bob_qubit)


def _spread_amplitudes(alice_half: QubitId, bob_half: QubitId, data: QubitId) -> tuple[Apply | Measure, ...]:
    """Move Bob's amplitudes onto a shared pair: CNOT from his pair half onto
    the data qubit, measure the data qubit, send the outcome to Alice, and
    on outcome 1 both parties flip their halves. Leaves the pair in
    alpha|00> + beta|11>; Alice's flip costs one bit Bob -> Alice."""
    m = Measure((data,), "computational")
    # Bob's X is the paper's spreading: in the 221 circuits a branch phase that _finish's phase fix removes; one11 needs it
    return (Apply(CNOT, (bob_half, data)), m, Apply(X, (alice_half,), (m, 1)), Apply(X, (bob_half,), (m, 1)))


def _teleport(source: QubitId, source_half: QubitId, dest: QubitId) -> tuple[Apply | Measure, ...]:
    """Standard teleportation step: Bell-measure (source, source_half) and
    apply the Pauli fix-up on ``dest``, which reads the two outcome bits."""
    m = Measure((source, source_half), "bell")
    fixups = (Apply(gate, (dest,), (m, int(outcome, 2))) for outcome, gate in BELL_CORRECTIONS.items() if gate is not None)
    return (m, *fixups)


# ---------------------------------------------------------------------------
# protocols: a circuit per promise class, compiled once to an instrument
# that ``run_batch`` and each ``run_*`` function contract with their rows

_A1, _A2 = QubitId("alice", 0), QubitId("alice", 1)
_B1, _B2 = QubitId("bob", 0), QubitId("bob", 1)
#: The shared pairs (alice:0, bob:0) and (alice:1, bob:1), normalised from
#: integers, so that their amplitudes, 1/sqrt(2) and 1/2, have exact forms.
_ONE_PAIR = StateVector([1, 0, 0, 1], (_A1, _B1))
_TWO_PAIRS = StateVector(np.kron([1, 0, 0, 1], [1, 0, 0, 1]), (_A1, _B1, _A2, _B2))
#: Bob's data qubit beside one pair and beside two.
_DATA1, _DATA2 = QubitId("bob", 1), QubitId("bob", 2)

#: Bob's measurement of his first pair half, the last step of universal221.
_BOB_HALF = Measure((_B1,), "computational")
_UNIVERSAL = (*_spread_amplitudes(_A1, _B1, _DATA2), Slot(_A1), *_teleport(_A1, _A2, _B2), Apply(H, (_B1,)), _BOB_HALF)
#: Alice's measurement of her pair half, whose outcome picks Bob's one11 fix-up.
_ALICE_HALF = Measure((_A1,), "computational")
_ONE11 = (*_spread_amplitudes(_A1, _B1, _DATA1), Slot(_A1), Apply(H, (_A1,)), _ALICE_HALF)
#: Bob's sz on Alice's outcome 1, one11's fix-up under either promise.
_ONE11_FIXUP = Apply(Z, (_B1,), (_ALICE_HALF, 1))

#: (protocol, promise class) -> its circuit. one11's class picks Bob's
#: fix-ups on outcomes 0 and 1: (1, sz) when commuting, (sx, sz sx) when
#: anticommuting, the commuting circuit after a sx Bob applies because he
#: knows the class; the other protocols have one circuit, under no promise.
_CIRCUITS = {
    ("bqst", None): Circuit(_TWO_PAIRS, _DATA2, (*_teleport(_DATA2, _B1, _A1), Slot(_A1), *_teleport(_A1, _A2, _B2)), _B2),
    ("universal221", None): Circuit(_TWO_PAIRS, _DATA2, _UNIVERSAL, _B2),
    ("restricted221", None): Circuit(_TWO_PAIRS, _DATA2, (*_UNIVERSAL, Apply(Z, (_B2,), (_BOB_HALF, 1))), _B2),
    ("one11", COMMUTING): Circuit(_ONE_PAIR, _DATA1, (*_ONE11, _ONE11_FIXUP), _B1),
    ("one11", ANTICOMMUTING): Circuit(_ONE_PAIR, _DATA1, (*_ONE11, Apply(X, (_B1,)), _ONE11_FIXUP), _B1),
}


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


#: Protocol name -> its precondition, which returns its checks on the rows in ``_messages``' form.
_PRECONDITIONS = {"bqst": _any_config, "universal221": _no_promise, "restricted221": _in_set_only, "one11": _promised}


class _Node(NamedTuple):
    """One measurement's outcomes below a record prefix: child k has the
    conditional weight ``weights[k]`` and is ``children[k]``, the node of
    the next measurement or, below the last one, a branch index."""

    weights: tuple[float, ...]
    children: tuple[_Node | int, ...]


class _Instrument(NamedTuple):
    """A protocol compiled for one promise class. Row (i, j, m) of
    ``tensor`` is every branch's output, flattened from (B, 2), for the
    black box E_ij and Bob's state |m>. A run is linear in both, so its
    output on (U, psi) is the sum of U[i, j] psi[m] times row (i, j, m).
    Branch b maps the black box as c_b V_b E W_b, with (V_b, W_b) =
    ``frames[b]`` as indices into (1, sx, sy, sz) and ``weights[b]`` =
    |c_b|^2 exactly. Branch b's group is ``group[b]``, and group d has
    ``counts[d]`` branches, the first of them ``reps[d]``. ``tree`` is the
    branch tree that a sampled run draws down (``_draw_tree``)."""

    tensor: np.ndarray  # (8, B * 2)
    records: tuple[tuple[tuple[str, str, str], ...], ...]
    frames: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    ledger: ResourceLedger
    bob_qubit: QubitId
    group: tuple[int, ...]
    reps: tuple[int, ...]
    counts: tuple[int, ...]
    tree: _Node | int


#: Per promise class, the E_ij it spans.
_CLASSES = {None: np.ones((2, 2), dtype=bool), COMMUTING: np.eye(2, dtype=bool), ANTICOMMUTING: ~np.eye(2, dtype=bool)}
#: The 16 ordered Pauli pairs (V, W), pair 4 v + w for V and W the v-th and
#: w-th of (1, sx, sy, sz), as maps of the black box:
#: _FRAMES[p, i, j, o, m] = (V E_ij W)[o, m] = V[o, i] W[j, m].
_FRAMES = np.einsum("voi,wjm->vwijom", (identity2, *PAULIS), (identity2, *PAULIS)).reshape(16, 2, 2, 2, 2)


def _grouped(keys) -> dict[str, tuple[int, ...]]:
    """``_Instrument``'s ``group``, ``reps`` and ``counts`` for branches
    whose ``keys`` are equal within a group, numbered in the order of their
    first branch."""
    first = {}
    group = [first.setdefault(key, len(first)) for key in keys]
    return {"group": tuple(group), "reps": tuple(map(group.index, range(len(first)))),
            "counts": tuple(map(group.count, range(len(first))))}


def _draw_tree(records, weights, branches=None, level=0) -> _Node | int:
    """The tree of ``branches`` (all by default) by their outcomes from
    measurement ``level`` on, read off the ``records`` and exact
    ``weights`` alone, with no amplitudes. ``_play`` keeps the branches of
    one record prefix together, parent first and outcome second, so each
    node's children are runs of equal outcomes, in that order, and the
    leaves come in branch order. A child's conditional weight is its
    branches' weight over its parent's; on the table circuits these are
    exact dyadics, 1/2 or 1/4, that sum to exactly 1."""
    branches = range(len(records)) if branches is None else branches
    if level == len(records[0]):
        (branch,) = branches
        return branch
    children = [list(child) for _, child in groupby(branches, lambda b: records[b][level])]
    masses = [sum(weights[b] for b in child) for child in children]
    total = sum(masses)
    return _Node(tuple(mass / total for mass in masses),
                 tuple(_draw_tree(records, weights, child, level + 1) for child in children))


def _compile(circuit: Circuit, promise: str | None, where: str) -> _Instrument:
    """Compile ``circuit`` for a promise class: play it once on the comb, on
    the integer grid (``_play``), and read branch b's map K_b(E_ij) of Bob's
    |m> at (R_out, R_in, R_psi) = (i, j, m), on the E_ij the class spans (the
    diagonal ones commute with sz, the others anticommute). Each branch must
    be c_b V_b E W_b there (Gottesman and Chuang, Nature 402, 390, 1999):
    (V_b, W_b) is the first of the 16 ordered Pauli pairs that fits by
    equality, c_b read off the class's first E_ij, where V E W has one unit
    entry, as a Gaussian integer over sqrt(2)**e_b. The weights |c_b|^2
    2^-e_b must sum to exactly 1, and none may be 0; a refusal names the
    circuit as ``where``. The tensor is the played grid over sqrt(2)**e_b,
    its rows off the class zero, so a run contracts with what was
    certified. Branches with the same frame and c_b up to sign give the
    same output up to sign on every row, and form a group. Not cached:
    ``_instrument`` caches the protocols' circuits."""
    plan = _plan(circuit)
    amps, powers, outcomes = _play(plan)
    records = tuple(tuple(plan.labels[m][o] for m, o in enumerate(branch)) for branch in outcomes.tolist())
    names = ["/".join(outcome for _, _, outcome in record) for record in records]
    span = _CLASSES[promise]
    r_out, r_in, r_psi, output = plan.readout
    # maps[b, s, o, m] and models[p, s, o, m]: branch b's and pair p's output o for |m> and the class's s-th E_ij
    maps, models = amps.transpose(0, r_out, r_in, output, r_psi)[:, span], _FRAMES[:, span]
    c = np.einsum("pom,bom->bp", models[:, 0].conj(), maps[:, 0])  # one unit times an integer
    fits = (maps[:, None] == c[..., None, None, None] * models[None]).all(axis=(2, 3, 4))
    b = int(np.argmin(fits.any(axis=1)))  # the first branch no pair fits, or 0
    if not fits[b].any():
        off = np.abs(maps[b] - c[b, :, None, None, None] * models).max(axis=(1, 2, 3)).min() / _root2_powers(powers[b])
        raise InvariantViolation(f"{where} branch {names[b]} does not map the black box U as c V U W "
                                 f"with V and W Paulis (off by {off:.3e})")
    frames = fits.argmax(axis=1)
    c = c[np.arange(len(c)), frames]
    weights = np.ldexp((c.conj() * c).real, -powers)  # |c_b|^2 2^-e_b, exact for Gaussian integers c_b
    if weights.sum() != 1.0:
        total = float(weights.sum())
        raise InvariantViolation(f"{where} branch weights sum to {total!r}, expected 1.0: a step was not unitary")
    b = int(np.argmin(weights))
    if weights[b] == 0:
        raise InvariantViolation(f"{where} branch {names[b]} has weight 0 on its class")
    scales = _root2_powers(powers)
    tensor = (amps / scales[:, None, None, None, None]).transpose(r_out, r_in, r_psi, 0, output)  # [i, j, m, b, o]
    tensor[~span] = 0
    tensor = tensor.reshape(8, -1)
    tensor.setflags(write=False)
    keys = zip(frames.tolist(), (frozenset((x, -x)) for x in (c / scales).tolist()))  # c_b up to sign
    weights = tuple(weights.tolist())
    return _Instrument(tensor, records, tuple(divmod(p, 4) for p in frames.tolist()), weights,
                       plan.ledger, circuit.output, **_grouped(keys), tree=_draw_tree(records, weights))


@functools.cache
def _instrument(protocol: str, promise: str | None) -> _Instrument:
    """``protocol``'s circuit for a promise class, compiled once. A protocol
    with a circuit per class (``one11``) has, under no promise, the sum of
    its class tensors, which lie on disjoint rows and share records, frames,
    weights and draw tree, grouped on its pairs of class groups."""
    if promise is None and (protocol, None) not in _CIRCUITS:
        commuting, anticommuting = _instrument(protocol, COMMUTING), _instrument(protocol, ANTICOMMUTING)
        both = commuting.tensor + anticommuting.tensor
        both.setflags(write=False)
        return commuting._replace(tensor=both, **_grouped(zip(commuting.group, anticommuting.group)))
    return _compile(_CIRCUITS[protocol, promise], promise, protocol if promise is None else f"{protocol} ({promise})")


#: Per promise code, the inputs (i, j, m), flattened, off its class: the
#: off-diagonal E_ij when commuting, the diagonal ones when anticommuting.
_OFF_CLASS = np.repeat([~_CLASSES[p].reshape(4) for p in _PROMISES + (None,)], 2, axis=1)


def _run_rows(protocol: str, rows: _Rows) -> BatchOutcome:
    """``protocol`` on checked rows: each row's U[i, j] psi[m] contracted
    with the protocol's whole instrument, as one product whatever the
    groups, then each group's first branch finished."""
    n_row = len(rows.psi)
    inputs = (rows.u[:, :, :, None] * rows.psi[:, None, None, :]).reshape(n_row, 8)
    inst = _instrument(protocol, None)
    if (protocol, None) not in _CIRCUITS:
        # one11: each row keeps the inputs of its promised class; the part of
        # U off it, which the promise check admits within CLASS_TOL, is dropped
        inputs[_OFF_CLASS[rows.promise]] = 0
    amps = (inputs @ inst.tensor).reshape(n_row, len(inst.records), 2)
    return _finish(amps.take(inst.reps, axis=1), rows, inst)


def _run_one(protocol: str, cfg: ProtocolConfig) -> list[ProtocolOutcome]:
    """One configuration, run as the one-row stack it holds. In sampled
    mode one branch is drawn, after ``_run_rows``' row-sum test, down the
    instrument's draw tree: one ``sample_index`` per measurement from a
    generator seeded with ``cfg.seed``, on the compiled weights. The draw
    is exact: on an admitted row each branch's probability is its weight
    times one factor common to the row (|a|^2 + |b|^2, or for one11 the
    norm of the kept class), so the row's float probabilities, walked the
    same way, pick another branch only within rounding of a boundary. The
    branch returned carries the row's own probability and fidelity."""
    with single_row:
        _refuse(_messages(_PRECONDITIONS[protocol](cfg.rows), 1))
    table = _run_rows(protocol, cfg.rows)
    if cfg.mode == "exact":
        return table.row(0)
    rng, node = np.random.default_rng(cfg.seed), _instrument(protocol, None).tree
    while type(node) is _Node:
        node = node.children[sample_index(node.weights, rng)]
    return table.row(0, [node])


def run_batch(protocol: str, us, psis, promise=None) -> BatchOutcome:
    """Run ``protocol`` exactly on N configurations at once.

    Row n takes the rotation ``us[n]`` and Bob's state ``psis[n]``. ``us``
    is an (N, 2) complex array of (a, b) pairs or a sequence of
    ``Unimodular``; ``psis`` is an (N, 2) array or a sequence of states;
    ``promise`` is one class for every row or a sequence of N. The rows are
    checked as stacks, with every check a single run makes on its
    configuration, and an error names the first bad row.
    """
    if protocol not in _PRECONDITIONS:
        raise ValueError(f"unknown protocol {protocol!r}")
    return _run_rows(protocol, _rows(us, psis, promise, _PRECONDITIONS[protocol]))


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
    require_finite("theta", thetas)
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
