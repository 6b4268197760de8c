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
returns the branches of all N as one ``BatchOutcome`` table. A protocol is
a ``circuits.Circuit`` per promise class (``_CIRCUITS``); a run contracts
its admitted rows with the instrument ``circuits._compile`` makes of it.

The capacity demos bound the resources from below: a gate applying a Pauli
picked by two control bits creates 2 e-bits from nothing and carries 2
classical bits toward Bob, and a plain controlled-NOT carries 1 bit back.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circuits import Apply, Circuit, Measure, ResourceLedger, Slot, _CLASSES, _Instrument, _compile, _draw, _grouped
from .gates import (
    CNOT,
    Gate,
    H,
    RowError,
    X,
    Z,
    controlled,
    controlled_phase,
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
        """Commutator and anticommutator norms of each rotation with sz. Every
        pair is finite and unimodular, or (0, 0) in place of one that fails the
        residual test, so no norm warns."""
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


def _checked(us, psis, promise, precondition) -> tuple[_Rows, list[str | None]]:
    """Stack N configurations and check each row on its own. ``promise`` is
    one value for every row or a sequence of N. Returns the rows and, for
    each row, the message of the first check it fails, or None.

    The checks, in order, each on every row: the rotation is finite and
    unimodular (``operators._pair_rows``' residual test, which a stack of
    ``Unimodular`` only skips on its construction proof); psi is one qubit's,
    finite and nonzero (``statevector._unit_qubits``, which normalises it
    unless it is a ``StateVector``); a promise (``given[n]``, coded
    ``codes[n]``, 0 for none) names a class and the rotation has it; then
    ``precondition``. Stacks whose shapes do not fit are refused."""
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
    checks = []
    if residuals is not None:  # the rows built below read a row that fails as (0, 0), so no norm warns
        given_pairs, admitted = pairs, residuals <= UNIMODULAR_TOL
        checks.append((admitted, lambda n: unimodular_error(*given_pairs[n].tolist(), residuals[n])))
        pairs = np.where(admitted[:, None], pairs, 0)
    rows = _Rows(u=unimodular_matrices(pairs), psi=unit, promise=np.array(codes, dtype=np.intp), pairs=pairs)
    checks.append(psi_check)
    if any(codes):
        comm, anti = rows.norms
        # per promise code, the norm the promised class needs within
        # CLASS_TOL (a unitary black box cannot have both within it, so the
        # anticommutator's alone decides ANTICOMMUTING); no norm meets an
        # unknown promise's inf
        promised = np.choose(rows.promise, (0.0, comm, anti, np.inf))
        checks.append((
            promised <= CLASS_TOL,
            lambda n: f"unknown promise {given[n]!r}" if codes[n] == _UNKNOWN
            else f"promise violation: operator classifies as {rows.kinds[n]}, promise says {given[n]}",
        ))
    return rows, _messages(checks + precondition(rows), n_row)


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
    return table.row(0, [_draw(_instrument(protocol, None).tree, np.random.default_rng(cfg.seed))])


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


def _controlled_pauli(controls: StateVector) -> StateVector:
    """The controlled-Pauli gate on Alice's ``controls`` (on ``_A1, _A2``)
    tensored with Bob's (|00> + |11>)/sqrt(2) on ``_B1, _B2``, targeting ``_B1``."""
    state = tensor(controls, bell_phi_plus(_B1, _B2))
    for gate, targets in _controlled_pauli_steps(_A1, _A2, _B1):
        state = apply_gate(state, gate, targets)
    return state


def demo_cp_entanglement() -> tuple[StateVector, float]:
    """Run the controlled-Pauli gate on |+>|+> (Alice) and a shared-format
    pair on Bob's side, and return the output state with its entanglement
    entropy across the Alice|Bob cut. The output holds the four Bell states
    tagged by Alice's basis states, i.e. exactly 2 e-bits."""
    state = _controlled_pauli(tensor(plus_state(_A1), plus_state(_A2)))
    return state, entanglement_entropy(state, [_A1, _A2])


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
    state = _controlled_pauli(basis_state(message, (_A1, _A2)))
    branches = measure(state, [_B1, _B2], "bell")
    top = max(branches, key=lambda b: b.probability)
    return _CAPACITY_DECODE[top.outcome]


def demo_cnot_reverse(bob_bit: int) -> int:
    """Send one classical bit from the target side of a controlled-NOT back
    to the control side: Bob's choice of |+> or |-> flips Alice's |+> to
    |->, which she reads out in the +/- basis."""
    if bob_bit not in (0, 1):
        raise ValueError(f"bob_bit must be 0 or 1, got {bob_bit!r}")
    state = tensor(plus_state(_A1), plus_state(_B1) if bob_bit == 0 else minus_state(_B1))
    state = apply_gate(state, CNOT, [_A1, _B1])
    state = apply_gate(state, H, [_A1])
    branches = measure(state, [_A1], "computational")
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
