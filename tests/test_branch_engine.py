"""The batched branch-tensor engine against the per-branch engine it replaced.

``ReferenceRun`` plays the same ``Circuit`` values as the engine, a step at
a time. It keeps one ``StateVector`` per branch of a single configuration,
its post-state as ``measure`` gives it (the projected amplitudes divided by
the square root of the branch's probability; no kernel renormalises),
drives ``apply_gate``, ``measure`` and ``factor_qubit`` one branch at a
time, draws a branch with ``sample_index`` and counts its own ledger. Its
``Slot`` applies the configuration's real ``Gate(U)`` where the engine's is
the comb's slot; the compiled runs (``run_*`` and ``run_batch``) are
compared with it row by row. In sampled mode it draws one branch per measurement as it goes, where
the engine draws a path down its instrument's tree of exact weights after the run.
"""

import math
import re
import tracemalloc
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from remotegate import (
    ANTICOMMUTING,
    COMMUTING,
    PROTOCOLS,
    InvariantViolation,
    ProtocolConfig,
    QubitId,
    ResourceLedger,
    StateVector,
    Unimodular,
    apply_gate,
    basis_state,
    bell_phi_plus,
    factor_qubit,
    measure,
    protocols,
    qubit_state,
    random_qubit,
    random_unimodular,
    rz,
    tensor,
    tolerances,
)
from remotegate import gates, operators, statevector, verify
from remotegate.gates import CNOT, Gate, H, RowError, X, Z
from remotegate.protocols import Apply, Circuit, Measure, Slot
from remotegate.statevector import _split, sample_index

ORACLE_TOL = 1e-12


@dataclass
class _Branch:
    state: StateVector
    probability: float
    record: tuple[tuple[str, str, str], ...]


class ReferenceRun:
    """Per-branch engine for one configuration: a list of branch states,
    each as the kernels return it. Its ledger holds one e-bit per pair and
    the bits of each outcome that a party other than the one who measured
    it reads."""

    def __init__(self, circuit: Circuit, cfg: ProtocolConfig, seed=None):
        """Play ``circuit`` with Bob's data qubit in ``cfg.psi`` beside its
        pairs; with a ``seed``, one branch drawn per measurement."""
        self.u, self.psi, self.output = Gate(cfg.u.matrix, "u"), cfg.psi, circuit.output
        state = tensor(circuit.pairs, qubit_state(self.psi[0], self.psi[1], circuit.data))
        self.branches = [_Branch(state, 1.0, ())]
        self.rng = None if seed is None else np.random.default_rng(seed)
        self.pairs = circuit.pairs.n // 2
        self.measured = []  # (step, party, bits) of each measurement
        self.read_across = set()  # measurements the other party read
        for step in circuit.steps:
            if isinstance(step, Slot):
                self.apply(self.u, [step.qubit])
            elif isinstance(step, Measure):
                self.measure(step)
            else:
                self.apply(step.gate, list(step.targets), step.when)

    def apply(self, gate, targets, when=None):
        if when is not None:
            step, value = when
            m = [measured for measured, _, _ in self.measured].index(step)
            if self.measured[m][1] != targets[0].owner:
                self.read_across.add(m)
        for br in self.branches:
            if when is None or int(br.record[m][2], 2) == value:
                br.state = apply_gate(br.state, gate, targets)

    def measure(self, step: Measure):
        targets, basis = list(step.targets), step.basis
        party = targets[0].owner
        self.measured.append((step, party, len(targets)))
        expanded = []
        for br in self.branches:
            options = measure(br.state, targets, basis)
            if self.rng is not None:
                options = [options[sample_index([o.probability for o in options], self.rng)]]
            for opt in options:
                expanded.append(
                    _Branch(
                        state=opt.post_state,
                        probability=br.probability * opt.probability,
                        record=br.record + ((party, basis, opt.outcome),),
                    )
                )
        self.branches = expanded

    def result(self) -> list:
        bob_qubit = self.output
        target = self.u.matrix @ self.psi
        sent = {"alice": 0, "bob": 0}
        for m in self.read_across:
            _, party, bits = self.measured[m]
            sent[party] += bits
        ledger = ResourceLedger(self.pairs, sent["alice"], sent["bob"])
        outcomes = []
        for br in self.branches:
            final = StateVector(factor_qubit(br.state, bob_qubit), (bob_qubit,))
            fid = float(abs(np.vdot(target, final.amplitudes)) ** 2)
            outcomes.append(
                protocols.ProtocolOutcome(
                    measurement_record=br.record,
                    probability=br.probability,
                    bob_final=final,
                    target_fidelity=fid,
                    succeeded=fid >= 1.0 - protocols.SUCCESS_TOL,
                    ledger=ledger,
                )
            )
        return outcomes


def _reference(name, cfg):
    """The branches of ``cfg`` from the protocol's circuit for its promise
    class played step by step on ``ReferenceRun``, bypassing the compiled
    instrument (in sampled mode, the one branch drawn as it went)."""
    seed = cfg.seed if cfg.mode == "sampled" else None
    circuit = protocols._CIRCUITS.get((name, cfg.promise)) or protocols._CIRCUITS[name, None]
    return ReferenceRun(circuit, cfg, seed).result()


def _in_set(rng, k):
    """Alternately a z rotation (commuting) and a half turn (anticommuting)."""
    if k % 2 == 0:
        return rz(rng.uniform(0, 2 * np.pi)), COMMUTING
    return Unimodular(0, np.exp(1j * rng.uniform(0, 2 * np.pi))), ANTICOMMUTING


def _configs(name, mode, seed, count=12):
    rng = np.random.default_rng(seed)
    for k in range(count):
        if name in ("bqst", "universal221"):
            u, promise = random_unimodular(rng), None
        else:
            u, promise = _in_set(rng, k)
            promise = promise if name == "one11" else None
        sample_seed = int(rng.integers(2**31)) if mode == "sampled" else None
        yield ProtocolConfig(u=u, psi=random_qubit(rng), promise=promise, mode=mode, seed=sample_seed)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_branch_tensor_matches_per_branch_engine(name, mode):
    run = PROTOCOLS[name]
    for cfg in _configs(name, mode, seed=sorted(PROTOCOLS).index(name) + 40):
        fast = run(cfg)
        ref = _reference(name, cfg)
        assert len(fast) == len(ref)
        assert mode == "exact" or len(fast) == 1
        for a, b in zip(fast, ref):
            assert a.measurement_record == b.measurement_record
            assert a.succeeded == b.succeeded
            assert a.ledger == b.ledger
            assert abs(a.probability - b.probability) <= ORACLE_TOL
            assert abs(a.target_fidelity - b.target_fidelity) <= ORACLE_TOL
            assert np.abs(a.bob_final.amplitudes - b.bob_final.amplitudes).max() <= ORACLE_TOL


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_non_unitary_step_is_reported(monkeypatch, name, mode):
    """A black box that damps |1>, slipped in after the rows' unitarity
    check, must fail the run; the per-branch engine renormalised it away
    unseen."""
    _leaky_row(monkeypatch, 0)
    cfg = ProtocolConfig(
        u=rz(0.4),
        psi=[0.6, 0.8],
        promise=COMMUTING if name == "one11" else None,
        mode=mode,
        seed=5 if mode == "sampled" else None,
    )
    with pytest.raises(InvariantViolation, match="not unitary"):
        PROTOCOLS[name](cfg)


# ---------------------------------------------------------------------------
# N configurations in one run


def _batch_rows(name, seed, count=64):
    """Seeded rows cycling through z rotations, half turns and (where the
    protocol takes them) Haar rotations, and through |0>, |1> and Haar states."""
    rng = np.random.default_rng(seed)
    families = 3 if name in ("bqst", "universal221") else 2
    us, psis, promises = [], [], []
    for k in range(count):
        if k % families == 2:
            u, promise = random_unimodular(rng), None
        else:
            u, promise = _in_set(rng, k % families)
        us.append(u)
        promises.append(promise if name == "one11" else None)
        psis.append(np.eye(2)[k % 4] if k % 4 < 2 else random_qubit(rng))
    return us, psis, promises


def _assert_batch_matches_per_branch_engine(name, us, psis, promises):
    table = protocols.run_batch(name, us, psis, promises)
    n_branch = len(table.records)
    fidelity = table.distinct_fidelity.take(table.group, axis=1)
    for array in (table.probability, fidelity, table.succeeded):
        assert array.shape == (len(us), n_branch)
    assert table.bob_final.shape == (len(us), n_branch, 2)
    for n, (u, psi, promise) in enumerate(zip(us, psis, promises)):
        ref = _reference(name, ProtocolConfig(u=u, psi=psi, promise=promise))
        assert list(table.records) == [o.measurement_record for o in ref]
        for b, o in enumerate(ref):
            assert table.ledger == o.ledger
            assert table.succeeded[n, b] == o.succeeded
            assert abs(table.probability[n, b] - o.probability) <= ORACLE_TOL
            assert abs(fidelity[n, b] - o.target_fidelity) <= ORACLE_TOL
            assert np.abs(table.bob_final[n, b] - o.bob_final.amplitudes).max() <= ORACLE_TOL


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_run_batch_matches_per_branch_engine(name):
    us, psis, promises = _batch_rows(name, seed=sorted(PROTOCOLS).index(name) + 60)
    _assert_batch_matches_per_branch_engine(name, us, psis, promises)


#: Every (protocol, promise class) that is compiled.
_COMPILED = [("bqst", None), ("universal221", None), ("restricted221", None),
             ("one11", COMMUTING), ("one11", ANTICOMMUTING)]


def _leaky_row(monkeypatch, bad, gain=0.5):
    """Make the black box of row ``bad`` scale |1> by ``gain`` (damp it, by
    default). The stack is replaced as the rows a run takes are stored (by
    ``ProtocolConfig`` for one configuration, by ``run_batch`` for N), after
    every check on it."""
    rows = protocols._Rows

    def leaky(u, psi, promise, pairs):
        u = u.copy()
        u[bad] = np.diag([1.0, gain])
        return rows(u=u, psi=psi, promise=promise, pairs=pairs)

    monkeypatch.setattr(protocols, "_Rows", leaky)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_batch_non_unitary_row_is_named(monkeypatch, name):
    us = [rz(0.1 * k) for k in range(6)]
    _leaky_row(monkeypatch, 3)
    promise = COMMUTING if name == "one11" else None
    with pytest.raises(InvariantViolation, match=r"of row 3 sum to .*not unitary"):
        protocols.run_batch(name, us, [[0.6, 0.8]] * 6, promise)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_batch_row_that_gains_probability_is_named(monkeypatch, name):
    """A black box that amplifies |1>: row 3's probabilities sum to more
    than 1, and every other row's to 1."""
    _leaky_row(monkeypatch, 3, gain=1.5)
    promise = COMMUTING if name == "one11" else None
    message = r"^branch probabilities of row 3 sum to 1\.(8|79999)\d*, expected 1\.0: a step was not unitary$"
    with pytest.raises(InvariantViolation, match=message):
        protocols.run_batch(name, [rz(0.1 * k) for k in range(6)], [[0.6, 0.8]] * 6, promise)


#: Batches ``run_batch`` refuses: (protocol, us, psis, promise, the error
#: as a regex); psis of None is [0.6, 0.8] on every row.
BATCH_INPUT_ERRORS = [
    ("restricted221", [rz(0.3), rz(0.5), Unimodular(0.6, 0.8)], None, None, r"row 2: operator is neither"),
    ("one11", [rz(0.3), rz(0.5)], None, [COMMUTING, ANTICOMMUTING], r"row 1: promise violation"),
    ("universal221", [rz(0.3)] * 5, [[1, 0]] * 4 + [[np.nan, 1]], None, r"row 4: psi\[0\] is not finite"),
    ("bqst", [rz(0.3)] * 3, [[1, 0], [0, 0], [0, 1]], None, r"row 1: psi must be nonzero"),
    # (N, 2) arrays: a bad pair or state row is named as in a list
    ("bqst", np.array([[1, 0], [0.6, 0.7], [1, 0]]), None, None, r"row 1: not unimodular: .* by 1\.500e-01$"),
    ("universal221", np.array([[1, 0], [1, 0], [np.inf, 0]]), None, None, r"row 2: Unimodular\.a is not finite: inf$"),
    ("bqst", np.array([[1, 0], [1, 0]]), np.array([[1, 0], [0, np.nan]]), None, r"row 1: psi\[1\] is not finite"),
    ("one11", np.array([[1, 0]] * 3), np.array([[1, 0], [1, 0], [0, 0]]), COMMUTING, r"row 2: psi must be nonzero"),
    ("bqst", [rz(0.3)] * 2, [[1, 0], [1, 0, 0, 0]], None, r"row 1: psi must be a single-qubit state"),
    ("one11", [rz(0.3)] * 2, None, [COMMUTING, "sideways"], r"row 1: unknown promise 'sideways'"),
    # the first bad row is named, with the first check it fails
    ("bqst", [rz(0.3), (np.nan, 0)], [[1, 0], [0, 0]], None, r"row 1: Unimodular\.a is not finite"),
    ("bqst", np.empty((0, 2)), np.empty((0, 2)), None, r"^a batch needs at least one configuration$"),
    ("bqst", [], [], None, r"^a batch needs at least one configuration$"),
    ("bqst", [rz(0.3)] * 2, [[1, 0]], None, r"^2 rotations, 1 states and 2 promises do not match$"),
    ("universal221", [rz(0.3)] * 3, None, [None, None, COMMUTING], r"^row 2: the universal protocol takes no promise$"),
    ("one11", [rz(0.3)] * 2, None, [COMMUTING, None], r"^row 1: the 1-1-1 protocol requires a promise$"),
    # a class check on a row before a row whose values fail, and after it
    ("restricted221", [rz(0.3), Unimodular(0.6, 0.8), (np.inf, 0)], None, None, r"^row 1: operator is neither"),
    ("restricted221", [rz(0.3), (np.inf, 0), Unimodular(0.6, 0.8)], None, None, r"^row 1: Unimodular\.a is not finite"),
    ("one11", [rz(0.3), (np.nan, 0), Unimodular(0.6, 0.8)], None, COMMUTING, r"^row 1: Unimodular\.a is not finite"),
    # psi's one-qubit, finite and nonzero checks are one check, in that order
    ("bqst", [rz(0.3)] * 2, [[1, 0], [np.nan, 0, 0]], None, r"^row 1: psi must be a single-qubit state$"),
    ("bqst", [rz(0.3)] * 2, [[1, 0], [np.inf, 0]], None, r"^row 1: psi\[0\] is not finite: inf$"),
    # a value check comes before the promise, which this row also violates
    ("one11", [rz(0.3), Unimodular(0.6, 0.8)], [[1, 0], [np.nan, 1]], COMMUTING, r"^row 1: psi\[0\] is not finite: nan$"),
    ("bogus", [rz(0.3)], None, None, r"^unknown protocol 'bogus'$"),
    ("bqst", np.zeros((2, 3)), None, None, r"^rotations must be \(a, b\) pairs, got shape \(2, 3\)$"),
]


@pytest.mark.parametrize("name, us, psis, promise, message", BATCH_INPUT_ERRORS)
def test_batch_input_errors_name_the_row(name, us, psis, promise, message):
    psis = [[0.6, 0.8]] * len(us) if psis is None else psis
    with pytest.raises(ValueError, match=message):
        protocols.run_batch(name, us, psis, promise)


def _batch_error(name, us, psis, promise) -> ValueError:
    """The error ``run_batch`` refuses a bad batch with (psis of None as in ``BATCH_INPUT_ERRORS``)."""
    psis = [[0.6, 0.8]] * len(us) if psis is None else psis
    with pytest.raises(ValueError) as info:
        protocols.run_batch(name, us, psis, promise)
    return info.value


@pytest.mark.parametrize("name, us, psis, promise, message", BATCH_INPUT_ERRORS)
def test_admissible_gives_the_first_bad_row_its_batch_refusal(name, us, psis, promise, message):
    """``admissible`` gives the row ``run_batch`` names the message it
    refuses the batch with, after ``row n: ``, and None to the rows before
    it; a batch whose shapes do not fit is refused alike."""
    error = _batch_error(name, us, psis, promise)
    psis = [[0.6, 0.8]] * len(us) if psis is None else psis
    if not isinstance(error, RowError):
        with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
            protocols.admissible(name, us, psis, promise)
        return
    messages = protocols.admissible(name, us, psis, promise)
    assert len(messages) == len(us)
    assert messages[: error.row + 1] == [None] * error.row + [error.message]


@pytest.mark.parametrize(
    "name, us, psis, promise, message", [case for case in BATCH_INPUT_ERRORS if case[-1].lstrip("^").startswith("row ")]
)
def test_single_call_refuses_as_its_batch_row(name, us, psis, promise, message):
    """The configuration of the row ``run_batch`` names, built on its own
    and run, raises a plain ``ValueError`` with the batch's message
    without ``row n: ``."""
    error = _batch_error(name, us, psis, promise)
    n = error.row
    given = promise if promise is None or isinstance(promise, str) else promise[n]
    psi = [0.6, 0.8] if psis is None else psis[n]
    with pytest.raises(ValueError) as info:
        PROTOCOLS[name](ProtocolConfig(u=us[n], psi=psi, promise=given))
    assert type(info.value) is ValueError and str(info.value) == error.message


def test_admissible_checks_each_row_on_its_own():
    """Every row gets the message its own single call raises, or None and
    runs on its own."""
    us = [rz(0.3), Unimodular(0.6, 0.8), (np.inf, 0), Unimodular(0, 1j), (0.6, 0.7), rz(0.1)]
    psis = [[1, 0], [1, 0], [1, 0], [0, 0], [1, 0], [1, 1j]]
    messages = protocols.admissible("restricted221", us, psis)
    for u, psi, message in zip(us, psis, messages):
        if message is None:
            assert protocols.run_batch("restricted221", [u], [psi]).succeeded.all()
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                protocols.run_restricted_221(ProtocolConfig(u=u, psi=psi))
    assert [m is None for m in messages] == [True, False, False, False, False, True]
    with pytest.raises(ValueError, match="^unknown protocol 'sideways'$"):
        protocols.admissible("sideways", us, psis)


#: Rows to draw batches from: rotations, states and promises, good and bad.
_POOL_US = [rz(0.3), Unimodular(0, 1j), Unimodular(0.6, 0.8), (np.nan, 0), (0, np.inf), (0.6, 0.7)]
_POOL_PSIS = [[0.6, 0.8], [1, 1j], [0, 0], [np.nan, 1], [1, 0, 0]]
_POOL_PROMISES = [None, COMMUTING, ANTICOMMUTING, "sideways"]


def _single_call_error(name, u, psi, promise) -> str | None:
    """The message of the ``ValueError`` a single call on one configuration
    raises, or None when it runs."""
    try:
        PROTOCOLS[name](ProtocolConfig(u=u, psi=psi, promise=promise))
    except ValueError as error:
        assert type(error) is ValueError
        return str(error)
    return None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(PROTOCOLS)),
    rows=st.lists(
        st.tuples(*(st.sampled_from(pool) for pool in (_POOL_US, _POOL_PSIS, _POOL_PROMISES))), min_size=1, max_size=5
    ),
)
# the two preconditions that refuse a row the draws above seldom reach
@example(name="restricted221", rows=[((np.nan, 0), [1, 0], COMMUTING), (Unimodular(0.6, 0.8), [0.6, 0.8], None)])
@example(name="universal221", rows=[(rz(0.3), [1, 1j], None), (rz(0.3), [0, 0], COMMUTING), (rz(0.3), [1, 0], COMMUTING)])
def test_every_row_of_a_drawn_batch_is_admitted_as_its_single_call(name, rows):
    """In a batch of good and bad rows, each row gets the message its own
    single call raises, or None when that call runs, and ``run_batch``
    refuses the batch naming its first bad row with that message."""
    us, psis, promises = (list(column) for column in zip(*rows))
    expected = [_single_call_error(name, *row) for row in rows]
    assert protocols.admissible(name, us, psis, promises) == expected
    bad = [n for n, message in enumerate(expected) if message is not None]
    if not bad:
        assert len(protocols.run_batch(name, us, psis, promises).probability) == len(us)
        return
    with pytest.raises(RowError) as info:
        protocols.run_batch(name, us, psis, promises)
    assert (info.value.row, info.value.message) == (bad[0], expected[bad[0]])


def test_an_unknown_promise_reads_the_same_from_an_array():
    """An unknown promise is named as written whether the promises come as
    an ndarray, a list or one ``ProtocolConfig``: an array's items are read
    as Python strings, not as ``np.str_``."""
    us, psis, given = [rz(0.3)] * 2, [[1, 0]] * 2, [COMMUTING, "sideways"]
    with pytest.raises(ValueError) as info:
        ProtocolConfig(u=rz(0.3), psi=[1, 0], promise="sideways")
    single = str(info.value)
    assert single == "unknown promise 'sideways'"
    for promise in (np.array(given), given):
        assert protocols.admissible("one11", us, psis, promise) == [None, single]
        with pytest.raises(ValueError, match=f"^row 1: {re.escape(single)}$"):
            protocols.run_batch("one11", us, psis, promise)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_an_unhashable_or_numpy_string_promise_is_read_as_its_single_call(name):
    """A row whose promise is unhashable (a list) or an ``np.str_`` is
    refused or admitted as its single call is, and ``run_batch`` names the
    row that single call refuses, with its message."""
    us = [rz(0.3), rz(0.5), Unimodular(0, 1j), rz(0.7)]
    promises = [np.str_(COMMUTING), [COMMUTING], np.str_(ANTICOMMUTING), None]
    psis = [[0.6, 0.8]] * len(us)
    expected = [_single_call_error(name, u, psi, promise) for u, psi, promise in zip(us, psis, promises)]
    assert expected[1] == "unknown promise ['commuting']"
    assert protocols.admissible(name, us, psis, promises) == expected
    first = next(n for n, message in enumerate(expected) if message is not None)
    with pytest.raises(RowError) as info:
        protocols.run_batch(name, us, psis, promises)
    assert (info.value.row, info.value.message) == (first, expected[first])


def _residual_of_row_2(residuals):
    residuals[2] = 0.25
    return residuals


@pytest.mark.parametrize(
    "stack, spoil, message",
    [
        # the stacked residual decides, and the error quotes it
        ("unimodular_residuals", _residual_of_row_2, r"^row 2: not unimodular: .* by 2\.500e-01$"),
    ],
)
def test_batch_refuses_the_row_its_stack_refuses(monkeypatch, stack, spoil, message):
    """The rotations come as an (N, 2) array of pairs, which takes the
    residual test; a stack of ``Unimodular`` is admitted on its construction
    proof."""
    build = getattr(operators, stack)
    monkeypatch.setattr(operators, stack, lambda pairs: spoil(build(pairs)))
    pairs = np.array([(u.a, u.b) for u in (rz(0.1 * k) for k in range(4))])
    with pytest.raises(ValueError, match=message):
        protocols.run_batch("bqst", pairs, [[0.6, 0.8]] * 4)


@pytest.mark.parametrize(
    "stack, spoil, message",
    [
        ("unimodular_residuals", lambda residuals: residuals + 0.25, r"^not unimodular: .* by 2\.500e-01$"),
    ],
)
def test_single_call_refuses_what_its_stack_refuses(monkeypatch, stack, spoil, message):
    """The rotation comes as an (a, b) pair, which takes the residual test."""
    build = getattr(operators, stack)
    monkeypatch.setattr(operators, stack, lambda pairs: spoil(build(pairs)))
    u = rz(0.1)
    with pytest.raises(ValueError, match=message) as info:
        protocols.run_bqst(ProtocolConfig(u=(u.a, u.b), psi=[0.6, 0.8]))
    assert type(info.value) is ValueError


def _rotation_form(unimodulars, form):
    """The rotations as given: ``Unimodular`` values, (a, b) pairs or an (N, 2) array."""
    pairs = [(u.a, u.b) for u in unimodulars]
    return {"unimodular": unimodulars, "pairs": pairs, "array": np.array(pairs)}[form]


def _count_calls(monkeypatch, calls, module, name):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.update([name]) or original(*args))


@pytest.mark.parametrize("form", ["unimodular", "pairs", "array"])
def test_a_unimodular_is_admitted_on_its_construction_proof(monkeypatch, form):
    """A single call and ``run_batch`` on ``Unimodular`` rotations skip the
    residual test; the same rotations as (a, b) pairs, or as an (N, 2)
    array, take it once per call. No form builds a ``matmul2`` product.
    Every form, also given as an iterator, runs to the same bytes."""
    unimodulars = [rz(0.3), Unimodular(0, 1j), random_unimodular(np.random.default_rng(3))]
    psis = [[0.6, 0.8], [1, 0], [0, 1j]]
    want = protocols.run_batch("bqst", unimodulars, psis)
    us = _rotation_form(unimodulars, form)
    assert protocols.run_batch("bqst", iter(us), psis).bob_final.tobytes() == want.bob_final.tobytes()
    calls = Counter()
    _count_calls(monkeypatch, calls, operators, "unimodular_residuals")
    for module in (gates, operators):
        _count_calls(monkeypatch, calls, module, "matmul2")
    single = protocols.run_bqst(ProtocolConfig(u=us[0], psi=psis[0]))
    table = protocols.run_batch("bqst", us, psis)
    assert dict(calls) == ({} if form == "unimodular" else {"unimodular_residuals": 2})
    assert not hasattr(protocols, "matmul2")
    assert table.bob_final.tobytes() == want.bob_final.tobytes()
    assert table.probability.tobytes() == want.probability.tobytes()
    assert [o.bob_final.amplitudes.tobytes() for o in single] == [a.tobytes() for a in want.bob_final[0]]


def _admitted(build, *args) -> bool:
    try:
        build(*args)
    except ValueError:
        return False
    return True


def test_every_rotation_form_is_admitted_alike():
    """On 100,000 seeded pairs whose squared norm lies within 1e-15 of
    1 +- UNIMODULAR_TOL, ``Unimodular(a, b)`` constructs exactly where
    ``admissible`` admits the row given as a list of pairs and as an (N, 2)
    array, and where ``as_pairs`` takes it (the admitted rows as one stack,
    each row within an ulp of the tolerance on its own): every form takes
    the one residual test, in the constructor's order. The draws straddle
    the tolerance's last ulp, where a second test summed in another order
    would decide differently."""
    rng = np.random.default_rng(2601)
    n, ulp, tol = 100_000, 2.3e-16, tolerances.UNIMODULAR_TOL
    z = rng.normal(size=(n, 4))
    squared = 1 + rng.choice([-1.0, 1.0], n) * tol * (1 + 1e-5 * rng.uniform(-1, 1, n))
    z *= (np.sqrt(squared) / np.linalg.norm(z, axis=1))[:, None]
    pairs = z[:, 0::2] + 1j * z[:, 1::2]
    built = np.array([_admitted(Unimodular, a, b) for a, b in pairs.tolist()])
    edge = np.abs(operators.unimodular_residuals(pairs) - tol) <= ulp
    assert 0 < built[edge].sum() < edge.sum()  # the draws straddle the tolerance's last ulp
    psis = np.tile([1.0, 0.0], (n, 1))
    for us in (pairs.tolist(), pairs):
        admitted = np.array([message is None for message in protocols.admissible("bqst", us, psis)])
        assert np.array_equal(admitted, built)
    operators.as_pairs(pairs[built])
    assert [_admitted(operators.as_pairs, pairs[k:k + 1]) for k in np.flatnonzero(edge)] == built[edge].tolist()


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_every_admitted_rotation_at_the_tolerance_edge_runs(name):
    """2,000 seeded pairs whose |a|^2 + |b|^2 lies within 1e-15 of 1 +-
    UNIMODULAR_TOL, in the protocol's domain (for restricted221 and one11,
    (a, 0) with its commuting promise and (0, b) with its anticommuting
    one): every row ``admissible`` admits runs, in one batch and alone, and
    its probabilities sum to its own |a|^2 + |b|^2 within ``PROB_TOL``,
    which is off 1 by up to ``UNIMODULAR_TOL``. Each branch that succeeds
    (all but universal221's U sz psi) has fidelity 1 within
    ``ROUNDING_TOL``, taken against U psi / |U psi|."""
    rng = np.random.default_rng(3002 + sorted(PROTOCOLS).index(name))
    n, tol = 2000, tolerances.UNIMODULAR_TOL
    z = rng.normal(size=(n, 4))
    promises = [None] * n
    if name in ("restricted221", "one11"):
        z[0::2, 2:] = 0
        z[1::2, :2] = 0
        promises = [COMMUTING, ANTICOMMUTING] * (n // 2) if name == "one11" else promises
    squared = 1 + rng.choice([-1.0, 1.0], n) * tol * (1 + 1e-5 * rng.uniform(-1, 1, n))
    z *= (np.sqrt(squared) / np.linalg.norm(z, axis=1))[:, None]
    pairs = z[:, 0::2] + 1j * z[:, 1::2]
    psis = operators.random_qubits(rng, n)
    admitted = np.array([m is None for m in protocols.admissible(name, pairs, psis, promises)])
    assert 0 < admitted.sum() < n
    us, psis, promises = pairs[admitted], psis[admitted], [p for p, ok in zip(promises, admitted) if ok]
    own = statevector._squared_norms(us)
    assert np.abs(own - 1.0).max() > 0.99 * tol
    table = protocols.run_batch(name, us, psis, promises)
    assert np.abs(table.probability.sum(axis=1) - own).max() <= tolerances.PROB_TOL
    assert np.abs(table.distinct_fidelity[table.distinct_succeeded] - 1.0).max() <= tolerances.ROUNDING_TOL
    worst = int(np.argmax(np.abs(own - 1.0)))
    assert PROTOCOLS[name](ProtocolConfig(u=us[worst], psi=psis[worst], promise=promises[worst]))


@pytest.mark.parametrize("form", ["unimodular", "pairs", "array"])
@pytest.mark.parametrize("batch", [True, False], ids=["run_batch", "single_call"])
def test_a_damped_builder_on_unimodular_rows_fails_the_row_sum(monkeypatch, batch, form):
    """A black box built wrong passes admission, which tests the rotation
    and not the box built from it, and is caught by ``_finish``'s row-sum
    test on the run's own amplitudes, naming the row, whatever form the
    rotations came in."""
    build = protocols.unimodular_matrices
    row = 2 if batch else 0

    def damped(pairs):
        matrices = build(pairs)
        matrices[row] = matrices[row] @ np.diag([1.0, 0.5])
        return matrices

    us = _rotation_form([rz(0.1 * k) for k in range(4)], form)
    monkeypatch.setattr(protocols, "unimodular_matrices", damped)
    pattern = rf"^branch probabilities of row {row} sum to 0\.5\d*, expected 1\.0: a step was not unitary$"
    with pytest.raises(InvariantViolation, match=pattern) as info:
        if batch:
            protocols.run_batch("bqst", us, [[0.6, 0.8]] * 4)
        else:
            protocols.run_bqst(ProtocolConfig(u=us[0], psi=[0.6, 0.8]))
    assert info.traceback[-1].name == "_finish"


@pytest.mark.parametrize(
    "psi, message", [([np.nan, 0], r"^psi\[0\] is not finite: nan$"), ([0, 0], r"^psi must be nonzero$")]
)
def test_a_proved_rotation_with_a_bad_psi_is_refused_without_a_warning(psi, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            ProtocolConfig(u=rz(0.3), psi=psi)


def _grid_values(amps, powers):
    """The played integer grid times 2^(-e/2), each branch by its own e."""
    return amps * (2.0 ** (-powers / 2)).reshape((-1,) + (1,) * (amps.ndim - 1))


def _played(circuit, psi, u=np.eye(2)):
    """``circuit`` resolved by ``_plan`` and played by ``_play``, read for
    the black box ``u`` and Bob's ``psi``: each branch's unnormalised output,
    (B, 2), and its outcomes, (B, measurements). A circuit whose branch
    weights depend on psi is refused by the certificate, so it is read here,
    before the compile certifies it."""
    plan = protocols._plan(circuit)
    amps, powers, outcomes = protocols._play(plan)
    maps = np.moveaxis(_grid_values(amps, powers), plan.readout, (1, 2, 3, 4))  # [b, R_out, R_in, R_psi, output]
    return np.einsum("bijmo,ij,m->bo", maps, u, psi), outcomes


#: One pair half each, (alice:0, bob:0) in |00>, and Bob's data qubit bob:1.
_A, _B, _DATA = QubitId("alice", 0), QubitId("bob", 0), QubitId("bob", 1)
_ONE_PAIR = basis_state("00", (_A, _B))


def test_branch_is_dropped_only_when_every_row_drops_it():
    """Both inputs keep both outcomes of the data qubit; Alice's |0> half
    gives outcome 1 for no black box and no input, so the play drops that
    child and it is in no branch."""
    circuit = Circuit(_ONE_PAIR, _DATA, (Measure((_DATA,), "computational"), Measure((_A,), "computational")), _B)
    for psi, probs in (([0.6, 0.8], [0.36, 0.64]), ([0.8, 0.6j], [0.64, 0.36])):
        out, outcomes = _played(circuit, psi)
        assert outcomes.tolist() == [[0, 0], [1, 0]]
        assert np.abs((np.abs(out) ** 2).sum(axis=1) - probs).max() <= ORACLE_TOL


#: Rotations at the edges of each protocol's domain, with their promises:
#: 1, -1, a z rotation and half turns, and (where the protocol takes them)
#: Haar rotations; and states at the poles, on the equator and next to |0>.
_EDGE_US = [
    (Unimodular(1, 0), COMMUTING),
    (Unimodular(-1, 0), COMMUTING),
    (rz(0.7), COMMUTING),
    (Unimodular(0, 1), ANTICOMMUTING),
    (Unimodular(0, np.exp(0.4j)), ANTICOMMUTING),
]
_EDGE_PSIS = [[1, 0], [0, 1], [1, 1], [1, 1e-9]]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_every_row_keeps_every_branch_with_equal_weight(name):
    """The outcome statistics do not depend on the input: each branch has
    probability 1/16 (1/4 for one11) in every row, its instrument's
    certified weight, so no row drops one; and each of Bob's final states is
    a unit vector."""
    pairs = _EDGE_US
    if name in ("bqst", "universal221"):
        rng = np.random.default_rng(9)
        pairs = pairs + [(random_unimodular(rng), None) for _ in range(3)]
    configs = [(u, promise, psi) for u, promise in pairs for psi in _EDGE_PSIS]
    us, promises, psis = zip(*configs)
    promises = promises if name == "one11" else [None] * len(configs)
    table = protocols.run_batch(name, us, psis, promises)
    n_branch = 4 if name == "one11" else 16
    assert table.probability.shape == (len(configs), n_branch)
    assert np.abs(table.probability - 1.0 / n_branch).max() <= protocols.PROB_TOL
    weights = np.array([protocols._instrument(name, promise).weights for promise in promises])
    assert np.abs(weights - 1.0 / n_branch).max() <= protocols.PROB_TOL
    assert np.abs(table.probability - weights).max() <= protocols.PROB_TOL
    norms = np.einsum("nbi,nbi->nb", table.bob_final, table.bob_final.conj()).real
    assert np.abs(norms - 1.0).max() <= tolerances.STATE_NORM_TOL


def test_entangled_output_names_the_row(monkeypatch):
    """Bob's output copied onto his data qubit, which is left unmeasured
    with Alice's pair half: the static pass refuses the circuit, naming
    both, before any amplitude is touched."""
    _no_amplitudes(monkeypatch)
    circuit = Circuit(_ONE_PAIR, _DATA, (Apply(CNOT, (_DATA, _B)),), _B)
    message = r"^unmeasured qubit\(s\) alice:0, bob:1: a circuit measures every qubit but its output$"
    with pytest.raises(ValueError, match=message):
        protocols._compile(circuit, None, "hand_built")


# ---------------------------------------------------------------------------
# LOCC and the derived ledger

A0, A1, B0, B1, DATA = QubitId("alice", 0), QubitId("alice", 1), QubitId("bob", 0), QubitId("bob", 1), QubitId("bob", 2)


def _hand_built(*steps, output=DATA) -> Circuit:
    """``steps`` on Alice's and Bob's pair halves in |0000> (two pairs, by
    count) and Bob's data qubit, paired with the comb's reference R_psi,
    then each qubit they leave, but the output, measured in the
    computational basis, as ``_plan`` requires; no step reads those."""
    measured = {q for step in steps if isinstance(step, Measure) for q in step.targets}
    rest = tuple(Measure((q,), "computational") for q in (A0, A1, B0, B1, DATA) if q not in measured and q != output)
    return Circuit(basis_state("0000", (A0, A1, B0, B1)), DATA, steps + rest, output)


@pytest.mark.parametrize(
    "step, message",
    [
        (Apply(CNOT, (A0, B1)), r"gate 'cnot' on \(alice:0, bob:1\)"),
        (Measure((A1, B0), "bell"), r"bell measurement on \(alice:1, bob:0\)"),
        (Measure((DATA, A0), "computational"), r"computational measurement on \(bob:2, alice:0\)"),
    ],
    ids=["apply", "bell", "computational"],
)
def test_step_across_the_cut_is_refused(step, message):
    with pytest.raises(ValueError, match=message + r" crosses the Alice\|Bob cut"):
        protocols._plan(_hand_built(step))


def _untouchable(*args):
    raise AssertionError("an amplitude was touched")


def _no_amplitudes(monkeypatch):
    """Make the branch-stack primitives that every step runs through raise."""
    for module in (statevector, protocols):
        monkeypatch.setattr(module, "_apply_matrix", _untouchable)
        monkeypatch.setattr(module, "_split", _untouchable)


def test_circuit_that_ends_across_the_cut_is_refused_before_any_amplitude(monkeypatch):
    """The static pass refuses the last step, a CNOT across the cut, while
    the branch-stack primitives that every step runs through raise."""
    _no_amplitudes(monkeypatch)
    data = Measure((DATA,), "computational")
    circuit = _hand_built(Apply(H, (B0,)), data, Apply(X, (A0,), (data, 1)), Apply(CNOT, (A0, B1)))
    with pytest.raises(ValueError, match=r"^gate 'cnot' on \(alice:0, bob:1\) crosses the Alice\|Bob cut$"):
        protocols._compile(circuit, None, "hand_built")


_LATER = Measure((A0,), "computational")


@pytest.mark.parametrize(
    "steps, message",
    [
        ((Apply(X, (B0,), (_LATER, 1)), _LATER), r"gate 'x' on \(bob:0\) reads the computational measurement on \(alice:0\)"),
        ((Measure((B0,), "computational"), Apply(Z, (A1,), (Measure((B1, B0), "bell"), 2))),
         r"gate 'z' on \(alice:1\) reads the bell measurement on \(bob:1, bob:0\)"),
    ],
    ids=["later", "absent"],
)
def test_when_naming_no_earlier_measurement_is_refused(steps, message):
    with pytest.raises(ValueError, match=f"^{message}, which is not earlier in the circuit$"):
        protocols._plan(_hand_built(*steps))


_BELL_A = Measure((A0, A1), "bell")


@pytest.mark.parametrize(
    "steps, message",
    [
        ((Measure((A0,), "bell"),), r"^bell measurement on \(alice:0\): cannot measure 1 qubit\(s\) in the 'bell' basis$"),
        ((Measure((B0, B1, DATA), "computational"),),
         r"^computational measurement on \(bob:0, bob:1, bob:2\): cannot measure 3 qubit\(s\) in the "
         r"'computational' basis$"),
        ((_LATER, Apply(X, (B0,), (_LATER, 2))),
         r"^gate 'x' on \(bob:0\) reads outcome 2 of the computational measurement on \(alice:0\), which has 2 outcomes$"),
        ((_LATER, Apply(X, (B0,), (_LATER, -1))), r"^gate 'x' on \(bob:0\) reads outcome -1 of the .*, which has 2 outcomes$"),
        ((_BELL_A, Apply(Z, (B0,), (_BELL_A, 4))), r"reads outcome 4 of the bell .*, which has 4 outcomes$"),
        ((Apply(CNOT, (B0,)),), r"^gate 'cnot' acts on 2 qubit\(s\), got 1 target\(s\)$"),
    ],
    ids=["bell_on_one", "computational_on_three", "when_past_the_end", "when_negative", "when_past_bell", "cnot_on_one"],
)
def test_measurement_and_when_that_do_not_fit_are_refused_before_any_amplitude(monkeypatch, steps, message):
    """A basis that does not fit its qubit count (``statevector._BASES``),
    a gate given the wrong number of targets and a ``when`` value outside
    the measurement's outcomes are refused by the static pass, while the
    primitives every step runs through raise."""
    _no_amplitudes(monkeypatch)
    with pytest.raises(ValueError, match=message):
        protocols._compile(_hand_built(*steps), None, "hand_built")


def _bob_reads_his_bit():
    m = Measure((B0,), "computational")
    return m, Apply(X, (DATA,), (m, 1))


def _bob_reads_alices_bit():
    m = Measure((A0,), "computational")
    return m, Apply(X, (DATA,), (m, 1))


def _alice_reads_bobs_bit_twice():
    m = Measure((B0,), "computational")
    return m, Apply(X, (A0,), (m, 0)), Apply(Z, (A1,), (m, 0))


#: sz sx as one gate.
_ZX = Gate(gates.sigma_z @ gates.sigma_x, "zx")


def _bob_reads_one_bell_outcome_three_times():
    m = Measure((A0, A1), "bell")
    return (m, *(Apply(gate, (DATA,), (m, value)) for value, gate in ((1, Z), (2, X), (3, _ZX))))


@pytest.mark.parametrize(
    "steps, ledger",
    [
        (lambda: (), (2, 0, 0)),
        (_bob_reads_his_bit, (2, 0, 0)),
        (_bob_reads_alices_bit, (2, 1, 0)),
        (_alice_reads_bobs_bit_twice, (2, 0, 1)),
        (_bob_reads_one_bell_outcome_three_times, (2, 2, 0)),
    ],
    ids=["no_reads", "own_bit", "a_to_b", "b_to_a_twice", "bell_thrice"],
)
def test_ledger_counts_each_outcome_read_across_the_cut_once(steps, ledger):
    assert protocols._plan(_hand_built(*steps())).ledger.as_tuple() == ledger


@pytest.mark.parametrize("name, promise", _COMPILED)
def test_each_circuits_static_ledger_is_its_expected_ledger(name, promise):
    """Read from the steps alone, before any amplitude."""
    assert protocols._plan(protocols._CIRCUITS[name, promise]).ledger.as_tuple() == verify.EXPECTED_LEDGERS[name]


def test_measure_keeps_the_shared_contractions_children():
    """Each measurement the interpreter plays keeps the children of
    ``statevector._split`` that are not zero, on the integer grid of the
    branches before it, in order and bit for bit; it records their outcomes
    and adds the bras' power of sqrt 2 (1 for the Bell bras) to each. A_0
    stays |0>, so its outcome 1 is dropped on every branch."""
    steps = [Apply(H, (q,)) for q in (A1, B0, B1)] + [Apply(CNOT, (B0, DATA))]
    measures = [Measure((A0,), "computational"), Measure((B1, B0), "bell"), Measure((A1,), "computational")]
    plan = protocols._plan(_hand_built(*steps, *measures))
    assert len(plan.steps) == len(steps) + len(measures)
    for k in range(len(steps), len(plan.steps)):
        amps, powers, _ = protocols._play(plan._replace(steps=plan.steps[:k]))
        bras, e = plan.steps[k].basis
        children, norms = _split(amps.copy(), plan.steps[k].targets, bras)
        parents, kept = np.nonzero(norms)
        after, after_powers, outcomes = protocols._play(plan._replace(steps=plan.steps[: k + 1]))
        assert np.array_equal(after, children[parents, kept])
        assert after_powers.tolist() == (powers[parents] + e).tolist()
        assert outcomes[:, -1].tolist() == kept.tolist()
    assert outcomes[:, 0].tolist() == [0] * 8
    assert after_powers.tolist() == [4] * 8  # three Hadamards and the Bell bras


def test_when_reads_the_named_measurement():
    """Bob flips bob:0 on the data outcome after a later measurement of
    alice:0, whose outcome is always 0; the flip must follow the data bit."""
    data = Measure((DATA,), "computational")
    circuit = _hand_built(data, Measure((A0,), "computational"), Apply(X, (B0,), (data, 1)), output=B0)
    out, outcomes = _played(circuit, [0.6, 0.8])
    assert outcomes[:, :2].tolist() == [[0, 0], [1, 0]]
    assert np.abs(out - [[0.6, 0], [0, 0.8]]).max() <= ORACLE_TOL
    assert protocols._plan(circuit).ledger.as_tuple() == (2, 0, 0)


def test_a_conditional_gate_adds_its_power_only_where_it_acts():
    """Bob's Hadamard on bob:0 where his data qubit read 1: that branch is
    over sqrt(2)**1 and the other over sqrt(2)**0, and each reads as the
    circuit's output, |0> psi[0] and |+> psi[1]."""
    data = Measure((DATA,), "computational")
    circuit = _hand_built(data, Apply(H, (B0,), (data, 1)), output=B0)
    assert protocols._play(protocols._plan(circuit))[1].tolist() == [0, 1]
    out, outcomes = _played(circuit, [0.6, 0.8])
    assert outcomes[:, 0].tolist() == [0, 1]
    assert np.abs(out - [[0.6, 0], [0.8 / np.sqrt(2), 0.8 / np.sqrt(2)]]).max() <= ORACLE_TOL


_MEASURED = Measure((DATA,), "computational")


@pytest.mark.parametrize(
    "steps, message",
    [
        ((Apply(X, (QubitId("alice", 5),)),), r"^qubit alice:5 not in register$"),
        ((Measure((B0, QubitId("bob", 7)), "bell"),), r"^qubit bob:7 not in register$"),
        ((_MEASURED, Apply(X, (DATA,), (_MEASURED, 1))), r"^qubit bob:2 not in register$"),
        ((Apply(CNOT, (B0, B0)),), r"^duplicate targets$"),
        ((Measure((A1, A1), "bell"),), r"^duplicate targets$"),
        # equal qubits that are distinct objects are the same register slot
        ((Apply(CNOT, (B0, QubitId("bob", 0))),), r"^duplicate targets$"),
        ((Measure((QubitId("alice", 1), QubitId("alice", 1)), "bell"),), r"^duplicate targets$"),
    ],
    ids=["apply_unknown", "measure_unknown", "measured_before", "apply_same", "measure_same",
         "apply_equal", "measure_equal"],
)
def test_engine_refuses_targets_outside_the_register_or_repeated(steps, message):
    with pytest.raises(ValueError, match=message):
        protocols._plan(_hand_built(*steps))


def test_target_equal_to_a_register_qubit_resolves_to_its_axis():
    """Steps naming fresh ``QubitId`` objects act on the register slots they
    equal: flip the data qubit, copy it onto bob:0 and read Bob's output."""
    data, bob0 = QubitId("bob", 2), QubitId("bob", 0)
    assert data is not DATA and bob0 is not B0
    steps = (Apply(X, (data,)), Apply(CNOT, (data, bob0)), Measure((QubitId("bob", 0),), "computational"))
    circuit = _hand_built(*steps, output=QubitId("bob", 2))
    assert protocols._plan(circuit).labels[0] == (("bob", "computational", "0"), ("bob", "computational", "1"))
    out, outcomes = _played(circuit, [0.6, 0.8])
    assert outcomes[:, 0].tolist() == [0, 1]
    assert np.abs(out - [[0.8, 0], [0, 0.6]]).max() <= ORACLE_TOL


@pytest.mark.parametrize(
    "targets, basis, bits",
    [((A0,), "computational", 1), ((A0, A1), "bell", 2), ((A0, A1), "computational", 2)],
    ids=["one_qubit", "bell", "two_qubit"],
)
def test_outcome_read_across_the_cut_costs_its_qubit_count(targets, basis, bits):
    """The static pass logs each measurement's qubit count once; the
    outcome labels and the ledger's bits both follow from it."""
    m = Measure(targets, basis)
    plan = protocols._plan(_hand_built(m, Apply(X, (DATA,), (m, 0))))
    assert [label[:2] for label in plan.labels[0]] == [("alice", basis)] * 2**bits
    assert {len(label[2]) for label in plan.labels[0]} == {bits}
    assert plan.ledger.as_tuple() == (2, bits, 0)


def test_batch_memory_drops_measured_qubits(monkeypatch):
    """1000 restricted 2-2-1 rows, compile included, peak near 1.9 MB of
    numpy allocations. The compile run drops measured qubits and ends on
    Bob's output qubit and the comb's three references; kept, the four
    measured qubits would make each branch 16 times as large."""
    us, psis, _ = _batch_rows("restricted221", seed=7, count=1000)
    played, play = [], protocols._play
    monkeypatch.setattr(protocols, "_play", lambda plan: played.append((plan, play(plan))) or played[-1][1])
    protocols._instrument.cache_clear()
    tracemalloc.start()
    try:
        protocols.run_batch("restricted221", us, psis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    ((plan, (amps, _, _)),) = played
    assert amps.shape == (16, 2, 2, 2, 2)
    # the register is (bob:1, R_psi, R_in, R_out): Bob's output on axis 1
    assert plan.readout == (4, 3, 2, 1)


# ---------------------------------------------------------------------------
# compiled instruments


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_compiled_run_matches_the_step_by_step_circuit(name):
    """``run_batch`` against the circuit run step by step, with the real
    black box, on ``ReferenceRun``: 40 seeded rows of z rotations, half
    turns and (where the protocol takes them) Haar rotations, both one11
    classes in one batch, on |0>, |1>, [1, 1e-9] and Haar states."""
    us, psis, promises = _batch_rows(name, seed=sorted(PROTOCOLS).index(name) + 80, count=40)
    psis = [[1, 1e-9] if k % 8 == 3 else psi for k, psi in enumerate(psis)]
    _assert_batch_matches_per_branch_engine(name, us, psis, promises)


def test_each_protocol_compiles_once_per_promise_class(monkeypatch):
    """100 ``run_*`` calls, exact and sampled, over every protocol and both
    one11 classes, resolve and play each (protocol, promise class) circuit
    once."""
    compiled, played = Counter(), []
    names = {id(circuit): key for key, circuit in protocols._CIRCUITS.items()}
    plan, play = protocols._plan, protocols._play
    monkeypatch.setattr(protocols, "_plan", lambda circuit: compiled.update([names[id(circuit)]]) or plan(circuit))
    monkeypatch.setattr(protocols, "_play", lambda p: played.append(p) or play(p))
    protocols._instrument.cache_clear()
    rng = np.random.default_rng(3)
    for k in range(100):
        name = sorted(PROTOCOLS)[k % 4]
        u, promise = _in_set(rng, k // 4)
        cfg = ProtocolConfig(u=u, psi=random_qubit(rng), promise=promise if name == "one11" else None,
                             mode="sampled" if k % 3 else "exact", seed=k)
        assert PROTOCOLS[name](cfg)
    assert compiled == Counter(_COMPILED)
    assert len(played) == len(_COMPILED)


@pytest.mark.parametrize("key", list(protocols._CIRCUITS), ids=str)
def test_compile_of_a_table_circuit_is_its_cached_instrument(key):
    """``_compile`` on a ``_CIRCUITS`` entry gives what ``_instrument``
    caches for its key, field for field and the tensor byte for byte, and
    neither reads nor fills that cache."""
    cached = protocols._instrument(*key)
    info = protocols._instrument.cache_info()
    compiled = protocols._compile(protocols._CIRCUITS[key], key[1], "table")
    assert protocols._instrument.cache_info() == info
    assert compiled.tensor.shape == cached.tensor.shape and not compiled.tensor.flags.writeable
    assert compiled.tensor.tobytes() == cached.tensor.tobytes()
    assert compiled._replace(tensor=None) == cached._replace(tensor=None)


@pytest.mark.parametrize("promise", [COMMUTING, ANTICOMMUTING])
def test_one11_drops_the_part_of_u_off_its_promised_class(promise):
    """Rotations 3e-10 off the promised class, at the ``CLASS_TOL`` edge,
    pass the promise check and run as their part in the class: probabilities
    and Bob's final states equal, bit for bit, those with that entry at 0."""
    rng = np.random.default_rng(11)
    clean = np.exp(2j * np.pi * rng.random((8, 2)))
    off = 1 if promise == COMMUTING else 0  # b when commuting, a when anticommuting
    clean[:, off] = 0
    near = clean.copy()
    near[:, off] = 3e-10 * np.exp(2j * np.pi * rng.random(8))
    comm, anti = operators.commutation_norms(near, operators.Z_AXIS)
    norms = comm if promise == COMMUTING else anti
    assert (0.5 * tolerances.CLASS_TOL < norms).all() and (norms <= tolerances.CLASS_TOL).all()
    psis = [random_qubit(rng) for _ in range(8)]
    a, b = (protocols.run_batch("one11", us, psis, promise) for us in (near, clean))
    assert np.array_equal(a.probability, b.probability)
    assert np.array_equal(a.bob_final, b.bob_final)


def _assert_same_instrument(got, want):
    assert got.tensor.tobytes() == want.tensor.tobytes() and not got.tensor.flags.writeable
    assert got._replace(tensor=None) == want._replace(tensor=None)


def test_one11s_anticommuting_circuit_is_the_circuit_with_bobs_sx_and_sz_sx_fix_ups(monkeypatch):
    """The anticommuting circuit, the commuting one after Bob's unconditioned
    sx, compiles to what Bob's fix-ups sx and sz sx, as two gates on Alice's
    outcomes 0 and 1, give, in every field and the tensor byte for byte;
    with that circuit in the table, one11's summed instrument is the same."""
    key = ("one11", ANTICOMMUTING)
    bob, alice = protocols._B1, protocols._ALICE_HALF
    steps = (*protocols._ONE11, Apply(X, (bob,), (alice, 0)), Apply(_ZX, (bob,), (alice, 1)))
    by_outcome = protocols._CIRCUITS[key]._replace(steps=steps)
    anticommuting, summed = protocols._instrument(*key), protocols._instrument("one11", None)
    _assert_same_instrument(protocols._compile(by_outcome, ANTICOMMUTING, "one11 (anticommuting)"), anticommuting)
    monkeypatch.setitem(protocols._CIRCUITS, key, by_outcome)
    protocols._instrument.cache_clear()
    try:
        _assert_same_instrument(protocols._instrument(*key), anticommuting)
        _assert_same_instrument(protocols._instrument("one11", None), summed)
    finally:
        protocols._instrument.cache_clear()


def test_one11_class_tensors_lie_on_disjoint_rows_of_its_instrument():
    """one11's two class circuits share records, ledger and Bob's qubit;
    the commuting tensor is nonzero on the diagonal E_ij only and the
    anticommuting one off it, and the instrument a run contracts with is
    their sum, bit for bit, after zeroing each row's inputs off its class."""
    commuting, anticommuting = (protocols._instrument("one11", c) for c in (COMMUTING, ANTICOMMUTING))
    assert commuting._replace(tensor=None) == anticommuting._replace(tensor=None)
    diagonal = np.repeat(np.eye(2, dtype=bool).reshape(4), 2)
    assert not commuting.tensor[~diagonal].any() and commuting.tensor[diagonal].any()
    assert not anticommuting.tensor[diagonal].any() and anticommuting.tensor[~diagonal].any()
    summed = protocols._instrument("one11", None).tensor
    assert np.array_equal(summed, np.where(diagonal[:, None], commuting.tensor, anticommuting.tensor))
    # a run zeroes each row's inputs off its class
    off = protocols._OFF_CLASS
    assert (off[protocols._COMMUTING] == ~diagonal).all() and (off[protocols._ANTICOMMUTING] == diagonal).all()


def test_branch_negligible_in_one_row_is_refused():
    """Alice measures the qubit the black box wrote to, so each branch's
    weight depends on the input: (a, b) = psi = (cos t, sin t) with
    sin(t)^2 = 1e-7 would give branch 1/1 1e-14 of the row, where a =
    b = 1/sqrt(2) on psi = |+> gives it 1/4. The compile refuses the
    circuit before any row, naming its first branch, whose map |0><0| U
    |0><0| is c V U W for no Pauli pair (V, W)."""
    circuit = Circuit(_ONE_PAIR, _DATA, (Measure((_DATA,), "computational"), Slot(_A), Measure((_A,), "computational")), _B)
    message = r"^hand_built branch 0/0 does not map the black box U as c V U W with V and W Paulis \(off by 1\.000e\+00\)$"
    with pytest.raises(InvariantViolation, match=message):
        protocols._compile(circuit, None, "hand_built")


def _scaled(gate, factor):
    """``gate`` times ``factor``, built past ``Gate``'s unitarity check."""
    scaled = object.__new__(Gate)
    scaled.__dict__.update(gate.__dict__, matrix=gate.matrix * factor)
    return scaled


def _no_exact_form(step):
    """The refusal ``_plan`` gives a step with no exact form."""
    return rf"^{step} has no exact form k / sqrt\(2\)\*\*e with k Gaussian integers: it cannot be played exactly$"


def test_step_that_is_not_unitary_is_refused_at_compile(monkeypatch):
    """universal221 with Bob's Hadamard scaled by 1 + 1e-6. ``_scaled``
    copies H's fields, so only its matrix can tell: that has no exact form,
    and ``_plan`` refuses the circuit, naming the gate, before any
    amplitude is touched."""
    circuit = protocols._CIRCUITS["universal221", None]
    scaled = _scaled(H, 1 + 1e-6)
    steps = tuple(step._replace(gate=scaled) if isinstance(step, Apply) and step.gate is H else step for step in circuit.steps)
    assert sum(isinstance(step, Apply) and step.gate.name == "h" for step in steps) == 1
    _no_amplitudes(monkeypatch)
    with pytest.raises(ValueError, match=_no_exact_form(r"gate 'h' on \(bob:0\)")):
        protocols._compile(circuit._replace(steps=steps), None, "hand_built")


def test_step_scaled_on_the_grid_is_refused_by_the_weight_sum():
    """universal221 with Alice's spreading X scaled by 2: it has an exact
    form, so the circuit plays, and every branch still maps U as c V U W,
    but the eight branches where Bob's data qubit read 1 weigh 4/16 each.
    The weights sum to exactly 2.5, and the compile refuses the circuit."""
    circuit = protocols._CIRCUITS["universal221", None]
    steps = list(circuit.steps)
    k = next(k for k, step in enumerate(steps) if isinstance(step, Apply) and step.gate is X)
    assert steps[k].targets == (A0,) and steps[k].when[1] == 1
    steps[k] = steps[k]._replace(gate=_scaled(X, 2.0))
    circuit = circuit._replace(steps=tuple(steps))
    message = r"^hand_built branch weights sum to 2\.5, expected 1\.0: a step was not unitary$"
    with pytest.raises(InvariantViolation, match=message):
        protocols._compile(circuit, None, "hand_built")


@pytest.mark.parametrize("eps", [1e-6, 1e-10])
def test_a_fixup_off_by_a_phase_is_refused_at_compile(monkeypatch, eps):
    """restricted221's sz fix-up times diag(1, e^{i eps}): its failure
    branches would map U eps/4 off c sz U sz, entry by entry. The gate has
    no exact form, so ``_plan`` refuses the circuit, naming it, before any
    amplitude is touched. ``verify`` passes this mutant below eps = 6.5e-5."""
    circuit = protocols._CIRCUITS["restricted221", None]
    *steps, fixup = circuit.steps
    assert fixup.gate is Z and fixup.when[1] == 1
    shifted = fixup._replace(gate=Gate(Z.matrix @ np.diag([1, np.exp(1j * eps)]), "z_eps"))
    _no_amplitudes(monkeypatch)
    with pytest.raises(ValueError, match=_no_exact_form(r"gate 'z_eps' on \(bob:1\)")):
        protocols._compile(circuit._replace(steps=(*steps, shifted)), None, "hand_built")
    monkeypatch.undo()
    # the mutant was compiled by value: the table's circuit still compiles
    assert protocols._CIRCUITS["restricted221", None] is circuit
    protocols._compile(circuit, None, "restricted221")


@pytest.mark.parametrize(
    "circuit, step",
    [
        (Circuit(bell_phi_plus(A0, B0), DATA, (Measure((A0,), "computational"),), B0), "the pairs on alice:0, bob:0"),
        (_hand_built(Apply(Gate(random_unimodular(np.random.default_rng(23)).matrix, "u"), (B0,))), r"gate 'u' on \(bob:0\)"),
    ],
    ids=["bell_phi_plus_pairs", "seeded_rotation"],
)
def test_a_step_with_no_exact_form_is_refused_before_any_amplitude(monkeypatch, circuit, step):
    """``bell_phi_plus`` normalises its amplitude to one ulp above
    1/sqrt(2), which is off the grid, and a seeded rotation has no exact
    form: ``_plan`` refuses each, naming it, before any amplitude is
    touched."""
    _no_amplitudes(monkeypatch)
    with pytest.raises(ValueError, match=_no_exact_form(step)):
        protocols._compile(circuit, None, "hand_built")


def test_branch_of_weight_zero_on_its_class_is_refused():
    """Alice copies her pair half's bit onto alice:1 before the slot and
    again after it, so her measurement of alice:1 reads whether the black
    box E_ij flipped the bit, i != j. On the commuting class, which spans
    E_00 and E_11, the branches that read 1 are zero, though the play keeps
    them for E_01 and E_10: they fit every frame with c_b = 0, the other
    branches' weights sum to exactly 1, and the compile refuses the first
    zero one by name, since ``_finish`` could not normalise it."""
    parity = Measure((A1,), "computational")
    alice = Measure((A0,), "computational")
    steps = (*protocols._spread_amplitudes(A0, B0, DATA), Apply(CNOT, (A0, A1)), Slot(A0), Apply(CNOT, (A0, A1)),
             parity, Apply(H, (A0,)), alice, Apply(Z, (B0,), (alice, 1)), Measure((B1,), "computational"))
    circuit = Circuit(StateVector(np.kron([1, 0, 0, 1], [1, 0, 0, 0]), (A0, B0, A1, B1)), DATA, steps, B0)
    with pytest.raises(InvariantViolation, match=r"^hand_built branch 0/1/0/0 has weight 0 on its class$"):
        protocols._compile(circuit, COMMUTING, "hand_built")


# ---------------------------------------------------------------------------
# each distinct branch output finished once


#: Per compiled instrument, each branch's group: bqst and one11 leave Bob
#: U psi on every branch up to sign, universal221 and restricted221 split
#: by Bob's last outcome (U psi, and U sz psi or its fix-up sz U sz psi).
_GROUPS = {
    ("bqst", None): (0,) * 16,
    ("universal221", None): (0, 1) * 8,
    ("restricted221", None): (0, 1) * 8,
    ("one11", COMMUTING): (0,) * 4,
    ("one11", ANTICOMMUTING): (0,) * 4,
    ("one11", None): (0,) * 4,
}


#: Per compiled instrument, the paper's Pauli frame (V_b, W_b) of each
#: branch, as indices into (1, sx, sy, sz), where Bob's last outcome is 0
#: and where it is 1, and each branch's weight |c_b|^2: Bob holds U psi, or
#: U sz psi where universal221 fails, which restricted221's fix-up makes
#: sz U sz psi, +-U psi on both sets.
_I, _SZ = 0, 3
_PAPER_FRAMES = {
    ("bqst", None): ((_I, _I), (_I, _I), 1 / 16),
    ("universal221", None): ((_I, _I), (_I, _SZ), 1 / 16),
    ("restricted221", None): ((_I, _I), (_SZ, _SZ), 1 / 16),
    ("one11", COMMUTING): ((_I, _I), (_I, _I), 1 / 4),
    ("one11", ANTICOMMUTING): ((_I, _I), (_I, _I), 1 / 4),
    ("one11", None): ((_I, _I), (_I, _I), 1 / 4),
}


def _played_tensor(protocol, promise):
    """The instrument tensor as the comb plays it, before the frame fit:
    the integer grid times 2^(-e/2), (8, B * 2), its rows off the class
    zero, one11's classes summed."""
    if promise is None and protocol == "one11":
        return _played_tensor(protocol, COMMUTING) + _played_tensor(protocol, ANTICOMMUTING)
    plan = protocols._plan(protocols._CIRCUITS[protocol, promise])
    amps, powers, _ = protocols._play(plan)
    out = _grid_values(amps, powers).transpose(*plan.readout[:3], 0, plan.readout[3]).copy()
    out[~protocols._CLASSES[promise]] = 0
    return out.reshape(8, -1)


@pytest.mark.parametrize("key", list(_GROUPS), ids=str)
def test_each_instrument_groups_its_branches_by_output_up_to_sign(key):
    """Each branch's frame and weight are the paper's, exactly: every
    nonzero entry of the tensor is c_b = +-1/4 (+-1/2 for one11) bit for
    bit, since the frames here are 1 and sz, the weights are 1/16 (1/4) and
    they sum to exactly 1. The tensor is the played grid times 2^(-e/2),
    byte for byte, signed zeros included; the groups follow from the frames."""
    inst = protocols._instrument(*key)
    assert inst.group == _GROUPS[key]
    on_zero, on_one, weight = _PAPER_FRAMES[key]
    assert inst.frames == tuple(on_one if record[-1][2] == "1" else on_zero for record in inst.records)
    assert inst.weights == (weight,) * len(inst.records) and sum(inst.weights) == 1.0
    nonzero = inst.tensor[inst.tensor != 0]
    assert not nonzero.imag.any() and set(np.abs(nonzero.real).tolist()) == {0.5 if key[0] == "one11" else 0.25}
    assert inst.tensor.tobytes() == _played_tensor(*key).tobytes()
    distinct = sorted(set(inst.group))
    assert inst.reps == tuple(inst.group.index(d) for d in distinct)
    assert inst.counts == tuple(inst.group.count(d) for d in distinct)
    columns = inst.tensor.reshape(8, -1, 2)
    for b, d in enumerate(inst.group):
        rep = columns[:, inst.reps[d]]
        assert np.array_equal(columns[:, b], rep) or np.array_equal(columns[:, b], -rep)


def test_universal221_succeeds_with_probability_exactly_one_half():
    """The weights of universal221's (1, 1)-frame branches, where Bob holds
    U psi, sum to exactly 1/2, the paper's success probability."""
    inst = protocols._instrument("universal221", None)
    assert sum(w for w, frame in zip(inst.weights, inst.frames) if frame == (_I, _I)) == 0.5


def _every_branch_finished(name, us, psis, promises):
    """The oracle: the table ``run_batch`` gives, with every branch
    contracted from its own column of the instrument and finished on its
    own, by the per-branch formula the engine used before it grouped
    branches. Returns (probability, fidelity, succeeded, bob_final)."""
    rows = protocols._rows(us, psis, promises, protocols._PRECONDITIONS[name])
    inst = protocols._instrument(name, None)
    inputs = (rows.u[:, :, :, None] * rows.psi[:, None, None, :]).reshape(len(rows.psi), 8)
    if name == "one11":
        inputs[protocols._OFF_CLASS[rows.promise]] = 0
    amps = (inputs @ inst.tensor).reshape(len(rows.psi), len(inst.records), 2)
    probs = statevector._squared_norms(amps)
    finals = amps / np.sqrt(probs)[..., None]
    lead = np.where(np.abs(finals[..., 0]) >= np.abs(finals[..., 1]), finals[..., 0], finals[..., 1])
    finals *= (lead.conj() / np.abs(lead))[..., None]
    fids = np.abs(finals @ (rows.u @ rows.psi[..., None]).conj())[..., 0] ** 2 / probs.sum(axis=1)[:, None]
    return probs, fids, fids >= 1.0 - tolerances.SUCCESS_TOL, finals


def _assert_matches_every_branch_finished(name, us, psis, promises):
    """Probabilities and ``succeeded`` bit for bit; Bob's states bit for
    bit but for an amplitude that is exactly zero, which may carry the
    other sign of zero on a branch whose column is its group's negation;
    fidelities within 8 ulps, since the D outputs' overlaps are taken by
    a product of another shape, and none above 1."""
    table = protocols.run_batch(name, us, psis, promises)
    probs, fids, succeeded, finals = _every_branch_finished(name, us, psis, promises)
    assert table.probability.tobytes() == probs.tobytes()
    assert table.succeeded.tobytes() == succeeded.tobytes()
    assert np.array_equal(table.bob_final, finals)
    bits, want = table.bob_final.view(np.uint64), finals.view(np.uint64)
    assert ((bits == want) | (finals.view(float) == 0)).all()
    fidelity = table.distinct_fidelity.take(table.group, axis=1)
    np.testing.assert_array_max_ulp(fidelity, fids, maxulp=8)
    assert fidelity.max() <= 1.0


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_grouped_finish_matches_every_branch_finished(name):
    """300 seeded rows of z rotations, half turns and (where the protocol
    takes them) Haar rotations, on |0>, |1>, [1, 1e-9] and Haar states;
    one11 with the two promises mixed in one batch."""
    us, psis, promises = _batch_rows(name, seed=sorted(PROTOCOLS).index(name) + 2701, count=300)
    psis = [[1, 1e-9] if k % 8 == 3 else psi for k, psi in enumerate(psis)]
    if name == "one11":
        assert {COMMUTING, ANTICOMMUTING} <= set(promises)
    _assert_matches_every_branch_finished(name, us, psis, promises)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_a_column_one_ulp_off_its_group_is_finished_on_its_own(monkeypatch, name):
    """The last branch's column scaled by 1 + 2**-52 at compile: it is no
    longer equal to any other column, so it gets a group of its own, and
    the run still matches every branch finished on its own."""
    play = protocols._play

    def scaled(plan):
        amps, powers, outcomes = play(plan)
        amps[-1] *= 1 + 2.0**-52
        return amps, powers, outcomes

    monkeypatch.setattr(protocols, "_play", scaled)
    protocols._instrument.cache_clear()
    try:
        inst = protocols._instrument(name, None)
        want = _GROUPS[name, None]
        assert inst.group == want[:-1] + (len(set(want)),)
        us, psis, promises = _batch_rows(name, seed=sorted(PROTOCOLS).index(name) + 2711, count=40)
        _assert_matches_every_branch_finished(name, us, psis, promises)
    finally:
        protocols._instrument.cache_clear()


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_a_rows_states_are_built_by_state_once_per_distinct_output(monkeypatch, name):
    """``BatchOutcome.row`` builds Bob's states with the ``_state`` that
    ``protocols`` binds, one call per distinct output the branches it picks
    (all of them, or a list) fall in, and hands out the objects it built."""
    us, psis, promises = _batch_rows(name, seed=sorted(PROTOCOLS).index(name) + 2731, count=6)
    table = protocols.run_batch(name, us, psis, promises)
    built, state = [], protocols._state
    monkeypatch.setattr(protocols, "_state", lambda amps, register: built.append(state(amps, register)) or built[-1])
    last = len(table.group) - 1
    for n, branches in enumerate([None, [0], [last, 0, last], list(range(last, -1, -1))]):
        built.clear()
        outcomes = table.row(n, branches)
        picked = range(len(table.group)) if branches is None else branches
        assert len(built) == len({table.group[b] for b in picked})
        assert {id(o.bob_final) for o in outcomes} == set(map(id, built))
        for b, outcome in zip(picked, outcomes):
            assert outcome.bob_final.register == (table.bob_qubit,)
            assert outcome.bob_final.amplitudes.tobytes() == table.distinct_final[n, table.group[b]].tobytes()


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("name", ["bqst", "one11", "universal221", "restricted221"])
def test_a_row_of_a_300_row_batch_is_its_single_call(name, mode):
    """Row n of a 300-row batch is, bit for bit, what the single call on
    row n returns; in sampled mode, the branch it draws. bqst and one11
    have one distinct output per row (D = 1), the 221 protocols more."""
    seed = {"bqst": 2721, "one11": 2722, "universal221": 2723, "restricted221": 2724}[name]
    us, psis, promises = _batch_rows(name, seed=seed, count=300)
    table = protocols.run_batch(name, us, psis, promises)
    for n in range(0, 300, 7):
        cfg = ProtocolConfig(u=us[n], psi=psis[n], promise=promises[n], mode=mode, seed=n if mode == "sampled" else None)
        single = PROTOCOLS[name](cfg)
        branches = [table.records.index(o.measurement_record) for o in single]
        _same_outcomes(single, table.row(n, branches))


def test_branch_arrays_are_spread_once_and_read_only():
    us, psis, _ = _batch_rows("universal221", seed=2731, count=20)
    table = protocols.run_batch("universal221", us, psis)
    assert not table.distinct_fidelity.flags.writeable
    for name in ("probability", "succeeded", "bob_final"):
        spread = getattr(table, name)
        assert getattr(table, name) is spread
        assert not spread.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            spread[0, 0] = 0
        distinct = getattr(table, "distinct_final" if name == "bob_final" else f"distinct_{name}")
        assert not distinct.flags.writeable
        assert spread.shape[:2] == (20, 16)
        assert spread.tobytes() == distinct[:, list(table.group)].tobytes()


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_a_single_call_builds_no_branch_arrays(monkeypatch, name):
    """``row`` and the sampled draw read the distinct values: a single
    call, exact or sampled, never spreads them onto the branches."""

    def refuse(self, distinct):
        raise AssertionError("branch arrays built")

    monkeypatch.setattr(protocols.BatchOutcome, "_spread", refuse)
    for cfg in _configs(name, "exact", seed=2741, count=4):
        assert len(PROTOCOLS[name](cfg)) == (4 if name == "one11" else 16)
    for cfg in _configs(name, "sampled", seed=2742, count=4):
        assert len(PROTOCOLS[name](cfg)) == 1


# ---------------------------------------------------------------------------
# one configuration is the one-row case of the batch path


def _same_outcomes(single, batched):
    """Exact equality, field by field, of two outcome lists."""
    assert len(single) == len(batched)
    for a, b in zip(single, batched):
        assert a.measurement_record == b.measurement_record
        assert a.probability == b.probability
        assert a.target_fidelity == b.target_fidelity
        assert a.succeeded == b.succeeded
        assert a.ledger == b.ledger
        assert a.bob_final.register == b.bob_final.register
        assert a.bob_final.amplitudes.tobytes() == b.bob_final.amplitudes.tobytes()


def test_row_gives_the_branches_asked_for_in_their_order():
    table = protocols.run_batch("universal221", [rz(0.3), Unimodular(0.6, 0.8j)], [[0.6, 0.8], [1, 1j]])
    for n in (0, 1):
        every = table.row(n)
        _same_outcomes(table.row(n, [5, 2, 5]), [every[5], every[2], every[5]])


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_row_shares_one_state_per_distinct_output(name, mode):
    """A single call, row 0 of its one-row batch, against a per-branch
    oracle read from the spread branch arrays, byte for byte. In exact mode
    the D distinct outputs give D state objects, and two branches share one
    exactly when they share a group."""
    us, psis, promises = _batch_rows(name, seed=sorted(PROTOCOLS).index(name) + 3501, count=6)
    for k, (u, psi, promise) in enumerate(zip(us, psis, promises)):
        table = protocols.run_batch(name, [u], [psi], [promise])
        cfg = ProtocolConfig(u=u, psi=psi, promise=promise, mode=mode, seed=k if mode == "sampled" else None)
        got = PROTOCOLS[name](cfg)
        branches = [table.records.index(o.measurement_record) for o in got]
        assert branches == list(range(len(table.records))) if mode == "exact" else len(branches) == 1
        for o, b in zip(got, branches):
            assert np.float64(o.probability).tobytes() == table.probability[0, b].tobytes()
            assert np.float64(o.target_fidelity).tobytes() == table.distinct_fidelity[0, table.group[b]].tobytes()
            assert o.succeeded is bool(table.succeeded[0, b])
            assert o.ledger == table.ledger and o.bob_final.register == (table.bob_qubit,)
            assert o.bob_final.amplitudes.tobytes() == table.bob_final[0, b].tobytes()
        if mode == "exact":
            finals = [o.bob_final for o in got]
            assert len({id(final) for final in finals}) == table.distinct_final.shape[1]
            for b, c in np.ndindex(len(got), len(got)):
                assert (finals[b] is finals[c]) == (table.group[b] == table.group[c])


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_single_call_is_row_zero_of_its_one_row_batch(name):
    """On 50 seeded configurations, a ``run_*`` call returns exactly what
    ``run_batch`` returns for its one row: not within a tolerance, bit for
    bit. For one11 the rows alternate between the two promises, and one
    batch of all 50 rows must give each row as its single call does, which
    pins the class inputs each row keeps of the summed instrument."""
    us, psis, promises = _batch_rows(name, seed=sorted(PROTOCOLS).index(name) + 90, count=50)
    for u, psi, promise in zip(us, psis, promises):
        single = PROTOCOLS[name](ProtocolConfig(u=u, psi=psi, promise=promise))
        _same_outcomes(single, protocols.run_batch(name, [u], [psi], [promise]).row(0))
    if name == "one11":
        assert promises[:4] == [COMMUTING, ANTICOMMUTING] * 2
        table = protocols.run_batch(name, us, psis, promises)
        for n, (u, psi, promise) in enumerate(zip(us, psis, promises)):
            _same_outcomes(PROTOCOLS[name](ProtocolConfig(u=u, psi=psi, promise=promise)), table.row(n))


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_row_hands_out_read_only_states_of_bobs_qubit(name):
    us, psis, promises = _batch_rows(name, seed=3, count=3)
    table = protocols.run_batch(name, us, psis, promises)
    for outcomes in (table.row(1), table.row(2, [0])):
        for o in outcomes:
            assert o.bob_final.register == (table.bob_qubit,)
            assert not o.bob_final.amplitudes.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                o.bob_final.amplitudes[0] = 0.0


# ---------------------------------------------------------------------------
# the sampled draw: down each instrument's tree of exact weights


def _tree_leaves(node, path=()):
    """(branch, path) for each leaf of a draw tree, in tree order, the path
    as (child index, conditional weight) per measurement."""
    if type(node) is not protocols._Node:
        yield node, path
        return
    for k, (weight, child) in enumerate(zip(node.weights, node.children)):
        yield from _tree_leaves(child, path + ((k, weight),))


def _tree_nodes(node):
    if type(node) is protocols._Node:
        yield node
        for child in node.children:
            yield from _tree_nodes(child)


@pytest.mark.parametrize("key", list(protocols._CIRCUITS), ids=str)
def test_each_instruments_draw_tree_holds_its_exact_weights(key):
    """Every node's conditional weights are nonzero and sum to exactly 1;
    the leaves are the branches in ``_play``'s order, one per record; two
    leaves share their path down to a level exactly when their records
    share the outcomes down to it; and the product of the conditional
    weights down to leaf b is ``weights[b]``, compared with ``==``. one11's
    class instruments share records, weights and tree, and its summed
    instrument, which sampled runs draw from, has that tree."""
    inst = protocols._instrument(*key)
    for node in _tree_nodes(inst.tree):
        assert len(node.weights) == len(node.children) > 1
        assert sum(node.weights) == 1.0 and 0.0 not in node.weights
    leaves = list(_tree_leaves(inst.tree))
    assert [b for b, _ in leaves] == list(range(len(inst.records)))
    for b, path in leaves:
        assert len(path) == len(inst.records[b])
        assert math.prod(weight for _, weight in path) == inst.weights[b]
    for level in range(len(inst.records[0]) + 1):
        prefixes = {(inst.records[b][:level], tuple(k for k, _ in path[:level])) for b, path in leaves}
        assert len(prefixes) == len({p for p, _ in prefixes}) == len({k for _, k in prefixes})
    if key[0] == "one11":
        commuting, anticommuting = (protocols._instrument("one11", c) for c in (COMMUTING, ANTICOMMUTING))
        assert (commuting.records, commuting.weights) == (anticommuting.records, anticommuting.weights)
        assert commuting.tree == anticommuting.tree == protocols._instrument("one11", None).tree


def _float_walk(table, rng, n=0) -> int:
    """The draw a sampled run made before the draw tree: one branch of row
    n, drawn down the tree a measurement at a time, each outcome with its
    probability given those before it (the weight below it), summed from
    the row's float probabilities."""
    distinct, group = table.distinct_probability[n].tolist(), table.group
    probs = [distinct[d] for d in group]
    branches = list(range(len(table.records)))
    for level in range(len(table.records[0])):
        children = [list(c) for _, c in groupby(branches, lambda b: table.records[b][level])]
        weights = [sum(probs[b] for b in child) for child in children]
        branches = children[sample_index([w / sum(weights) for w in weights], rng)]
    return branches[0]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_the_tree_draw_is_the_float_walk(monkeypatch, name):
    """2,000 seeded sampled calls per protocol, on z rotations, half turns
    and (where the protocol takes them) Haar rotations, one11 under both
    promises: each draws the branch that the float walk on its row draws
    with the same seed, and leaves its generator where the walk leaves its
    own, so their next draws are equal. On an admitted row each branch's
    probability is its weight times one factor of the row, so the two can
    differ only where a draw falls within rounding of a boundary."""
    us, psis, promises = _batch_rows(name, seed=sorted(PROTOCOLS).index(name) + 4101, count=2000)
    table = protocols.run_batch(name, us, psis, promises)
    generators, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: generators.append(default_rng(seed)) or generators[-1])
    mismatches = 0
    for n, (u, psi, promise) in enumerate(zip(us, psis, promises)):
        (got,) = PROTOCOLS[name](ProtocolConfig(u=u, psi=psi, promise=promise, mode="sampled", seed=n))
        walk = default_rng(n)
        mismatches += got.measurement_record != table.records[_float_walk(table, walk, n)]
        assert generators[-1].random() == walk.random()
    assert len(generators) == len(us)
    assert mismatches == 0
