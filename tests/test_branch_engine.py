"""The batched branch-tensor engine against the per-branch engine it replaced.

``ReferenceRun`` keeps one ``StateVector`` per branch of a single
configuration, its post-state as ``measure`` gives it (the projected
amplitudes divided by the square root of the branch's probability; no
kernel renormalises), and drives ``apply_gate``, ``measure``,
``sample_branch`` and ``factor_qubit`` one branch at a time, and it counts
its own ledger. It has the interface of ``protocols._Run``, so a protocol's
circuit runs on it unchanged once it is patched in, except that its black
box applies the configuration's real ``Gate(U)`` where the engine's is the
comb's slot; the compiled runs (``run_*`` and ``run_batch``) are compared
with it row by row. In sampled mode it draws one branch per measurement as
it goes, where the engine draws a path from its exact tree after the run.
"""

import re
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

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
    factor_qubit,
    measure,
    protocols,
    qubit_state,
    random_qubit,
    random_unimodular,
    rz,
    sample_branch,
    tensor,
    tolerances,
)
from remotegate.gates import RowError

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

    def __init__(self, pairs: StateVector, data: QubitId, cfg: ProtocolConfig, seed=None):
        """Bob's ``data`` qubit in ``cfg.psi`` beside the ``pairs``; with a
        ``seed``, one branch drawn per measurement."""
        self.u, self.psi = cfg.u.as_gate(), cfg.psi
        state = tensor(pairs, qubit_state(self.psi[0], self.psi[1], data))
        self.branches = [_Branch(state, 1.0, ())]
        self.rng = None if seed is None else np.random.default_rng(seed)
        self.pairs = pairs.n // 2
        self.measured = []  # (party, bits) of each measurement
        self.read_across = set()  # measurements the other party read

    def apply(self, gate, targets, when=None):
        if when is not None:
            m, value = when
            if self.measured[m][0] != targets[0].owner:
                self.read_across.add(m)
        for br in self.branches:
            if when is None or int(br.record[m][2], 2) == value:
                br.state = apply_gate(br.state, gate, targets)

    def black_box(self, q: QubitId):
        self.apply(self.u, [q])

    def measure(self, targets, basis: str):
        party = targets[0].owner
        self.measured.append((party, len(targets)))
        expanded = []
        for br in self.branches:
            options = measure(br.state, targets, basis)
            if self.rng is not None:
                options = [sample_branch(options, self.rng)]
            for opt in options:
                expanded.append(
                    _Branch(
                        state=opt.post_state,
                        probability=br.probability * opt.probability,
                        record=br.record + ((party, basis, opt.outcome),),
                    )
                )
        self.branches = expanded
        return len(self.measured) - 1

    def result(self, bob_qubit: QubitId) -> list:
        target = self.u.matrix @ self.psi
        sent = {"alice": 0, "bob": 0}
        for m in self.read_across:
            party, bits = self.measured[m]
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


def _reference(monkeypatch, name, cfg):
    """The branches of ``cfg`` from the protocol's circuit run step by step
    on ``ReferenceRun``, bypassing the compiled instrument (in sampled mode,
    the one branch drawn as it went)."""
    seed = cfg.seed if cfg.mode == "sampled" else None
    built = []
    with monkeypatch.context() as patch:
        patch.setattr(protocols, "_Run", lambda pairs, data: built.append(ReferenceRun(pairs, data, cfg, seed)) or built[-1])
        run, bob_qubit = protocols._CIRCUITS[name][1](cfg.promise)
        outcomes = run.result(bob_qubit)
    assert built == [run]
    return outcomes


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
def test_branch_tensor_matches_per_branch_engine(monkeypatch, name, mode):
    run = PROTOCOLS[name]
    for cfg in _configs(name, mode, seed=sorted(PROTOCOLS).index(name) + 40):
        fast = run(cfg)
        ref = _reference(monkeypatch, name, cfg)
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


def _assert_batch_matches_per_branch_engine(monkeypatch, name, us, psis, promises):
    table = protocols.run_batch(name, us, psis, promises)
    n_branch = len(table.records)
    for array in (table.probability, table.fidelity, table.succeeded):
        assert array.shape == (len(us), n_branch)
    assert table.bob_final.shape == (len(us), n_branch, 2)
    for n, (u, psi, promise) in enumerate(zip(us, psis, promises)):
        ref = _reference(monkeypatch, name, ProtocolConfig(u=u, psi=psi, promise=promise))
        assert list(table.records) == [o.measurement_record for o in ref]
        for b, o in enumerate(ref):
            assert table.ledger == o.ledger
            assert table.succeeded[n, b] == o.succeeded
            assert abs(table.probability[n, b] - o.probability) <= ORACLE_TOL
            assert abs(table.fidelity[n, b] - o.target_fidelity) <= ORACLE_TOL
            assert np.abs(table.bob_final[n, b] - o.bob_final.amplitudes).max() <= ORACLE_TOL


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_run_batch_matches_per_branch_engine(monkeypatch, name):
    us, psis, promises = _batch_rows(name, seed=sorted(PROTOCOLS).index(name) + 60)
    _assert_batch_matches_per_branch_engine(monkeypatch, name, us, psis, promises)


#: Every (protocol, promise class) that is compiled.
_COMPILED = [("bqst", None), ("universal221", None), ("restricted221", None),
             ("one11", COMMUTING), ("one11", ANTICOMMUTING)]


def _leaky_row(monkeypatch, bad, gain=0.5):
    """Make the black box of row ``bad`` scale |1> by ``gain`` (damp it, by
    default). The stack is replaced as the rows a run takes are stored (by
    ``ProtocolConfig`` for one configuration, by ``run_batch`` for N), after
    every check on it."""
    rows = protocols._Rows

    def leaky(u, psi, promise):
        u = u.copy()
        u[bad] = np.diag([1.0, gain])
        return rows(u=u, psi=psi, promise=promise)

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


def _damp_row_2(matrices):
    matrices[2] = matrices[2] @ np.diag([1.0, 0.5])
    return matrices


def _residual_of_row_2(residuals):
    residuals[2] = 0.25
    return residuals


@pytest.mark.parametrize(
    "stack, spoil, message",
    [
        # the black boxes are checked as built, not only as (a, b) pairs
        ("unimodular_matrices", _damp_row_2, r"^row 2: gate 'u' is not unitary within 1e-10$"),
        # the stacked residual decides, and the error quotes it
        ("unimodular_residuals", _residual_of_row_2, r"^row 2: not unimodular: .* by 2\.500e-01$"),
    ],
)
def test_batch_refuses_the_row_its_stack_refuses(monkeypatch, stack, spoil, message):
    build = getattr(protocols, stack)
    monkeypatch.setattr(protocols, stack, lambda pairs: spoil(build(pairs)))
    with pytest.raises(ValueError, match=message):
        protocols.run_batch("bqst", [rz(0.1 * k) for k in range(4)], [[0.6, 0.8]] * 4)


@pytest.mark.parametrize(
    "stack, spoil, message",
    [
        ("unimodular_matrices", lambda m: m @ np.diag([1.0, 0.5]), r"^gate 'u' is not unitary within 1e-10$"),
        ("unimodular_residuals", lambda residuals: residuals + 0.25, r"^not unimodular: .* by 2\.500e-01$"),
    ],
)
def test_single_call_refuses_what_its_stack_refuses(monkeypatch, stack, spoil, message):
    build = getattr(protocols, stack)
    monkeypatch.setattr(protocols, stack, lambda pairs: spoil(build(pairs)))
    with pytest.raises(ValueError, match=message) as info:
        protocols.run_bqst(ProtocolConfig(u=rz(0.1), psi=[0.6, 0.8]))
    assert type(info.value) is ValueError


def _run_circuit(monkeypatch, circuit, psis, us=None):
    """Run ``circuit``, a hand-built circuit on the comb that returns (run,
    Bob's qubit), as ``run_batch`` runs a protocol: compiled once, then
    contracted with the rows of ``psis``. The black box is 1 unless ``us``
    are given; a circuit without a ``black_box`` step needs it to be."""
    monkeypatch.setitem(protocols._CIRCUITS, "hand_built", (protocols._any_config, lambda promise: circuit()))
    protocols._instrument.cache_clear()
    return protocols.run_batch("hand_built", [Unimodular(1, 0)] * len(psis) if us is None else us, psis)


def test_branch_is_dropped_only_when_every_row_drops_it(monkeypatch):
    """Both rows keep both outcomes of the data qubit; Alice's |0> half
    gives outcome 1 for no black box and no input, so the compile drops
    that child and it is in no row of the table."""
    a, b, data = QubitId("alice", 0), QubitId("bob", 0), QubitId("bob", 1)

    def circuit():
        run = protocols._Run(basis_state("00", (a, b)), data)
        run.measure([data], "computational")
        run.measure([a], "computational")
        return run, b

    table = _run_circuit(monkeypatch, circuit, [[0.6, 0.8], [0.8, 0.6j]])
    assert table.probability.shape == (2, 2)
    assert [[o.branch_id for o in table.row(n)] for n in (0, 1)] == [["0/0", "1/0"]] * 2
    assert np.abs(table.probability - [[0.36, 0.64], [0.64, 0.36]]).max() <= ORACLE_TOL


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
    probability 1/16 (1/4 for one11) in every row, so no row drops one."""
    pairs = _EDGE_US
    if name in ("bqst", "universal221"):
        rng = np.random.default_rng(9)
        pairs = pairs + [(random_unimodular(rng), None) for _ in range(3)]
    configs = [(u, promise, psi) for u, promise in pairs for psi in _EDGE_PSIS]
    us, promises, psis = zip(*configs)
    table = protocols.run_batch(name, us, psis, promises if name == "one11" else None)
    n_branch = 4 if name == "one11" else 16
    assert table.probability.shape == (len(configs), n_branch)
    assert np.abs(table.probability - 1.0 / n_branch).max() <= protocols.PROB_TOL


def test_entangled_output_names_the_row(monkeypatch):
    a, b, data = QubitId("alice", 0), QubitId("bob", 0), QubitId("bob", 1)

    def circuit():
        run = protocols._Run(basis_state("00", (a, b)), data)
        run.apply(protocols.CNOT, [data, b])
        return run, b

    with pytest.raises(InvariantViolation, match="bob:0 is entangled in row 1"):
        _run_circuit(monkeypatch, circuit, [[1, 0], [1, 1]])


# ---------------------------------------------------------------------------
# LOCC and the derived ledger

A0, A1, B0, B1, DATA = QubitId("alice", 0), QubitId("alice", 1), QubitId("bob", 0), QubitId("bob", 1), QubitId("bob", 2)


def _hand_built_run():
    """Alice's and Bob's pair halves in |0000> (two pairs, by count) and
    Bob's data qubit, paired with the comb's reference R_psi."""
    return protocols._Run(basis_state("0000", (A0, A1, B0, B1)), DATA)


@pytest.mark.parametrize(
    "step, message",
    [
        (lambda run: run.apply(protocols.CNOT, [A0, B1]), r"gate 'cnot' on \(alice:0, bob:1\)"),
        (lambda run: run.measure([A1, B0], "bell"), r"bell measurement on \(alice:1, bob:0\)"),
        (lambda run: run.measure([DATA, A0], "computational"), r"computational measurement on \(bob:2, alice:0\)"),
    ],
    ids=["apply", "bell", "computational"],
)
def test_step_across_the_cut_is_refused(step, message):
    with pytest.raises(ValueError, match=message + r" crosses the Alice\|Bob cut"):
        step(_hand_built_run())


def _bob_reads_his_bit(run):
    m = run.measure([B0], "computational")
    run.apply(protocols.X, [DATA], when=(m, 1))


def _bob_reads_alices_bit(run):
    m = run.measure([A0], "computational")
    run.apply(protocols.X, [DATA], when=(m, 1))


def _alice_reads_bobs_bit_twice(run):
    m = run.measure([B0], "computational")
    run.apply(protocols.X, [A0], when=(m, 0))
    run.apply(protocols.Z, [A1], when=(m, 0))


def _bob_reads_one_bell_outcome_three_times(run):
    m = run.measure([A0, A1], "bell")
    for value, gate in ((1, protocols.Z), (2, protocols.X), (3, protocols.ZX)):
        run.apply(gate, [DATA], when=(m, value))


@pytest.mark.parametrize(
    "steps, ledger",
    [
        (lambda run: None, (2, 0, 0)),
        (_bob_reads_his_bit, (2, 0, 0)),
        (_bob_reads_alices_bit, (2, 1, 0)),
        (_alice_reads_bobs_bit_twice, (2, 0, 1)),
        (_bob_reads_one_bell_outcome_three_times, (2, 2, 0)),
    ],
    ids=["no_reads", "own_bit", "a_to_b", "b_to_a_twice", "bell_thrice"],
)
def test_ledger_counts_each_outcome_read_across_the_cut_once(steps, ledger):
    run = _hand_built_run()
    steps(run)
    assert run.ledger.as_tuple() == ledger


def test_when_reads_the_named_measurement(monkeypatch):
    """Bob flips bob:0 on the data outcome after a later measurement of
    alice:0, whose outcome is always 0; the flip must follow the data bit."""

    def circuit():
        run = _hand_built_run()
        data = run.measure([DATA], "computational")
        run.measure([A0], "computational")
        run.apply(protocols.X, [B0], when=(data, 1))
        return run, B0

    table = _run_circuit(monkeypatch, circuit, [[0.6, 0.8]])
    assert [o.branch_id for o in table.row(0)] == ["0/0", "1/0"]
    assert table.bob_final[0].tolist() == [[1, 0], [0, 1]]
    assert table.ledger.as_tuple() == (2, 0, 0)


@pytest.mark.parametrize(
    "step, message",
    [
        (lambda run: run.apply(protocols.X, [QubitId("alice", 5)]), r"^qubit alice:5 not in register$"),
        (lambda run: run.measure([B0, QubitId("bob", 7)], "bell"), r"^qubit bob:7 not in register$"),
        (lambda run: run.apply(protocols.X, [DATA], when=(run.measure([DATA], "computational"), 1)),
         r"^qubit bob:2 not in register$"),
        (lambda run: run.apply(protocols.CNOT, [B0, B0]), r"^duplicate targets$"),
        (lambda run: run.measure([A1, A1], "bell"), r"^duplicate targets$"),
        # equal qubits that are distinct objects are the same register slot
        (lambda run: run.apply(protocols.CNOT, [B0, QubitId("bob", 0)]), r"^duplicate targets$"),
        (lambda run: run.measure([QubitId("alice", 1), QubitId("alice", 1)], "bell"), r"^duplicate targets$"),
    ],
    ids=["apply_unknown", "measure_unknown", "measured_before", "apply_same", "measure_same",
         "apply_equal", "measure_equal"],
)
def test_engine_refuses_targets_outside_the_register_or_repeated(step, message):
    with pytest.raises(ValueError, match=message):
        step(_hand_built_run())


def test_target_equal_to_a_register_qubit_resolves_to_its_axis(monkeypatch):
    """Steps naming fresh ``QubitId`` objects act on the register slots they
    equal: flip the data qubit, copy it onto bob:0 and read Bob's output."""

    def circuit():
        run = _hand_built_run()
        data, bob0 = QubitId("bob", 2), QubitId("bob", 0)
        assert data is not DATA and bob0 is not B0
        run.apply(protocols.X, [data])
        run.apply(protocols.CNOT, [data, bob0])
        run.measure([QubitId("bob", 0)], "computational")
        return run, QubitId("bob", 2)

    table = _run_circuit(monkeypatch, circuit, [[0.6, 0.8]])
    assert table.records == ((("bob", "computational", "0"),), (("bob", "computational", "1"),))
    assert table.probability[0] == pytest.approx([0.64, 0.36], abs=ORACLE_TOL)
    assert table.bob_final[0].tolist() == [[1, 0], [0, 1]]


@pytest.mark.parametrize(
    "targets, basis, bits",
    [([A0], "computational", 1), ([A0, A1], "bell", 2), ([A0, A1], "computational", 2)],
    ids=["one_qubit", "bell", "two_qubit"],
)
def test_outcome_read_across_the_cut_costs_its_qubit_count(targets, basis, bits):
    """The measurement log holds each measurement's qubit count once; the
    record labels and the ledger's bits both follow from it."""
    run = _hand_built_run()
    m = run.measure(targets, basis)
    assert run.log == [("alice", basis, bits)]
    assert {len(record[m][2]) for record in run.records} == {bits}
    run.apply(protocols.X, [DATA], when=(m, 0))
    assert run.ledger.as_tuple() == (2, bits, 0)


def test_batch_memory_drops_measured_qubits(monkeypatch):
    """1000 restricted 2-2-1 rows, compile included, peak near 1.9 MB of
    numpy allocations. The compile run drops measured qubits and ends on
    Bob's output qubit and the comb's three references; kept, the four
    measured qubits would make each branch 16 times as large."""
    us, psis, _ = _batch_rows("restricted221", seed=7, count=1000)
    built, engine = [], protocols._Run
    monkeypatch.setattr(protocols, "_Run", lambda *args: built.append(engine(*args)) or built[-1])
    protocols._instrument.cache_clear()
    tracemalloc.start()
    try:
        protocols.run_batch("restricted221", us, psis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    ((run,),) = [built]
    assert run.amps.shape == (16, 2, 2, 2, 2)
    assert run.register == (QubitId("bob", 1), protocols._R_PSI, protocols._R_IN, protocols._R_OUT)


# ---------------------------------------------------------------------------
# compiled instruments


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_compiled_run_matches_the_step_by_step_circuit(monkeypatch, name):
    """``run_batch`` against the circuit run step by step, with the real
    black box, on ``ReferenceRun``: 40 seeded rows of z rotations, half
    turns and (where the protocol takes them) Haar rotations, both one11
    classes in one batch, on |0>, |1>, [1, 1e-9] and Haar states."""
    us, psis, promises = _batch_rows(name, seed=sorted(PROTOCOLS).index(name) + 80, count=40)
    psis = [[1, 1e-9] if k % 8 == 3 else psi for k, psi in enumerate(psis)]
    _assert_batch_matches_per_branch_engine(monkeypatch, name, us, psis, promises)


def test_each_protocol_compiles_once_per_promise_class(monkeypatch):
    """100 ``run_*`` calls, exact and sampled, over every protocol and both
    one11 classes, build one engine per (protocol, promise class)."""
    compiled, built = Counter(), []
    for name, (precondition, circuit) in protocols._CIRCUITS.items():
        def counted(promise, name=name, circuit=circuit):
            compiled[name, promise] += 1
            return circuit(promise)

        monkeypatch.setitem(protocols._CIRCUITS, name, (precondition, counted))
    engine = protocols._Run
    monkeypatch.setattr(protocols, "_Run", lambda *args: built.append(engine(*args)) or built[-1])
    protocols._instrument.cache_clear()
    rng = np.random.default_rng(3)
    for k in range(100):
        name = sorted(PROTOCOLS)[k % 4]
        u, promise = _in_set(rng, k // 4)
        cfg = ProtocolConfig(u=u, psi=random_qubit(rng), promise=promise if name == "one11" else None,
                             mode="sampled" if k % 3 else "exact", seed=k)
        assert PROTOCOLS[name](cfg)
    assert compiled == Counter(_COMPILED)
    assert len(built) == len(_COMPILED)


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
    comm, anti = protocols.commutation_norms(protocols.unimodular_matrices(near), protocols.sigma_z)
    norms = comm if promise == COMMUTING else anti
    assert (0.5 * tolerances.CLASS_TOL < norms).all() and (norms <= tolerances.CLASS_TOL).all()
    psis = [random_qubit(rng) for _ in range(8)]
    a, b = (protocols.run_batch("one11", us, psis, promise) for us in (near, clean))
    assert np.array_equal(a.probability, b.probability)
    assert np.array_equal(a.bob_final, b.bob_final)


def test_branch_negligible_in_one_row_is_refused(monkeypatch):
    """Row 1 gives each outcome 1 probability 1e-7, and other boxes and
    inputs reach each child, so the compile keeps all four: branch 1/1 of
    row 1 holds 1e-14 of the row, where row 0 holds 1/4, and is refused."""
    a, b, data = QubitId("alice", 0), QubitId("bob", 0), QubitId("bob", 1)
    t = np.arcsin(np.sqrt(1e-7))

    def circuit():
        run = protocols._Run(basis_state("00", (a, b)), data)
        run.measure([data], "computational")
        run.black_box(a)
        run.measure([a], "computational")
        return run, b

    us = [(np.cos(np.pi / 4), np.sin(np.pi / 4)), (np.cos(t), np.sin(t))]
    with pytest.raises(InvariantViolation, match=r"^row 1 drops branch 1/1 \(probability 1\.000e-14\), which every row keeps$"):
        _run_circuit(monkeypatch, circuit, [[1, 1], [np.cos(t), np.sin(t)]], us)


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
        assert np.array_equal(a.bob_final.amplitudes, b.bob_final.amplitudes)


def test_row_gives_the_branches_asked_for_in_their_order():
    table = protocols.run_batch("universal221", [rz(0.3), Unimodular(0.6, 0.8j)], [[0.6, 0.8], [1, 1j]])
    for n in (0, 1):
        every = table.row(n)
        _same_outcomes(table.row(n, [5, 2, 5]), [every[5], every[2], every[5]])


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_single_call_is_row_zero_of_its_one_row_batch(name):
    """On 50 seeded configurations, a ``run_*`` call returns exactly what
    ``run_batch`` returns for its one row: not within a tolerance, bit for
    bit. For one11 the rows alternate between the two promises, and one
    batch of all 50 rows must give each row as its single call does, which
    pins the half of the side-by-side instrument each row keeps."""
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


def test_final_state_that_is_not_a_unit_vector_is_refused(monkeypatch):
    """``_finish`` certifies Bob's final states once per table. Damage the
    normalisation of row 1, branch 5 (``np.sqrt`` of the branch
    probabilities doubled there): the state is a half-length vector, and
    the refusal names the row and the branch."""
    us, psis, _ = _batch_rows("universal221", seed=4, count=3)
    branch = "/".join(outcome for _, _, outcome in protocols._instrument("universal221", None).records[5])
    sqrt = np.sqrt

    def damaged(x, *args, **kwargs):
        out = sqrt(x, *args, **kwargs)
        if np.ndim(out) == 2:  # the (N, B) branch norms in _finish
            out[1, 5] *= 2.0
        return out

    monkeypatch.setattr(np, "sqrt", damaged)
    message = rf"^row 1 branch {branch}: Bob's final state is not a unit vector \(norm\^2 off by 7\.500e-01\)$"
    with pytest.raises(InvariantViolation, match=message):
        protocols.run_batch("universal221", us, psis)


def test_final_state_that_is_too_long_is_refused(monkeypatch):
    """As above with the norm of row 1, branch 5 halved: the state is twice
    a unit vector, its norm^2 off by 3."""
    us, psis, _ = _batch_rows("universal221", seed=4, count=3)
    branch = "/".join(outcome for _, _, outcome in protocols._instrument("universal221", None).records[5])
    sqrt = np.sqrt

    def damaged(x, *args, **kwargs):
        out = sqrt(x, *args, **kwargs)
        if np.ndim(out) == 2:  # the (N, B) branch norms in _finish
            out[1, 5] *= 0.5
        return out

    monkeypatch.setattr(np, "sqrt", damaged)
    message = rf"^row 1 branch {branch}: Bob's final state is not a unit vector \(norm\^2 off by 3\.000e\+00\)$"
    with pytest.raises(InvariantViolation, match=message):
        protocols.run_batch("universal221", us, psis)
