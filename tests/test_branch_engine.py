"""The batched branch-tensor engine against the per-branch engine it replaced.

``ReferenceRun`` keeps one renormalised ``StateVector`` per branch of a
single configuration and drives ``apply_gate``, ``measure``,
``sample_branch`` and ``factor_qubit`` one branch at a time, and it counts
its own ledger. It has the interface of ``protocols._Run``, so a protocol
runs on it unchanged once it is patched in; ``run_batch`` is compared with
it row by row. In sampled mode it draws one branch per measurement as it
goes, where the engine draws a path from its exact tree after the run.
"""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from remotegate import (
    ANTICOMMUTING,
    COMMUTING,
    PROTOCOLS,
    Gate,
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
    verify,
)

ORACLE_TOL = 1e-12


@dataclass
class _Branch:
    state: StateVector
    probability: float
    record: tuple[tuple[str, str, str], ...]


class ReferenceRun:
    """Per-branch engine for one configuration: a list of normalised branch
    states. Its ledger holds one e-bit per pair and the bits of each outcome
    that a party other than the one who measured it reads."""

    def __init__(self, pairs: StateVector, data: QubitId, rows, seed=None):
        """One row of ``rows``; with a ``seed``, one branch drawn per measurement."""
        ((self.u,), (self.psi,)) = rows.u, rows.psi
        state = tensor(pairs, qubit_state(self.psi[0], self.psi[1], data))
        self.branches = [_Branch(state, 1.0, ())]
        self.rng = None if seed is None else np.random.default_rng(seed)
        self.pairs = pairs.n // 2
        self.measured = []  # (party, bits) of each measurement
        self.read_across = set()  # measurements the other party read

    def apply(self, gate, targets, when=None):
        if not isinstance(gate, Gate):
            gate = Gate(gate[0], "row 0")
        if when is not None:
            m, value = when
            if self.measured[m][0] != targets[0].owner:
                self.read_across.add(m)
        for br in self.branches:
            if when is None or int(br.record[m][2], 2) == value:
                br.state = apply_gate(br.state, gate, targets)

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

    def result(self, bob_qubit: QubitId):
        target = self.u @ self.psi
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
        return _ReferenceResult(outcomes)


@dataclass
class _ReferenceResult:
    """The reference's branches, in the table form the ``run_*`` functions read."""

    outcomes: list

    def __post_init__(self):
        self.records = [o.measurement_record for o in self.outcomes]
        self.probability = np.array([[o.probability for o in self.outcomes]])
        self.live = np.ones_like(self.probability, dtype=bool)

    def row(self, n, branches=None):
        assert n == 0
        return self.outcomes if branches is None else [self.outcomes[b] for b in branches]


def _reference(monkeypatch, name, cfg):
    seed = cfg.seed if cfg.mode == "sampled" else None
    with monkeypatch.context() as patch:
        patch.setattr(protocols, "_Run", lambda pairs, data, rows: ReferenceRun(pairs, data, rows, seed))
        return PROTOCOLS[name](cfg)


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


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_run_batch_matches_per_branch_engine(monkeypatch, name):
    us, psis, promises = _batch_rows(name, seed=sorted(PROTOCOLS).index(name) + 60)
    table = protocols.run_batch(name, us, psis, promises)
    n_branch = len(table.records)
    for array in (table.probability, table.fidelity, table.succeeded, table.live):
        assert array.shape == (len(us), n_branch)
    assert table.bob_final.shape == (len(us), n_branch, 2)
    for n, (u, psi, promise) in enumerate(zip(us, psis, promises)):
        ref = _reference(monkeypatch, name, ProtocolConfig(u=u, psi=psi, promise=promise))
        (kept,) = np.nonzero(table.live[n])
        assert [table.records[b] for b in kept] == [o.measurement_record for o in ref]
        for b, o in zip(kept, ref):
            assert table.ledger == o.ledger
            assert table.succeeded[n, b] == o.succeeded
            assert abs(table.probability[n, b] - o.probability) <= ORACLE_TOL
            assert abs(table.fidelity[n, b] - o.target_fidelity) <= ORACLE_TOL
            assert np.abs(table.bob_final[n, b] - o.bob_final.amplitudes).max() <= ORACLE_TOL


def _leaky_row(monkeypatch, bad):
    """Make the black box of row ``bad`` damp |1>. The stack is replaced as
    the rows a run takes are stored (by ``ProtocolConfig`` for one
    configuration, by ``run_batch`` for N), after every check on it."""
    rows = protocols._Rows

    def leaky(u, psi, promise):
        u = u.copy()
        u[bad] = np.diag([1.0, 0.5])
        return rows(u=u, psi=psi, promise=promise)

    monkeypatch.setattr(protocols, "_Rows", leaky)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_batch_non_unitary_row_is_named(monkeypatch, name):
    us = [rz(0.1 * k) for k in range(6)]
    _leaky_row(monkeypatch, 3)
    promise = COMMUTING if name == "one11" else None
    with pytest.raises(InvariantViolation, match=r"of row 3 sum to .*not unitary"):
        protocols.run_batch(name, us, [[0.6, 0.8]] * 6, promise)


@pytest.mark.parametrize(
    "name, us, psis, promise, message",
    [
        ("restricted221", [rz(0.3), rz(0.5), Unimodular(0.6, 0.8)], None, None, r"row 2: operator is neither"),
        ("one11", [rz(0.3), rz(0.5)], None, [COMMUTING, ANTICOMMUTING], r"row 1: promise violation"),
        ("universal221", [rz(0.3)] * 5, [[1, 0]] * 4 + [[np.nan, 1]], None, r"row 4: psi\[0\] is not finite"),
        ("bqst", [rz(0.3)] * 3, [[1, 0], [0, 0], [0, 1]], None, r"row 1: psi must be nonzero"),
        # (N, 2) arrays: a bad pair or state row is named as in a list
        ("bqst", np.array([[1, 0], [0.6, 0.7], [1, 0]]), None, None, r"row 1: not unimodular: .* by 1\.500e-01$"),
        ("universal221", np.array([[1, 0], [1, 0], [np.inf, 0]]), None, None, r"row 2: Unimodular\.a is not finite: \(inf\+0j\)$"),
        ("bqst", np.array([[1, 0], [1, 0]]), np.array([[1, 0], [0, np.nan]]), None, r"row 1: psi\[1\] is not finite"),
        ("one11", np.array([[1, 0]] * 3), np.array([[1, 0], [1, 0], [0, 0]]), COMMUTING, r"row 2: psi must be nonzero"),
        ("bqst", [rz(0.3)] * 2, [[1, 0], [1, 0, 0, 0]], None, r"row 1: psi must be a single-qubit state"),
        ("one11", [rz(0.3)] * 2, None, [COMMUTING, "sideways"], r"row 1: unknown promise 'sideways'"),
        # the first bad row is named, with the first check it fails
        ("bqst", [rz(0.3), (np.nan, 0)], [[1, 0], [0, 0]], None, r"row 1: Unimodular\.a is not finite"),
        ("bqst", np.empty((0, 2)), np.empty((0, 2)), None, r"^a batch needs at least one configuration$"),
        ("bqst", [], [], None, r"^a batch needs at least one configuration$"),
        ("bqst", [rz(0.3)] * 2, [[1, 0]], None, r"^2 rotations, 1 states and 2 promises do not match$"),
    ],
)
def test_batch_input_errors_name_the_row(name, us, psis, promise, message):
    psis = [[0.6, 0.8]] * len(us) if psis is None else psis
    with pytest.raises(ValueError, match=message):
        protocols.run_batch(name, us, psis, promise)


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


def test_branch_is_dropped_only_when_no_row_keeps_it():
    """Rows near |0> and at |1>: each keeps one outcome of the data qubit, so
    both children stay, live in one row each; the |0> pair half keeps
    outcome 0 in every row, so its outcome-1 child is dropped. Row 0's
    dead branch still holds amplitude 1e-7, which the table must not show."""
    a, b, data = QubitId("alice", 0), QubitId("bob", 0), QubitId("bob", 1)
    rows = protocols._rows([rz(0.3)] * 2, [[1, 1e-7], [0, 1]], None, protocols._any_config)
    run = protocols._Run(basis_state("00", (a, b)), data, rows)
    run.measure([data], "computational")
    assert run.live.tolist() == [[True, False], [False, True]]
    run.measure([a], "computational")
    assert [r[-1][2] for r in run.records] == ["0", "0"]
    table = run.result(b)
    assert table.live.tolist() == [[True, False], [False, True]]
    assert abs(table.probability[0, 0] - 1.0) <= ORACLE_TOL
    assert table.probability[1].tolist() == [0.0, 1.0]
    for n, dead in ((0, 1), (1, 0)):
        assert table.probability[n, dead] == table.fidelity[n, dead] == 0.0
        assert not table.succeeded[n, dead]
        assert table.bob_final[n, dead].tolist() == [0, 0]
    assert [[o.branch_id for o in table.row(n)] for n in (0, 1)] == [["0/0"], ["1/0"]]


def test_entangled_output_names_the_row():
    a, b, data = QubitId("alice", 0), QubitId("bob", 0), QubitId("bob", 1)
    rows = protocols._rows([rz(0.3)] * 2, [[1, 0], [1, 1]], None, protocols._any_config)
    run = protocols._Run(basis_state("00", (a, b)), data, rows)
    run.apply(protocols.CNOT, [data, b])
    with pytest.raises(InvariantViolation, match="bob:0 is entangled in row 1"):
        run.result(b)


# ---------------------------------------------------------------------------
# LOCC and the derived ledger

A0, A1, B0, B1, DATA = QubitId("alice", 0), QubitId("alice", 1), QubitId("bob", 0), QubitId("bob", 1), QubitId("bob", 2)


def _hand_built_run():
    """Alice's and Bob's pair halves in |0000> (two pairs, by count) and
    Bob's data qubit in 0.6|0> + 0.8|1>."""
    cfg = ProtocolConfig(u=rz(0.3), psi=[0.6, 0.8])
    return protocols._Run(basis_state("0000", (A0, A1, B0, B1)), DATA, cfg.rows)


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
    assert run.result(DATA).ledger.as_tuple() == ledger


def test_when_reads_the_named_measurement():
    """Bob flips bob:0 on the data outcome after a later measurement of
    alice:0, whose outcome is always 0; the flip must follow the data bit."""
    run = _hand_built_run()
    data = run.measure([DATA], "computational")
    run.measure([A0], "computational")
    run.apply(protocols.X, [B0], when=(data, 1))
    table = run.result(B0)
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


def test_target_equal_to_a_register_qubit_resolves_to_its_axis():
    """Steps naming fresh ``QubitId`` objects act on the register slots they
    equal: flip the data qubit, copy it onto bob:0 and read Bob's output."""
    run = _hand_built_run()
    data, bob0 = QubitId("bob", 2), QubitId("bob", 0)
    assert data is not DATA and bob0 is not B0
    run.apply(protocols.X, [data])
    run.apply(protocols.CNOT, [data, bob0])
    run.measure([QubitId("bob", 0)], "computational")
    table = run.result(QubitId("bob", 2))
    assert run.records == [(("bob", "computational", "0"),), (("bob", "computational", "1"),)]
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
    assert run.result(DATA).ledger.as_tuple() == (2, bits, 0)


def test_batch_memory_drops_measured_qubits(monkeypatch):
    """1000 restricted 2-2-1 rows peak near 2.4 MB of numpy allocations with
    measured qubits dropped; kept, they would take about 40 MB."""
    us, psis, _ = _batch_rows("restricted221", seed=7, count=1000)
    final = {}
    result = protocols._Run.result

    def spy(run, bob_qubit):
        final["shape"], final["register"] = run.amps.shape, run.register
        return result(run, bob_qubit)

    monkeypatch.setattr(protocols._Run, "result", spy)
    tracemalloc.start()
    try:
        protocols.run_batch("restricted221", us, psis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert final == {"shape": (1000, 16, 2), "register": (QubitId("bob", 1),)}


def _per_call_draws(rng, kind, count):
    """The configurations verify's sampling loops drew one call at a time."""
    rows = []
    for k in range(count):
        if kind == "haar":
            u = random_unimodular(rng)
        elif k % 2 == 0:
            u = rz(rng.uniform(0, 2 * np.pi))
        else:
            u = Unimodular(0, np.exp(1j * rng.uniform(0, 2 * np.pi)))
        rows.append((u, random_qubit(rng)))
    return rows


@pytest.mark.parametrize(
    "check, kind, count",
    [
        ("protocols.universal_success_half", "haar", 100),
        ("protocols.restricted_perfect", "in_set", 1000),
        ("protocols.one11_perfect", "in_set", 1000),
        ("protocols.failure_branch_identity", "haar", 100),
    ],
)
def test_verify_batch_draws_the_per_call_samples(monkeypatch, check, kind, count):
    batches = []
    run_batch = protocols.run_batch

    def spy(protocol, us, psis, promise=None):
        batches.append((us, psis))
        return run_batch(protocol, us, psis, promise)

    monkeypatch.setattr(protocols, "run_batch", spy)
    passed, detail = dict(verify.registry())[check](np.random.default_rng(5))
    assert passed, detail
    ((us, psis),) = batches
    expected = _per_call_draws(np.random.default_rng(5), kind, count)
    assert isinstance(us, np.ndarray) and isinstance(psis, np.ndarray)
    assert np.array_equal(us, [(u.a, u.b) for u, _ in expected])
    assert np.array_equal(psis, [psi for _, psi in expected])
