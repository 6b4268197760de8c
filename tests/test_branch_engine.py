"""The branch-tensor engine against the per-branch engine it replaced.

``ReferenceRun`` keeps one renormalised ``StateVector`` per branch and
drives ``apply_gate``, ``measure``, ``sample_branch`` and ``factor_qubit``
one branch at a time. It has the interface of ``protocols._Run``, so a
protocol runs on it unchanged once it is patched in.
"""

from dataclasses import dataclass, replace

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
    factor_qubit,
    measure,
    protocols,
    random_qubit,
    random_unimodular,
    rz,
    sample_branch,
)

ORACLE_TOL = 1e-12


@dataclass
class _Branch:
    state: StateVector
    probability: float
    record: tuple[tuple[str, str, str], ...]


class ReferenceRun:
    """Per-branch engine: a list of normalised branch states."""

    def __init__(self, state: StateVector, cfg: ProtocolConfig):
        self.branches = [_Branch(state, 1.0, ())]
        self.rng = np.random.default_rng(cfg.seed) if cfg.mode == "sampled" else None
        self.ledger = ResourceLedger()

    def apply(self, gate: Gate, targets, when=None):
        for br in self.branches:
            if when is None or br.record[-1][2] == when:
                br.state = apply_gate(br.state, gate, targets)

    def measure(self, targets, basis: str, party: str):
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

    def outcomes(self, cfg: ProtocolConfig, bob_qubit: QubitId):
        target = cfg.u.matrix @ cfg.psi
        results = []
        for br in self.branches:
            final = StateVector(factor_qubit(br.state, bob_qubit), (bob_qubit,))
            fid = float(abs(np.vdot(target, final.amplitudes)) ** 2)
            results.append(
                protocols.ProtocolOutcome(
                    measurement_record=br.record,
                    probability=br.probability,
                    bob_final=final,
                    target_fidelity=fid,
                    succeeded=fid >= 1.0 - protocols.SUCCESS_TOL,
                    ledger=replace(self.ledger),
                )
            )
        return results


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
        with monkeypatch.context() as patch:
            patch.setattr(protocols, "_Run", ReferenceRun)
            ref = run(cfg)
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
    """A black box that damps |1>, slipped past Gate's unitarity check, must
    fail the run; the per-branch engine renormalised it away unseen."""
    leaky = Gate(np.eye(2), "leaky")
    object.__setattr__(leaky, "matrix", np.diag([1.0, 0.5]))
    monkeypatch.setattr(Unimodular, "as_gate", lambda self, name="u": leaky)
    cfg = ProtocolConfig(
        u=rz(0.4),
        psi=[0.6, 0.8],
        promise=COMMUTING if name == "one11" else None,
        mode=mode,
        seed=5 if mode == "sampled" else None,
    )
    with pytest.raises(InvariantViolation, match="not unitary"):
        PROTOCOLS[name](cfg)
