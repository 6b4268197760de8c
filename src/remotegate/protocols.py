"""Two-party protocols that implement a rotation on Bob's qubit remotely.

Alice holds the black box applying an unknown rotation U; Bob holds a qubit
in an arbitrary state psi. The parties may only act locally, share prepared
(|00> + |11>)/sqrt(2) pairs, and exchange classical bits. Every protocol
returns the exhaustive branch tree (or one sampled path) together with a
ledger of consumed e-bits and classical bits per direction:

* ``run_bqst``            baseline via two state teleportations, (2, 2, 2)
* ``run_universal_221``   any U, succeeds with probability 1/2,  (2, 2, 1)
* ``run_restricted_221``  U (anti)commuting with sz, always,     (2, 2, 1)
* ``run_111``             as above with the class known upfront, (1, 1, 1)

The capacity demos bound the resources from below: a gate applying a Pauli
picked by two control bits creates 2 e-bits from nothing and carries 2
classical bits toward Bob, and a plain controlled-NOT carries 1 bit back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gates import (
    CNOT,
    Gate,
    H,
    X,
    Z,
    controlled,
    controlled_phase,
    require_finite,
    sigma_x,
    sigma_y,
    sigma_z,
    unit_vector,
)
from .operators import (
    ANTICOMMUTING,
    COMMUTING,
    GENERAL,
    Unimodular,
    Z_AXIS,
    classify_operator,
    rz,
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
    fidelity_up_to_phase,
    measure,
    minus_state,
    plus_state,
    qubit_state,
    sample_index,
    tensor,
)
from .tolerances import BRANCH_PRUNE, FACTOR_TOL, NORM_TOL, PROB_TOL, SUCCESS_TOL

#: Pauli fix-up on the receiving qubit, keyed by Bell outcome.
BELL_CORRECTIONS = {
    "00": None,
    "01": Z,
    "10": X,
    "11": Gate(sigma_x @ sigma_z, "xz"),
}

ZX = Gate(sigma_z @ sigma_x, "zx")


@dataclass
class ResourceLedger:
    """Consumed e-bits and classical bits sent in each direction."""

    ebits_consumed: int = 0
    cbits_a_to_b: int = 0
    cbits_b_to_a: int = 0

    def consume_ebit(self):
        self.ebits_consumed += 1

    def send_a_to_b(self, bits: int):
        self.cbits_a_to_b += bits

    def send_b_to_a(self, bits: int):
        self.cbits_b_to_a += bits

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
class ProtocolConfig:
    """Inputs of a run: the black-box rotation, Bob's state, an optional
    promise about the rotation's class, and the execution mode."""

    u: Unimodular
    psi: np.ndarray
    promise: str | None = None
    mode: str = "exact"
    seed: int | None = None

    def __post_init__(self):
        psi = np.asarray(
            self.psi.amplitudes if isinstance(self.psi, StateVector) else self.psi,
            dtype=complex,
        ).reshape(-1)
        if psi.shape != (2,):
            raise ValueError("psi must be a single-qubit state")
        require_finite("psi", psi)
        psi = unit_vector(psi, NORM_TOL)
        if psi is None:
            raise ValueError("psi must be nonzero")
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "sampled" and self.seed is None:
            raise ValueError("sampled mode requires a seed")
        if self.promise is not None:
            if self.promise not in (COMMUTING, ANTICOMMUTING):
                raise ValueError(f"unknown promise {self.promise!r}")
            actual = classify_operator(self.u, Z_AXIS).kind
            if actual != self.promise:
                raise ValueError(
                    f"promise violation: operator classifies as {actual}, "
                    f"promise says {self.promise}"
                )


# ---------------------------------------------------------------------------
# branch tensor

#: Measurement bases as rows of outcome vectors, keyed by (basis, qubits).
_BASES = {
    ("computational", 1): np.eye(2),
    ("computational", 2): np.eye(4),
    ("bell", 2): np.array(BELL_VECTORS),
}


def _apply_matrix(matrix: np.ndarray, axes: list[int], amps: np.ndarray) -> np.ndarray:
    """``matrix`` on the given qubit axes of every branch in ``amps``."""
    k = len(axes)
    front = np.moveaxis(amps, axes, range(1, k + 1))
    out = matrix @ front.reshape(front.shape[0], 2**k, 2 ** (front.ndim - 1 - k))
    return np.moveaxis(out.reshape(front.shape), range(1, k + 1), axes)


class _Run:
    """All live branches of one protocol execution, held as one array.

    ``amps[b]`` is branch b's state with one axis per register qubit. It is
    never renormalised: its squared norm is the branch probability, so a
    step that is not unitary shows in the total when the run ends. A
    measurement moves its outcomes onto the branch axis, parent branch
    first and outcome second, which keeps the order of the branch tree.
    """

    def __init__(self, state: StateVector, cfg: ProtocolConfig):
        self.position = state.position
        self.amps = state.amplitudes.reshape((1,) + (2,) * state.n).copy()
        self.records: list[tuple[tuple[str, str, str], ...]] = [()]
        self.last = np.zeros(1, dtype=int)
        self.rng = np.random.default_rng(cfg.seed) if cfg.mode == "sampled" else None
        #: Probability the live branches carry: 1, or in sampled mode the
        #: product of the conditional probabilities drawn so far.
        self.mass = 1.0
        self.ledger = ResourceLedger()

    def _axes(self, targets) -> list[int]:
        axes = [1 + self.position(q) for q in targets]
        if len(set(axes)) != len(axes):
            raise ValueError("duplicate targets")
        return axes

    def apply(self, gate: Gate, targets, when: str | None = None):
        """Apply ``gate`` on every branch, or on those whose last outcome is ``when``."""
        axes = self._axes(targets)
        if len(axes) != gate.qubits:
            raise ValueError(
                f"gate {gate.name!r} acts on {gate.qubits} qubit(s), got {len(axes)} target(s)"
            )
        if when is None:
            self.amps = _apply_matrix(gate.matrix, axes, self.amps)
        else:
            hit = self.last == int(when, 2)
            self.amps[hit] = _apply_matrix(gate.matrix, axes, self.amps[hit])

    def measure(self, targets, basis: str, party: str):
        """Split every branch by the outcome of measuring ``targets``.

        A child whose conditional probability is below ``BRANCH_PRUNE`` is
        dropped; in sampled mode one child per measurement is drawn.
        """
        axes = self._axes(targets)
        k = len(axes)
        vecs = _BASES.get((basis, k))
        if vecs is None:
            raise ValueError(f"cannot measure {k} qubit(s) in the {basis!r} basis")
        front = np.moveaxis(self.amps, axes, range(1, k + 1))
        n_branch, dim = front.shape[0], 2**k
        mat = front.reshape(n_branch, dim, 2 ** (front.ndim - 1 - k))
        coeff = vecs.conj() @ mat
        child = np.sum(coeff.real**2 + coeff.imag**2, axis=2)
        parent = child.sum(axis=1, keepdims=True)
        # child / parent < BRANCH_PRUNE, written so that a zero parent divides nothing
        keep = ~(child < BRANCH_PRUNE * parent)
        if self.rng is not None:
            (kept,) = np.nonzero(keep[0])
            cond = child[0, kept] / parent[0, 0]
            pick = sample_index(cond, self.rng)
            self.mass *= float(cond[pick])
            keep[:] = False
            keep[0, kept[pick]] = True
        keep = keep.ravel()
        post = (vecs[None, :, :, None] * coeff[:, :, None, :]).reshape(n_branch * dim, *front.shape[1:])
        self.amps = np.moveaxis(post[keep], range(1, k + 1), axes)
        parents = np.repeat(np.arange(n_branch), dim)[keep]
        self.last = np.tile(np.arange(dim), n_branch)[keep]
        labels = [format(o, f"0{k}b") for o in range(dim)]
        self.records = [
            self.records[b] + ((party, basis, labels[o]),)
            for b, o in zip(parents.tolist(), self.last.tolist())
        ]

    def outcomes(self, cfg: ProtocolConfig, bob_qubit: QubitId) -> list[ProtocolOutcome]:
        """One outcome per branch, Bob's qubit factored out of each."""
        n_branch = len(self.records)
        flat = self.amps.reshape(n_branch, -1)
        probs = np.sum(flat.real**2 + flat.imag**2, axis=1)
        total = float(probs.sum())
        if not abs(total - self.mass) <= PROB_TOL:
            raise InvariantViolation(
                f"branch probabilities sum to {total!r}, expected {self.mass!r}: "
                "a step was not unitary"
            )
        (axis,) = self._axes([bob_qubit])
        mat = np.moveaxis(self.amps, axis, 1).reshape(n_branch, 2, -1)
        u, sing, _ = np.linalg.svd(mat, full_matrices=False)
        if sing.shape[1] > 1:
            # second Schmidt coefficient of the normalised branch <= FACTOR_TOL
            entangled = ~(sing[:, 1] <= FACTOR_TOL * np.sqrt(probs))
            if entangled.any():
                b = int(np.argmax(entangled))
                raise InvariantViolation(
                    f"qubit {bob_qubit} is entangled (second Schmidt coefficient "
                    f"{sing[b, 1] / np.sqrt(probs[b]):.3e})"
                )
        finals = u[:, :, 0]
        lead = finals[np.arange(n_branch), np.argmax(np.abs(finals), axis=1)]
        finals = finals * (lead.conj() / np.abs(lead))[:, None]
        target = cfg.u.matrix @ cfg.psi
        fids = np.abs(finals @ target.conj()) ** 2
        return [
            ProtocolOutcome(
                measurement_record=record,
                probability=prob,
                bob_final=StateVector(final, (bob_qubit,)),
                target_fidelity=fid,
                succeeded=fid >= 1.0 - SUCCESS_TOL,
                ledger=replace(self.ledger),
            )
            for record, prob, final, fid in zip(self.records, probs.tolist(), finals, fids.tolist())
        ]


def _spread_amplitudes(run: _Run, alice_half: QubitId, bob_half: QubitId, data: QubitId):
    """Move Bob's amplitudes onto a shared pair: CNOT from his pair half onto
    the data qubit, measure the data qubit, send the outcome to Alice, and
    on outcome 1 both parties flip their halves. Leaves the pair in
    alpha|00> + beta|11> and costs the e-bit plus one bit Bob -> Alice."""
    run.ledger.consume_ebit()
    run.apply(CNOT, [bob_half, data])
    run.measure([data], "computational", "bob")
    run.ledger.send_b_to_a(1)
    run.apply(X, [alice_half], when="1")
    run.apply(X, [bob_half], when="1")


def _teleport(run: _Run, source: QubitId, source_half: QubitId, dest: QubitId, sender: str):
    """Standard teleportation step: Bell-measure (source, source_half),
    send the two outcome bits, apply the Pauli fix-up on ``dest``."""
    run.ledger.consume_ebit()
    run.measure([source, source_half], "bell", sender)
    if sender == "alice":
        run.ledger.send_a_to_b(2)
    else:
        run.ledger.send_b_to_a(2)
    for outcome, gate in BELL_CORRECTIONS.items():
        if gate is not None:
            run.apply(gate, [dest], when=outcome)


# ---------------------------------------------------------------------------
# protocols


def run_bqst(cfg: ProtocolConfig) -> list[ProtocolOutcome]:
    """Baseline: teleport psi to Alice, apply U locally, teleport back.

    Every branch ends with Bob holding U|psi> exactly; the ledger is
    (2 e-bits, 2 bits each way), the cost any universal scheme must beat.
    """
    a1, a2 = QubitId("alice", 0), QubitId("alice", 1)
    b1, b2 = QubitId("bob", 0), QubitId("bob", 1)
    data = QubitId("bob", 2)
    state = tensor(
        tensor(bell_phi_plus(a1, b1), bell_phi_plus(a2, b2)),
        qubit_state(cfg.psi[0], cfg.psi[1], data),
    )
    run = _Run(state, cfg)
    _teleport(run, data, b1, a1, sender="bob")
    run.apply(cfg.u.as_gate(), [a1])
    _teleport(run, a1, a2, b2, sender="alice")
    return run.outcomes(cfg, b2)


def run_universal_221(cfg: ProtocolConfig) -> list[ProtocolOutcome]:
    """Remote implementation of an arbitrary rotation, succeeding half the
    time, with ledger (2, 2, 1).

    Steps: spread Bob's amplitudes onto the first shared pair; Alice applies
    the black box to her half and teleports it to Bob through the second
    pair; Bob applies a Hadamard to his first qubit and measures it. Outcome
    0 leaves U|psi>; outcome 1 leaves U sz|psi>, which no fixed local
    operation can repair for arbitrary U.
    """
    if cfg.promise is not None:
        raise ValueError("the universal protocol takes no promise")
    return _run_221(cfg, correct_failure=False)


def run_restricted_221(cfg: ProtocolConfig) -> list[ProtocolOutcome]:
    """Same circuit as the universal protocol plus a final sz on the failed
    branch, exact for every operator commuting or anticommuting with sz.

    Works without knowing which of the two classes U belongs to. Rejects a
    general operator up front, naming the failed commutation test.
    """
    tag = classify_operator(cfg.u, Z_AXIS)
    if tag.kind == GENERAL:
        m = cfg.u.matrix
        comm = np.linalg.norm(m @ sigma_z - sigma_z @ m)
        anti = np.linalg.norm(m @ sigma_z + sigma_z @ m)
        raise ValueError(
            "operator is neither commuting nor anticommuting with the z axis "
            f"(commutator norm {comm:.3e}, anticommutator norm {anti:.3e})"
        )
    return _run_221(cfg, correct_failure=True)


def _run_221(cfg: ProtocolConfig, correct_failure: bool) -> list[ProtocolOutcome]:
    a1, a2 = QubitId("alice", 0), QubitId("alice", 1)
    b1, b2 = QubitId("bob", 0), QubitId("bob", 1)
    data = QubitId("bob", 2)
    state = tensor(
        tensor(bell_phi_plus(a1, b1), bell_phi_plus(a2, b2)),
        qubit_state(cfg.psi[0], cfg.psi[1], data),
    )
    run = _Run(state, cfg)
    _spread_amplitudes(run, a1, b1, data)
    run.apply(cfg.u.as_gate(), [a1])
    _teleport(run, a1, a2, b2, sender="alice")
    run.apply(H, [b1])
    run.measure([b1], "computational", "bob")
    if correct_failure:
        run.apply(Z, [b2], when="1")
    return run.outcomes(cfg, b2)


def run_111(cfg: ProtocolConfig) -> list[ProtocolOutcome]:
    """Remote implementation with the operator class promised in advance,
    exact on every branch with ledger (1, 1, 1).

    After the amplitude spread, Alice applies the black box and a Hadamard
    to her half and measures it; one bit tells Bob which fix-up to apply:
    nothing / sz under the commuting promise, sx / sz sx under the
    anticommuting one.
    """
    if cfg.promise is None:
        raise ValueError("the 1-1-1 protocol requires a promise")
    a1 = QubitId("alice", 0)
    b1 = QubitId("bob", 0)
    data = QubitId("bob", 1)
    state = tensor(bell_phi_plus(a1, b1), qubit_state(cfg.psi[0], cfg.psi[1], data))
    run = _Run(state, cfg)
    _spread_amplitudes(run, a1, b1, data)
    run.apply(cfg.u.as_gate(), [a1])
    run.apply(H, [a1])
    run.measure([a1], "computational", "alice")
    run.ledger.send_a_to_b(1)
    if cfg.promise == COMMUTING:
        run.apply(Z, [b1], when="1")
    else:
        run.apply(X, [b1], when="0")
        run.apply(ZX, [b1], when="1")
    return run.outcomes(cfg, b1)


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
    protocol. Computed from the protocol branches, not from the closed form
    (1 + cos theta)/2 they reproduce."""
    points = []
    for theta in thetas:
        theta = float(theta)
        cfg = ProtocolConfig(u=rz(theta / 2.0), psi=np.array([1, 1]), promise=COMMUTING)
        p_plus = 0.0
        for out in run_111(cfg):
            ref = plus_state(out.bob_final.register[0])
            p_plus += out.probability * fidelity_up_to_phase(out.bob_final, ref)
        points.append((theta, p_plus))
    return points


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
        "ledger": {
            "ebits": outcome.ledger.ebits_consumed,
            "cbits_ab": outcome.ledger.cbits_a_to_b,
            "cbits_ba": outcome.ledger.cbits_b_to_a,
        },
    }


PROTOCOLS = {
    "bqst": run_bqst,
    "universal221": run_universal_221,
    "restricted221": run_restricted_221,
    "one11": run_111,
}
