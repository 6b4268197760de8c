"""Protocol circuits as data, and their exact compile to instruments.

A ``Circuit`` holds shared pairs and steps: ``Apply`` a gate, perhaps on an
earlier outcome, ``Measure`` qubits, or Alice's black box in its ``Slot``.
``_plan`` resolves it on the one-slot comb, refusing steps across the
Alice|Bob cut; ``_play`` runs every branch on the integer grid
(``_exact_form``); ``_compile`` fits each branch's Pauli frame by equality
into the ``_Instrument`` a run contracts with and a sampled run walks
(``_draw``). No tolerance is read here: every test is an equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .gates import CNOT, PAULIS, Gate, identity2
from .operators import ANTICOMMUTING, COMMUTING
from .statevector import InvariantViolation, QubitId, StateVector, _BASES, _SQRT2, _apply_matrix, _split, sample_index


@dataclass(frozen=True)
class ResourceLedger:
    """Consumed e-bits and classical bits sent in each direction."""

    ebits_consumed: int = 0
    cbits_a_to_b: int = 0
    cbits_b_to_a: int = 0

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.ebits_consumed, self.cbits_a_to_b, self.cbits_b_to_a)


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


def _root2_powers(e):
    """sqrt(2)**e as exact forms read it: 2**(e // 2), times the rounded
    sqrt(2) where e is odd."""
    return np.ldexp(_SQRT2 ** (e % 2), e // 2)


def _exact_form(values: np.ndarray, what) -> tuple[np.ndarray, int]:
    """``values`` on the integer grid: Gaussian integers k, held as floats,
    and the least e below 32 with values == k / ``_root2_powers(e)`` bit for
    bit (H is [[1, 1], [1, -1]] over e = 1). Sums and products of such k are
    exact while they stay below 2**53. Refuses ``values`` with no such form,
    naming them as ``str(what)``, formatted only then."""
    for e in range(32):
        scale = _root2_powers(e)
        k = np.round(values * scale)
        if (k / scale == values).all():
            return k, e
    raise ValueError(f"{what} has no exact form k / sqrt(2)**e with k Gaussian integers: it cannot be played exactly")


def _expand(steps):
    """The steps with each ``Slot`` as the comb's slot: a SWAP moves its
    qubit's state to R_in, and a CNOT gives the qubit R_out's."""
    for step in steps:
        yield from (Apply(_SWAP, (step.qubit, _R_IN)), Apply(CNOT, (_R_OUT, step.qubit))) if type(step) is Slot else (step,)


def _plan(circuit: Circuit) -> _Plan:
    """Resolve ``circuit`` on the comb before any amplitude is touched. A
    qubit named twice among the pairs, the data qubit and the comb's
    references, an output that is one of those references, and a data or
    output qubit that is not Bob's are refused by name. Each step acts for
    the party that owns its qubits, and a step across the Alice|Bob cut is
    refused (LOCC: local operations and classical communication), as are a
    target not in the register or repeated, a wrong gate arity or basis
    size, a ``when`` that names no earlier measurement or a value outside
    its outcomes, and any qubit left unmeasured but the output and the
    comb's references, and pairs or a gate with no exact form. Each
    measurement is logged once, as its party, basis and qubit count; the
    outcome labels and the ledger follow from that log: one e-bit per
    shared pair, and in each direction the bits of every outcome one party
    measured and the other read, once however many steps read it."""
    shared = circuit.pairs
    register = list(shared.register + (circuit.data, _R_PSI, _R_IN, _R_OUT))
    for n, q in enumerate(register):
        if q in register[:n] or q == circuit.output and q in (_R_PSI, _R_IN, _R_OUT):
            raise ValueError(f"register conflict: {q} named twice among the pairs, the data and output qubits and the comb's references")
    for role, q in (("data", circuit.data), ("output", circuit.output)):
        if q.owner != "bob":
            raise ValueError(f"the {role} qubit {q} is not Bob's")
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


# ---------------------------------------------------------------------------
# the compile: one play per promise class, certified by equality


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
    ``counts[d]`` branches, the first of them ``reps[d]``; ``counts`` is the
    float vector a run weighs its D distinct probabilities with. Branches of
    a group give one output up to sign, so a run contracts with
    ``distinct_tensor``, the columns of the D representatives, flattened
    from (D, 2): ``tensor.reshape(8, B, 2)[:, reps]``, built here once.
    Both arrays are read-only. ``tree`` is the branch tree that a sampled
    run draws down (``_draw_tree``)."""

    tensor: np.ndarray  # (8, B * 2)
    records: tuple[tuple[tuple[str, str, str], ...], ...]
    frames: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    ledger: ResourceLedger
    bob_qubit: QubitId
    group: tuple[int, ...]
    reps: tuple[int, ...]
    counts: np.ndarray  # (D,)
    distinct_tensor: np.ndarray  # (8, D * 2)
    tree: _Node | int


#: Per promise class, the E_ij it spans.
_CLASSES = {None: np.ones((2, 2), dtype=bool), COMMUTING: np.eye(2, dtype=bool), ANTICOMMUTING: ~np.eye(2, dtype=bool)}
#: The 16 ordered Pauli pairs (V, W), pair 4 v + w for V and W the v-th and
#: w-th of (1, sx, sy, sz), as maps of the black box:
#: _FRAMES[p, i, j, o, m] = (V E_ij W)[o, m] = V[o, i] W[j, m].
_FRAMES = np.einsum("voi,wjm->vwijom", (identity2, *PAULIS), (identity2, *PAULIS)).reshape(16, 2, 2, 2, 2)


def _grouped(keys, tensor: np.ndarray) -> dict:
    """``_Instrument``'s ``group``, ``reps``, ``counts`` and
    ``distinct_tensor`` for branches whose ``keys`` are equal within a
    group, numbered in the order of their first branch, and the
    instrument's (8, B * 2) ``tensor``."""
    first = {}
    group = [first.setdefault(key, len(first)) for key in keys]
    reps = tuple(map(group.index, range(len(first))))
    counts = np.array(list(map(group.count, range(len(first)))), dtype=float)
    distinct = tensor.reshape(8, -1, 2)[:, reps].reshape(8, -1)
    counts.setflags(write=False)
    distinct.setflags(write=False)
    return {"group": tuple(group), "reps": reps, "counts": counts, "distinct_tensor": distinct}


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
    same output up to sign on every row, and form a group, whose first
    branch's columns a run contracts with (``distinct_tensor``). Not cached:
    ``_instrument`` caches the protocols' circuits. A circuit without
    exactly one ``Slot`` is refused after ``_plan``, naming the count,
    before any amplitude: the box is used once per run."""
    plan = _plan(circuit)
    slots = sum(type(step) is Slot for step in circuit.steps)
    if slots != 1:
        raise ValueError(f"{where} has {slots} black-box slots: a circuit uses the black box exactly once")
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
                       plan.ledger, circuit.output, **_grouped(keys, tensor), tree=_draw_tree(records, weights))


def _draw(node: _Node | int, rng: np.random.Generator) -> int:
    """The branch reached down the draw tree ``node`` (``_draw_tree``): one
    ``sample_index`` per measurement, on its node's weights."""
    while type(node) is _Node:
        node = node.children[sample_index(node.weights, rng)]
    return node
