import re
from itertools import permutations

import numpy as np
import pytest

from remotegate import (
    CNOT,
    Gate,
    H,
    InvariantViolation,
    QubitId,
    StateVector,
    X,
    apply_gate,
    basis_state,
    bell_phi_plus,
    entanglement_entropy,
    factor_qubit,
    measure,
    plus_state,
    qubit_state,
    random_unimodular,
    reduced_density,
    tensor,
)
from remotegate import statevector
from remotegate.operators import random_unimodulars, unimodular_matrices
from remotegate.statevector import _apply_matrix, _entropies, _reduced_densities, _split, sample_index
from remotegate.tolerances import BRANCH_PRUNE

A0, A1 = QubitId("alice", 0), QubitId("alice", 1)
B0, B1 = QubitId("bob", 0), QubitId("bob", 1)


class TestConstruction:
    def test_repr_gives_the_register_and_the_dimension(self):
        assert repr(bell_phi_plus(A0, B0)) == "StateVector([alice:0,bob:0], dim=4)"
        assert repr(plus_state(B1)) == "StateVector([bob:1], dim=2)"

    def test_normalizes_on_entry(self):
        s = StateVector(np.array([3.0, 4.0]), (B0,))
        np.testing.assert_allclose(s.amplitudes, [0.6, 0.8])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            StateVector(np.zeros(2), (B0,))

    @pytest.mark.parametrize("scale", [1e200, 1.5e308])
    def test_huge_entries_normalise(self, scale):
        # the squared norm overflows, and at 1.5e308 so does the norm itself
        s = StateVector([scale, 1j * scale], (B0,))
        np.testing.assert_allclose(s.amplitudes, np.array([1, 1j]) / np.sqrt(2), atol=1e-15)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="amplitudes"):
            StateVector(np.ones(3), (B0, B1))

    def test_rejects_duplicate_register(self):
        with pytest.raises(ValueError, match="register conflict"):
            StateVector(np.ones(4), (B0, B0))

    def test_rejects_unknown_party(self):
        for owner in ("eve", "blackbox"):  # the parties are Alice and Bob only
            with pytest.raises(ValueError, match="party"):
                QubitId(owner, 0)

    @pytest.mark.parametrize("index", [1.5, 1.0, True, "1", None, -1], ids=["fraction", "float", "bool", "str", "none", "negative"])
    def test_qubit_index_must_be_a_non_negative_integer(self, index):
        with pytest.raises(ValueError, match=rf"^qubit index must be a non-negative integer, got {re.escape(repr(index))}$"):
            QubitId("alice", index)

    def test_qubit_index_takes_a_numpy_integer(self):
        assert str(QubitId("bob", np.int64(2))) == "bob:2"

    def test_amplitudes_immutable(self):
        s = plus_state(B0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestTensor:
    def test_zero_tensor_one(self):
        s = tensor(basis_state("0", (A0,)), basis_state("1", (B0,)))
        np.testing.assert_allclose(s.amplitudes, [0, 1, 0, 0])
        assert s.register == (A0, B0)

    def test_bell_tensor_zero(self):
        s = tensor(bell_phi_plus(A0, B0), basis_state("0", (B1,)))
        expected = np.zeros(8)
        expected[[0, 6]] = 1 / np.sqrt(2)
        np.testing.assert_allclose(s.amplitudes, expected)

    def test_plus_tensor_plus_uniform(self):
        # Kronecker product by hand: (1,1)x(1,1)/2 = (1,1,1,1)/2.
        s = tensor(plus_state(A0), plus_state(B0))
        np.testing.assert_allclose(s.amplitudes, [0.5, 0.5, 0.5, 0.5])

    def test_register_conflict(self):
        with pytest.raises(ValueError, match="register conflict"):
            tensor(plus_state(B0), basis_state("0", (B0,)))


class TestApplyGate:
    def test_x_flips(self):
        s = apply_gate(basis_state("0", (B0,)), X, [B0])
        np.testing.assert_allclose(s.amplitudes, [0, 1])

    def test_cnot(self):
        s = StateVector(np.array([0.6, 0, 0.8, 0]), (A0, B0))
        s = apply_gate(s, CNOT, [A0, B0])
        np.testing.assert_allclose(s.amplitudes, [0.6, 0, 0, 0.8])

    def test_hadamard(self):
        s = apply_gate(basis_state("0", (B0,)), H, [B0])
        np.testing.assert_allclose(s.amplitudes, np.array([1, 1]) / np.sqrt(2))

    def test_nonadjacent_targets_match_kron_oracle(self):
        # CNOT on (first, last) of three qubits, against an explicitly
        # kron-built unitary.
        rng = np.random.default_rng(5)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        s = StateVector(amps, (A0, B0, B1))
        out = apply_gate(s, CNOT, [A0, B1])
        p0 = np.diag([1, 0]).astype(complex)
        p1 = np.diag([0, 1]).astype(complex)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        big = np.kron(p0, np.eye(4)) + np.kron(np.kron(p1, np.eye(2)), sx)
        np.testing.assert_allclose(out.amplitudes, big @ s.amplitudes, atol=1e-12)

    def test_target_not_in_register(self):
        with pytest.raises(ValueError, match="not in register"):
            apply_gate(plus_state(B0), X, [A0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="target"):
            apply_gate(plus_state(B0), CNOT, [B0])

    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            s = StateVector(amps, (A0, B0, B1))
            s = apply_gate(s, Gate(random_unimodular(rng).matrix, "u"), [B0])
            s = apply_gate(s, CNOT, [B1, A0])
            assert abs(np.linalg.norm(s.amplitudes) - 1) < 1e-10

    def test_output_is_not_renormalised(self):
        # a CNOT scaled past Gate's unitarity check: its defect must show
        leaky = object.__new__(Gate)
        leaky.__dict__.update(matrix=CNOT.matrix * (1 + 1e-6), name="leaky")
        rng = np.random.default_rng(12)
        s = StateVector(rng.normal(size=8) + 1j * rng.normal(size=8), (A0, B0, B1))
        out = apply_gate(s, leaky, [B1, A0])
        assert abs(np.linalg.norm(out.amplitudes) - (1 + 1e-6)) < 1e-15


class TestMeasure:
    def test_single_qubit_branches(self):
        s = StateVector(np.array([0.6, 0.8j]), (B0,))
        branches = measure(s, [B0])
        assert [b.outcome for b in branches] == ["0", "1"]
        np.testing.assert_allclose([b.probability for b in branches], [0.36, 0.64])
        np.testing.assert_allclose(branches[0].post_state.amplitudes, [1, 0])

    def test_bell_measure_phi_plus(self):
        branches = measure(bell_phi_plus(A0, A1), [A0, A1], basis="bell")
        assert len(branches) == 1
        assert branches[0].outcome == "00"
        assert branches[0].probability == pytest.approx(1.0, abs=1e-12)

    def test_bell_measure_shared_pair_state_quarter_each(self):
        # alpha|00> + beta|11> on (A0,B0) joined with a fresh pair on
        # (A1,B1): expanding Alice's pair in the Bell basis by hand gives
        # coefficient 1/2 on each of the four terms.
        alpha = beta = 1 / np.sqrt(2)
        left = StateVector(np.array([alpha, 0, 0, beta]), (A0, B0))
        state = tensor(left, bell_phi_plus(A1, B1))
        branches = measure(state, [A0, A1], basis="bell")
        assert [b.outcome for b in branches] == ["00", "01", "10", "11"]
        np.testing.assert_allclose([b.probability for b in branches], [0.25] * 4, atol=1e-12)

    def test_branch_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            s = StateVector(amps, (A0, B0, B1))
            total = sum(b.probability for b in measure(s, [A0, B1]))
            assert total == pytest.approx(1.0, abs=1e-10)
            total = sum(b.probability for b in measure(s, [B0, B1], basis="bell"))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_remeasure_reproduces_outcome(self):
        rng = np.random.default_rng(4)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = StateVector(amps, (A0, B0))
        for basis in ("computational", "bell"):
            targets = [A0, B0]
            for branch in measure(s, targets, basis):
                again = measure(branch.post_state, targets, basis)
                repeat = {b.outcome: b.probability for b in again}
                assert repeat[branch.outcome] == pytest.approx(1.0, abs=1e-10)

    def test_empty_targets(self):
        with pytest.raises(ValueError, match="empty"):
            measure(plus_state(B0), [])

    def test_bell_needs_two_targets(self):
        with pytest.raises(ValueError, match="bell"):
            measure(bell_phi_plus(A0, B0), [A0], basis="bell")


# ---------------------------------------------------------------------------
# every kernel against oracles built here from np.kron, basis-index
# permutations and projectors, over every target order

#: Registers of 1 to 4 qubits, owners mixed and indices out of order.
REGISTERS = [
    (QubitId("bob", 2), QubitId("alice", 0), QubitId("alice", 3), QubitId("bob", 0))[:n] for n in range(1, 5)
]
BELL_KETS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)
PROJECTOR = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


def _front_permutation(pos, n):
    """The permutation matrix taking each basis state |b_0 ... b_(n-1)> to
    the one with the bits at ``pos`` first, in order, and the rest after."""
    order = list(pos) + [q for q in range(n) if q not in pos]
    perm = np.zeros((2**n, 2**n))
    for index in range(2**n):
        bits = format(index, f"0{n}b")
        perm[int("".join(bits[q] for q in order), 2), index] = 1
    return perm


def _on_front(matrix, pos, n):
    """``matrix`` acting on the qubits at ``pos`` (first the most
    significant), identity on the others."""
    perm = _front_permutation(pos, n)
    return perm.T @ np.kron(matrix, np.eye(2 ** (n - len(pos)))) @ perm


def _parity_states(n, rng):
    """A random state, and phi+ on the first two qubits (on one qubit, |0>)
    beside a random state of the rest, which drops branches when they are
    measured."""
    rand = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    sparse = np.kron(BELL_KETS[0], rand[: 2 ** (n - 2)]) if n >= 2 else np.array([1, 0])
    return [StateVector(amps, REGISTERS[n - 1]) for amps in (rand, sparse)]


def _assert_fresh(out, s):
    assert not out.amplitudes.flags.writeable
    assert not np.shares_memory(out.amplitudes, s.amplitudes)


def _assert_branches(branches, s, projectors):
    """``branches`` against the ``projectors`` by outcome: the probability,
    the post-state and the order, and every zero-weight outcome dropped."""
    expected = []
    for outcome, proj in projectors:
        projected = proj @ s.amplitudes
        prob = np.vdot(projected, projected).real
        if prob >= BRANCH_PRUNE:
            expected.append((outcome, prob, projected / np.sqrt(prob)))
    assert [b.outcome for b in branches] == [outcome for outcome, _, _ in expected]
    for branch, (_, prob, post) in zip(branches, expected):
        assert abs(branch.probability - prob) <= 1e-15
        assert np.abs(branch.post_state.amplitudes - post).max() <= 1e-12
        assert branch.post_state.register == s.register
        _assert_fresh(branch.post_state, s)


class TestKernelParity:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_apply_gate_every_target_order(self, n):
        rng = np.random.default_rng(40 + n)
        reg = REGISTERS[n - 1]
        gate = Gate(random_unimodular(rng).matrix, "u")
        cases = [(gate, pos) for pos in permutations(range(n), 1)]
        cases += [(CNOT, pos) for pos in permutations(range(n), 2)]
        for s in _parity_states(n, rng):
            for g, pos in cases:
                out = apply_gate(s, g, [reg[p] for p in pos])
                oracle = _on_front(g.matrix, pos, n) @ s.amplitudes
                assert np.abs(out.amplitudes - oracle).max() <= 1e-12, pos
                assert out.register == reg
                _assert_fresh(out, s)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_computational_measure_every_target_order(self, n):
        rng = np.random.default_rng(50 + n)
        reg = REGISTERS[n - 1]
        for s in _parity_states(n, rng):
            for k in range(1, min(n, 3) + 1):
                for pos in permutations(range(n), k):
                    projectors = []
                    for index in range(2**k):
                        outcome = format(index, f"0{k}b")
                        factors = [PROJECTOR[int(outcome[pos.index(q)])] if q in pos else np.eye(2) for q in range(n)]
                        proj = np.ones((1, 1))
                        for factor in factors:
                            proj = np.kron(proj, factor)
                        projectors.append((outcome, proj))
                    _assert_branches(measure(s, [reg[p] for p in pos]), s, projectors)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_bell_measure_every_target_pair(self, n):
        rng = np.random.default_rng(60 + n)
        reg = REGISTERS[n - 1]
        for s in _parity_states(n, rng):
            for pos in permutations(range(n), 2):
                projectors = [
                    (format(i, "02b"), _on_front(np.outer(ket, ket), pos, n)) for i, ket in enumerate(BELL_KETS)
                ]
                _assert_branches(measure(s, [reg[p] for p in pos], "bell"), s, projectors)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_tensor_is_kron(self, n):
        rng = np.random.default_rng(70 + n)
        left = StateVector(rng.normal(size=2**n) + 1j * rng.normal(size=2**n), REGISTERS[n - 1])
        right = qubit_state(0.6, 0.8j, QubitId("alice", 9))
        out = tensor(left, right)
        assert np.array_equal(out.amplitudes, np.kron(left.amplitudes, right.amplitudes))
        assert out.register == left.register + right.register
        _assert_fresh(out, left)
        _assert_fresh(out, right)


# ---------------------------------------------------------------------------
# the branch-stack primitives that the protocols compile with and the
# statevector.* checks run on: against the kernels and oracles built here


def _stack(states):
    """States over one register as a branch stack, (N, 2, ..., 2)."""
    return np.array([s.amplitudes for s in states]).reshape((len(states),) + (2,) * states[0].n)


def _random_states(n, count, rng):
    return [StateVector(rng.normal(size=2**n) + 1j * rng.normal(size=2**n), REGISTERS[n - 1]) for _ in range(count)]


class TestBranchStacks:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_apply_matrix_stack_is_one_call_per_branch(self, n):
        """One matrix per branch equals that matrix on its branch alone, bit
        for bit, and the ``np.kron`` oracle."""
        rng = np.random.default_rng(80 + n)
        states = _random_states(n, 6, rng)
        amps, matrices = _stack(states), unimodular_matrices(random_unimodulars(rng, 6))
        for axis in range(1, n + 1):
            out = _apply_matrix(matrices, (axis,), amps)
            for b, (matrix, s) in enumerate(zip(matrices, states)):
                assert np.array_equal(out[b], _apply_matrix(matrix, (axis,), amps[b : b + 1])[0])
                oracle = _on_front(matrix, (axis - 1,), n) @ s.amplitudes
                assert np.abs(out[b].reshape(-1) - oracle).max() <= 1e-12

    @pytest.mark.parametrize("n", range(1, 5))
    def test_split_gives_the_kernels_branches(self, n):
        """Every child comes back, a zero one too. ``measure``'s branches
        are the children whose probability it keeps, at or above
        ``BRANCH_PRUNE`` (a child that is zero in exact arithmetic may come
        back as 1e-34 here, since the contraction may round through fused
        multiply-adds), in order; each of them, divided by the square root of
        its probability and put back beside its basis vector, is
        ``measure``'s post-state, for every ordered target tuple."""
        rng = np.random.default_rng(90 + n)
        reg, states = REGISTERS[n - 1], _parity_states(n, rng)
        cases = [(pos, "computational") for k in (1, 2) for pos in permutations(range(n), k)]
        cases += [(pos, "bell") for pos in permutations(range(n), 2)]
        for pos, basis in cases:
            vecs = BELL_KETS if basis == "bell" else np.eye(2 ** len(pos))
            children, probs = _split(_stack(states), tuple(1 + p for p in pos), vecs)
            assert children.shape == (len(states), len(vecs)) + (2,) * (n - len(pos))
            assert probs.shape == (len(states), len(vecs))
            for b, s in enumerate(states):
                branches = measure(s, [reg[p] for p in pos], basis)
                outcomes = np.flatnonzero(probs[b] >= BRANCH_PRUNE)
                assert [format(o, f"0{len(pos)}b") for o in outcomes] == [br.outcome for br in branches]
                for o, br in zip(outcomes, branches):
                    assert abs(probs[b, o] - br.probability) <= 1e-15
                    post = np.kron(vecs[o], children[b, o].reshape(-1)) / np.sqrt(probs[b, o])
                    assert np.abs(post - _front_permutation(pos, n) @ br.post_state.amplitudes).max() <= 1e-12

    @pytest.mark.parametrize("n", range(2, 5))
    def test_entropies_match_entanglement_entropy_and_schmidt_coefficients(self, n):
        """Over every ordered cut: each state's ``entanglement_entropy``, and
        -sum p log2 p over its squared Schmidt coefficients (an SVD)."""
        rng = np.random.default_rng(100 + n)
        reg = REGISTERS[n - 1]
        states = _parity_states(n, rng) + _random_states(n, 6, rng)
        amps = _stack(states)
        for k in range(1, n):
            for pos in permutations(range(n), k):
                got = _entropies(amps, tuple(1 + p for p in pos))
                for s, entropy in zip(states, got):
                    assert abs(entropy - entanglement_entropy(s, [reg[p] for p in pos])) <= 1e-14
                    sing = np.linalg.svd((_front_permutation(pos, n) @ s.amplitudes).reshape(2**k, -1), compute_uv=False)
                    p = sing[sing > 0] ** 2
                    assert abs(entropy - -(p * np.log2(p)).sum()) <= 1e-14

    def test_entropies_of_no_states(self):
        assert _entropies(np.zeros((0, 2, 2, 2)), (1, 3)).shape == (0,)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_one_state_cases_are_the_untransposed_stack_bit_for_bit(self, n):
        """``reduced_density`` and ``entanglement_entropy``, on the state as
        ``_targets_front`` orders it, give the bytes of the primitives on
        the state as it is, its targets at axes 1 + their positions, for
        every ordered target tuple of seeded states."""
        rng = np.random.default_rng(120 + n)
        reg = REGISTERS[n - 1]
        for s in _parity_states(n, rng) + _random_states(n, 4, rng):
            stack = s.amplitudes.reshape((1,) + (2,) * n)
            for k in range(1, n + 1):
                for pos in permutations(range(n), k):
                    targets, axes = [reg[p] for p in pos], tuple(1 + p for p in pos)
                    assert reduced_density(s, targets).tobytes() == _reduced_densities(stack, axes)[0].tobytes()
                    if k < n:
                        got = np.float64(entanglement_entropy(s, targets))
                        assert got.tobytes() == np.float64(_entropies(stack, axes)[0]).tobytes()

    def test_kernels_do_not_call_the_primitives_they_check(self, monkeypatch):
        """The kernels stay the engine's independent oracle: with
        ``_apply_matrix`` and ``_split`` made to raise, ``apply_gate``,
        ``measure``, ``tensor`` and ``factor_qubit`` give what they give
        with them, bit for bit."""
        rng = np.random.default_rng(130)
        reg = REGISTERS[3]
        s = _random_states(4, 1, rng)[0]
        gate = Gate(random_unimodular(rng).matrix, "u")
        extra = qubit_state(0.6, 0.8j, QubitId("alice", 9))
        bases = (([reg[1]], "computational"), ([reg[3], reg[0]], "computational"), ([reg[2], reg[1]], "bell"))

        def results():
            out = [apply_gate(s, gate, [reg[2]]).amplitudes, apply_gate(s, CNOT, [reg[3], reg[0]]).amplitudes]
            for targets, basis in bases:
                for branch in measure(s, targets, basis):
                    out += [branch.outcome, branch.probability, branch.post_state.amplitudes]
            out += [tensor(s, extra).amplitudes, factor_qubit(tensor(extra, s), extra.register[0])]
            return [np.asarray(x).tobytes() for x in out]

        want = results()

        def refuse(*args):
            raise AssertionError("a kernel called a branch-stack primitive")

        monkeypatch.setattr(statevector, "_apply_matrix", refuse)
        monkeypatch.setattr(statevector, "_split", refuse)
        assert results() == want


def _probabilities(state: StateVector) -> list[float]:
    """The probability of each kept branch of measuring ``state``'s first qubit."""
    return [b.probability for b in measure(state, state.register[:1])]


class TestSampleBranch:
    """``sample_index``, the draw every sampled run makes."""

    def test_certain_branch(self):
        assert sample_index(_probabilities(basis_state("0", (B0,))), np.random.default_rng(0)) == 0

    def test_seed_reproducibility(self):
        probs = _probabilities(plus_state(B0))
        seq1 = [sample_index(probs, np.random.default_rng(42)) for _ in range(10)]
        rng = np.random.default_rng(42)
        seq2 = [sample_index(probs, rng) for _ in range(1)]
        assert seq1[0] == seq2[0]
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        assert [sample_index(probs, rng_a) for _ in range(20)] == [sample_index(probs, rng_b) for _ in range(20)]

    def test_law_of_large_numbers(self):
        probs = _probabilities(plus_state(B0))
        rng = np.random.default_rng(123)
        hits = sum(sample_index(probs, rng) == 0 for _ in range(100_000))
        assert abs(hits / 100_000 - 0.5) < 0.01

    @pytest.mark.parametrize("size", range(1, 8))
    def test_index_matches_numpy_rule(self, size):
        """The index and the number of draws match numpy's rule,
        ``searchsorted(cumsum(p), random() * p.sum())``. Below 8 entries
        numpy sums in sequence, so both totals are the same float."""
        gen = np.random.default_rng(1000 + size)
        for trial in range(300):
            probs = gen.dirichlet(np.ones(size))
            if trial % 3 == 1 and size > 1:
                probs[gen.integers(size)] = 0.0  # a pruned branch
                probs /= probs.sum()
            elif trial % 3 == 2:
                probs *= 1.0 + gen.uniform(-1e-9, 1e-9)  # off 1, within SAMPLE_SUM_TOL
            seed = int(gen.integers(2**31))
            ref = np.random.default_rng(seed)
            expected = min(int(np.searchsorted(np.cumsum(probs), ref.random() * probs.sum())), size - 1)
            rng = np.random.default_rng(seed)
            assert sample_index(probs, rng) == expected
            assert sample_index(probs.tolist(), np.random.default_rng(seed)) == expected
            assert rng.random() == ref.random()

    def test_degenerate_probabilities(self):
        probs = _probabilities(plus_state(B0))
        with pytest.raises(ValueError, match="degenerate"):
            sample_index(probs[:1], np.random.default_rng(0))


class TestReducedDensity:
    def test_bell_reduces_to_mixed(self):
        rho = reduced_density(bell_phi_plus(A0, B0), [A0])
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_product_reduces_to_projector(self):
        rho = reduced_density(basis_state("01", (A0, B0)), [A0])
        np.testing.assert_allclose(rho, np.diag([1, 0]), atol=1e-12)

    def test_properties(self):
        rng = np.random.default_rng(8)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        s = StateVector(amps, (A0, B0, B1))
        rho = reduced_density(s, [B0, B1])
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_empty_keep(self):
        with pytest.raises(ValueError, match="nonempty"):
            reduced_density(plus_state(B0), [])


class TestEntropy:
    def test_product_state(self):
        s = tensor(basis_state("0", (A0,)), basis_state("0", (B0,)))
        assert entanglement_entropy(s, [A0]) == pytest.approx(0.0, abs=1e-9)

    def test_bell_pair(self):
        assert entanglement_entropy(bell_phi_plus(A0, B0), [A0]) == pytest.approx(1.0, abs=1e-9)

    def test_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            amps = rng.normal(size=16) + 1j * rng.normal(size=16)
            s = StateVector(amps, (A0, A1, B0, B1))
            ent = entanglement_entropy(s, [A0, A1])
            assert -1e-12 <= ent <= 2 + 1e-9

    def test_invalid_cut(self):
        with pytest.raises(ValueError, match="proper subset"):
            entanglement_entropy(bell_phi_plus(A0, B0), [A0, B0])


class TestFactorQubit:
    def test_factors_product_state(self):
        s = tensor(qubit_state(0.6, 0.8j, A0), plus_state(B0))
        vec = factor_qubit(s, A0)
        ref = np.array([0.6, 0.8j])
        assert abs(np.vdot(ref, vec)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_entangled_qubit(self):
        with pytest.raises(InvariantViolation, match="entangled"):
            factor_qubit(bell_phi_plus(A0, B0), A0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: StateVector([np.nan, 1], (B0,)), r"^amplitudes must be finite$"),
        (lambda: basis_state("2", (B0,)), r"^bad basis label '2' for 1 qubits$"),
        (lambda: basis_state("01", (B0,)), r"^bad basis label '01' for 1 qubits$"),
        (lambda: apply_gate(tensor(plus_state(A0), plus_state(B0)), CNOT, [B0, B0]), r"^duplicate targets$"),
        (lambda: reduced_density(tensor(plus_state(A0), plus_state(B0)), [B0, B0]), r"^duplicate targets$"),
        (lambda: measure(plus_state(B0), [B0], "hadamard"), r"^unknown basis 'hadamard'$"),
        (lambda: sample_index([], np.random.default_rng(0)), r"^no branches to sample$"),
    ],
    ids=["amplitude_not_finite", "label_digit", "label_length", "apply_gate_repeat", "reduced_density_repeat", "unknown_basis", "no_probabilities"],
)
def test_refusal_is_named(call, message):
    with pytest.raises(ValueError, match=message):
        call()
