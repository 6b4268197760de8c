"""``remotegate verify`` against recorded results, and its timing column.

``data/verify_details.json`` holds ``verify.run_all`` for three seeds. A
check must pass or fail as recorded, and every number in its detail must
stay within ``GOLDEN_TOL`` of the recorded one; the words must not change.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from remotegate import CNOT, Gate, Unimodular, bloch, cli, operators, protocols, verify

GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_details.json").read_text())
GOLDEN_TOL = 1e-12
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _split(detail: str) -> tuple[list[str], list[float]]:
    return NUMBER.split(detail), [float(x) for x in NUMBER.findall(detail)]


@pytest.mark.parametrize("seed", sorted(GOLDEN, key=int))
def test_details_match_the_recorded_suite(seed):
    results = verify.run_all(int(seed))
    assert [r.name for r in results] == [g["name"] for g in GOLDEN[seed]]
    for got, want in zip(results, GOLDEN[seed]):
        assert got.passed == want["passed"], got.name
        words, numbers = _split(got.detail)
        want_words, want_numbers = _split(want["detail"])
        assert words == want_words, (got.name, got.detail, want["detail"])
        for x, y in zip(numbers, want_numbers):
            assert abs(x - y) <= GOLDEN_TOL, (got.name, got.detail, want["detail"])


VERIFY_LINE = re.compile(r"(PASS|FAIL) (\S+): (.*) \((\d+\.\d{3}) s\)")


def test_verify_lines_carry_each_checks_time(capsys):
    assert cli.main(["verify", "--seed", "7"]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    names = [name for name, _ in verify.registry()]
    assert summary == f"{len(names)}/{len(names)} checks passed"
    parsed = [VERIFY_LINE.fullmatch(line) for line in lines]
    assert all(parsed), lines
    assert [m.group(2) for m in parsed] == names
    assert all(float(m.group(4)) >= 0 for m in parsed)


@pytest.mark.parametrize("seed", [-1, 1.5, None], ids=repr)
def test_run_all_refuses_a_bad_seed_naming_it(seed):
    with pytest.raises(ValueError, match=rf"^seed must be a non-negative integer, got {seed!r}$"):
        verify.run_all(seed)


def test_norm_preservation_sees_a_non_unitary_gate(monkeypatch):
    """A CNOT scaled by 1 + 1e-6, slipped past Gate's unitarity check: the
    kernel does not renormalise, so the check sees the defect."""
    leaky = object.__new__(Gate)
    leaky.__dict__.update(matrix=CNOT.matrix * (1 + 1e-6), name="leaky")
    monkeypatch.setattr(verify, "CNOT", leaky)
    assert verify.check_norm_preservation(np.random.default_rng(0)) == (False, "max norm deviation 1.00e-06")


# ---------------------------------------------------------------------------
# the stacks each sampling check draws and hands on

#: Where each stacked function is looked up when a check calls it.
HOMES = {
    "random_unimodulars": verify,
    "random_qubits": verify,
    "random_unimodular": verify,
    "random_qubit": verify,
    "q_matrices": operators,
    "classify_matrices": operators,
    "orthogonal_pairs": operators,
    "common_corrections": operators,
    "solve_corrections": operators,
    "from_axis_angles": operators,
    "find_common_axes": operators,
    "verify_restorations": bloch,
    "pure_densities": bloch,
    "bloch_vectors": bloch,
    "run_batch": protocols,
    "admissible": protocols,
}

#: The sampler calls of a check that draws 100 Haar (U, psi) pairs.
_HAAR = {"random_unimodulars": [(100,)], "random_qubits": [(100,)]}

#: For each check that samples a stack (or, for the two that check single
#: runs, one configuration per draw), its calls of each stacked function
#: named, in order, each as its arguments with an array given by its shape
#: (and a sampler's generator left out).
STACKS = {
    "operators.unimodular_closure": {
        "random_unimodulars": [(400,)],
        "random_qubits": [(200,)],
        "q_matrices": [((200,), (200, 2))],
    },
    "operators.classification_trichotomy": {"random_unimodulars": [(100,)], "classify_matrices": [((140, 2, 2),)]},
    "operators.q_symmetry": {"random_qubits": [(1000,)], "q_matrices": [((1000,), (1000, 2))] * 2},
    "operators.correction_identity": {"random_unimodulars": [(500,)], "solve_corrections": [((500, 2),)]},
    "operators.sign_flip_closure": {"classify_matrices": [((500, 2, 2),)]},
    "operators.orthogonal_pair_overlap": {"random_unimodulars": [(2000,)], "orthogonal_pairs": [((1000, 2),) * 2]},
    "operators.axis_recovery": {
        "random_unimodulars": [(100,)],
        "from_axis_angles": [((1000, 3), (1000,))],
        "find_common_axes": [((100, 10, 2),)],
    },
    "protocols.ledgers": {"random_unimodular": [()], "random_qubit": [()]},
    "protocols.universal_success_half": {**_HAAR, "run_batch": [("universal221", (100, 2), (100, 2))]},
    "protocols.restricted_perfect": {
        "random_qubits": [(1000,)],
        "run_batch": [("restricted221", (1000, 2), (1000, 2), None)],
    },
    "protocols.one11_perfect": {"random_qubits": [(1000,)], "run_batch": [("one11", (1000, 2), (1000, 2), (1000,))]},
    "protocols.branch_conservation": {"random_unimodular": [()] * 2, "random_qubit": [()] * 4},
    "protocols.failure_branch_identity": {**_HAAR, "run_batch": [("universal221", (100, 2), (100, 2))]},
    "protocols.classification_consistency": {
        **_HAAR,
        "classify_matrices": [((100, 2, 2),)],
        "admissible": [("restricted221", (100, 2), (100, 2))],
        "run_batch": [("restricted221", (51, 2), (51, 2))],
        "common_corrections": [((100, 1, 2),)],
    },
    "bloch.purity": {"random_qubits": [(200,)], "pure_densities": [((200, 2),)]},
    "bloch.rotation_covariance": {
        "random_unimodulars": [(200,)],
        "random_qubits": [(200,)],
        "pure_densities": [((200, 2),)],
        "bloch_vectors": [((200, 2, 2),)],
    },
    "bloch.restoration_classification": {
        "random_unimodulars": [(500,)],
        "random_qubits": [(500,)] * 2,
        "classify_matrices": [((500, 2, 2),)],
        "verify_restorations": [((500, 2), (500, 2))] * 2,
        "common_corrections": [((500, 4, 2),)],
    },
    "cli.operator_round_trip": {"random_unimodulars": [(100,)]},
}


def _spy(monkeypatch, names) -> dict:
    """Record the arguments of every call to each named stacked function."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(HOMES[name], name)

        def spy(*args, _name=name, _original=original):
            calls[_name].append(args)
            return _original(*args)

        monkeypatch.setattr(HOMES[name], name, spy)
    return calls


def _shapes(args) -> tuple:
    """A call's arguments, each array as its shape, a generator left out."""
    return tuple(a.shape if isinstance(a, np.ndarray) else a for a in args if not isinstance(a, np.random.Generator))


@pytest.mark.parametrize("check", sorted(STACKS))
def test_verify_stacks_draw_the_per_call_samples(monkeypatch, check):
    """Each sampling check draws its samples as whole stacks, as many as the
    one-draw-at-a-time loops drew, and hands each stacked function arrays."""
    calls = _spy(monkeypatch, STACKS[check])
    passed, detail = dict(verify.registry())[check](np.random.default_rng(5))
    assert passed, detail
    assert {name: [_shapes(args) for args in got] for name, got in calls.items()} == STACKS[check]


#: Checks that draw from their generator with no STACKS entry, and why.
UNPINNED = dict.fromkeys(
    [f"statevector.{name}" for name in ("norm_preservation", "branch_completeness", "product_state_entropy",
                                        "measurement_idempotence", "entropy_bounds")],
    "draws one register and state at a time, for the per-branch statevector kernels",
)


class _Recording:
    """A generator that records the name of each method called on it."""

    def __init__(self, rng: np.random.Generator):
        self._rng, self.calls = rng, []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def recorded(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return recorded if callable(method) else method


def test_every_check_that_samples_a_stack_has_an_oracle():
    """A check that draws from its generator, through any of its methods,
    has its stacked calls pinned in STACKS or is in UNPINNED."""
    sampling = set()
    for i, (name, fn) in enumerate(verify.registry()):
        rng = _Recording(np.random.default_rng([7, i]))
        passed, detail = fn(rng)
        assert passed, (name, detail)
        if rng.calls:
            sampling.add(name)
    assert set(UNPINNED) <= sampling and not set(UNPINNED) & set(STACKS)
    assert sampling <= set(STACKS) | set(UNPINNED), sorted(sampling - set(STACKS) - set(UNPINNED))


def _in_set_where(matrices, n_sigma, original):
    """commutation_norms with a zero commutator wherever Re a > 0.95."""
    comm, anti = original(matrices, n_sigma)
    return np.where(np.real(matrices[..., 0, 0]) > 0.95, 0.0, comm), anti


@pytest.mark.parametrize("everywhere", [False, True], ids=["passes", "restored_on_10"])
def test_restoration_check_redraws_each_wrong_guess_one_test_at_a_time(monkeypatch, everywhere):
    """Stubs make some Haar draws classify as in-set, which must be redrawn,
    and make every input with Re psi[0] > 0.9 restore, so some general
    operators need a second input round. With ``restored_on_10`` every input
    restores, and the check fails after exactly 10 rounds."""
    norms, restorations = operators.commutation_norms, bloch.verify_restorations
    monkeypatch.setattr(operators, "commutation_norms", lambda m, n: _in_set_where(m, n, norms))
    monkeypatch.setattr(
        bloch, "verify_restorations", lambda us, psis: restorations(us, psis) | (psis[:, 0].real > 0.9) | everywhere
    )
    calls = _spy(monkeypatch, ["classify_matrices", "verify_restorations", "common_corrections"])
    passed, detail = verify.check_restoration_classification(np.random.default_rng(17))
    assert len(calls["classify_matrices"]) > 1  # some draws were in-set and redrawn
    rounds = [len(us) for us, _ in calls["verify_restorations"]]
    if everywhere:
        first = Unimodular(*calls["verify_restorations"][0][0][0].tolist())
        assert not passed and detail == f"general operator restored on 10 random inputs: {first}"
        assert rounds == [500] * 10 and not calls["common_corrections"]
    else:
        assert passed and detail == "restoration holds exactly for in-set operators; 500 general operators witnessed"
        assert rounds[0] == 500 > rounds[1] > 0 and rounds[-1] == 500, rounds  # the in-set rows last
        ((families,),) = calls["common_corrections"]
        assert families.shape == (500, 4, 2) and (families[:, -1, 0].real <= 0.95).all()


@pytest.mark.parametrize("central_tol", [None, 0.9], ids=["as_is", "central_below_0.9"])
def test_axis_recovery_falls_back_one_family_at_a_time(monkeypatch, central_tol):
    """With CENTRAL_TOL raised to 0.9, a rotation by an angle below about
    2.2 or above about 4.1 constrains nothing, so a family whose first
    rotation is one tries a half-turn's axis first, which fails, and goes on
    alone to the later operators' axes or, when all five rotations are
    skipped, to the cross products of the half-turns' axes. The check must
    still find every family's axis."""
    if central_tol is not None:
        monkeypatch.setattr(operators, "CENTRAL_TOL", central_tol)
    searched, search = [], operators._search_axis
    monkeypatch.setattr(operators, "_search_axis", lambda m, axes: searched.append(len(axes)) or search(m, axes))
    passed, detail = verify.check_axis_recovery(np.random.default_rng(19))
    assert passed, detail
    if central_tol is None:
        assert not searched
    else:  # families whose first candidate fails: some keep a rotation, some only the half-turns
        assert len(searched) >= 10 and 5 in searched and max(searched) > 5, searched
