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

from remotegate import CNOT, Gate, Unimodular, bloch, cli, operators, protocols, statevector, verify
from remotegate.gates import matmul2
from remotegate.tolerances import DEGENERACY_TOL, DERIVED_TOL, PROB_TOL, ROUNDING_TOL

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


@pytest.mark.parametrize("key, row", [(("computational", 1), 1), (("bell", 2), 0)], ids=["computational", "bell"])
@pytest.mark.parametrize("scale", [1 + 1e-6, 1 - 1e-6])
def test_branch_completeness_sees_a_scaled_basis_row(monkeypatch, key, row, scale):
    """One basis vector scaled: its outcome's probability is off by
    |scale^2 - 1| of itself, so the branch sums miss 1."""
    scaled = statevector._BASES[key].copy()
    scaled[row] *= scale
    monkeypatch.setitem(statevector._BASES, key, scaled)
    passed, detail = verify.check_branch_completeness(np.random.default_rng(0))
    assert not passed and PROB_TOL < float(detail.split()[-1]) <= abs(scale**2 - 1), detail


@pytest.mark.parametrize("key, row", [(("computational", 1), 1), (("bell", 2), 0)], ids=["computational", "bell"])
def test_measurement_idempotence_sees_a_shrunk_basis_row(monkeypatch, key, row):
    """A basis vector scaled by 1 - 1e-6 both projects and rebuilds the
    child, so its repeat probability reads (1 - 1e-6)^4. The check is
    two-sided: a vector scaled up by 1 + 1e-6 reads (1 + 1e-6)^4 and fails
    as well."""
    original = statevector._BASES[key]
    for scale in (1 - 1e-6, 1 + 1e-6):
        scaled = original.copy()
        scaled[row] *= scale
        monkeypatch.setitem(statevector._BASES, key, scaled)
        passed, detail = verify.check_measurement_idempotence(np.random.default_rng(0))
        assert not passed and abs(float(detail.split()[-1]) - scale**4) <= 1e-12, (scale, detail)


def _rho_without_conjugate(amps, axes):
    """``_reduced_densities`` with M M^T in place of M M^dag."""
    front = amps.transpose(statevector._to_front(amps.ndim, (0,) + axes)[0])
    mat = front.reshape(len(front), 2 ** len(axes), 2 ** (amps.ndim - 1 - len(axes)))
    return mat @ mat.swapaxes(1, 2)


@pytest.mark.parametrize("check", ["product_state_entropy", "entropy_bounds"])
def test_entropy_checks_see_a_density_without_its_conjugate(monkeypatch, check):
    monkeypatch.setattr(statevector, "_reduced_densities", _rho_without_conjugate)
    passed, detail = getattr(verify, f"check_{check}")(np.random.default_rng(0))
    assert not passed and float(detail.split()[-1]) > 0.1, detail


@pytest.mark.parametrize("check", ["product_state_entropy", "entropy_bounds"])
def test_entropy_checks_see_the_cutoff_filter_dropped(monkeypatch, check):
    """Every eigenvalue enters -e log2 e, the zero and negative ones of the
    rank-deficient densities too, whose logarithm is NaN or -inf."""
    monkeypatch.setattr(statevector, "ENTROPY_CUTOFF", -np.inf)
    with np.errstate(invalid="ignore", divide="ignore"):
        passed, detail = getattr(verify, f"check_{check}")(np.random.default_rng(0))
    assert not passed and detail.endswith(" nan"), detail


# ---------------------------------------------------------------------------
# the stacks each sampling check draws and hands on

#: Where each stacked function is looked up when a check calls it.
HOMES = {
    "random_unimodulars": verify,
    "random_qubits": verify,
    "random_unimodular": verify,
    "random_qubit": verify,
    "q_matrices": operators,
    "products": operators,
    "daggers": operators,
    "classify_matrices": operators,
    "orthogonal_pairs": operators,
    "_eigenphases": verify,
    "common_corrections": operators,
    "solve_corrections": operators,
    "from_axis_angles": operators,
    "find_common_axes": operators,
    "verify_restorations": bloch,
    "pure_densities": bloch,
    "bloch_vectors": bloch,
    "run_batch": protocols,
    "admissible": protocols,
    "_apply_matrix": verify,
    "_split": verify,
    "_entropies": verify,
}

#: The sampler calls of a check that draws 100 Haar (U, psi) pairs.
_HAAR = {"random_unimodulars": [(100,)], "random_qubits": [(100,)]}

#: For each check that samples a stack (or, for the two that check single
#: runs, one configuration per draw), its calls of each stacked function
#: named, in order, each as its arguments with an array given by its shape
#: (and a sampler's generator left out).
STACKS = {
    "statevector.norm_preservation": {
        "random_unimodulars": [(50,)],
        "_apply_matrix": [((50, 2, 2), (2,), (50, 2, 2, 2)), ((4, 4), (3, 1), (50, 2, 2, 2))],
    },
    "statevector.branch_completeness": {
        "_split": [((50, 2, 2, 2), (1,), (2, 2)), ((50, 2, 2, 2), (1, 2), (4, 4))],
    },
    "statevector.product_state_entropy": {"random_qubits": [(50,)] * 2, "_entropies": [((50, 2, 2), (1,))]},
    "statevector.measurement_idempotence": {
        "_split": [
            ((50, 2, 2, 2), (2,), (2, 2)),
            ((100, 2, 2, 2), (2,), (2, 2)),
            ((50, 2, 2, 2), (2, 3), (4, 4)),
            ((200, 2, 2, 2), (2, 3), (4, 4)),
        ],
    },
    "statevector.entropy_bounds": {  # rows grouped by the drawn cut, 1 to 3 qubits
        "_entropies": [((17, 2, 2, 2, 2), (1,)), ((23, 2, 2, 2, 2), (1, 2)), ((10, 2, 2, 2, 2), (1, 2, 3))],
    },
    "operators.unimodular_closure": {
        "random_unimodulars": [(400,)],
        "random_qubits": [(200,)],
        "q_matrices": [((200,), (200, 2))],
        "products": [((200, 2), (200, 2))],
        "daggers": [((200, 2),)],
    },
    "operators.classification_trichotomy": {"random_unimodulars": [(100,)], "classify_matrices": [((140, 2, 2),)]},
    "operators.q_symmetry": {"random_qubits": [(1000,)], "q_matrices": [((1000,), (1000, 2))] * 2},
    "operators.correction_identity": {"random_unimodulars": [(500,)], "solve_corrections": [((500, 2),)]},
    "operators.sign_flip_closure": {"classify_matrices": [((500, 2, 2),)]},
    "operators.orthogonal_pair_overlap": {
        "random_unimodulars": [(2000,)],
        "orthogonal_pairs": [((1000, 2),) * 2],
        "_eigenphases": [((1000, 2, 2),)],
    },
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
    has its stacked calls pinned in STACKS."""
    sampling = set()
    for i, (name, fn) in enumerate(verify.registry()):
        rng = _Recording(np.random.default_rng([7, i]))
        passed, detail = fn(rng)
        assert passed, (name, detail)
        if rng.calls:
            sampling.add(name)
    assert sampling <= set(STACKS), sorted(sampling - set(STACKS))


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
    monkeypatch.setattr(operators, "_search_axis", lambda m, axes, half: searched.append(len(axes)) or search(m, axes, half))
    passed, detail = verify.check_axis_recovery(np.random.default_rng(19))
    assert passed, detail
    if central_tol is None:
        assert not searched
    else:  # families whose first candidate fails: some keep a rotation, some only the half-turns
        assert len(searched) >= 10 and 5 in searched and max(searched) > 5, searched


def test_axis_recovery_reads_a_tilt_of_1e_8(monkeypatch):
    """Each found axis tilted by 1e-8 rad must read as 1e-8. The cosine of
    1e-8 rounds to 1, so an angle read from the cosine alone shows its
    rounding floor (about 2e-8 to 3e-8), not the tilt."""
    find = operators.find_common_axes
    tilt = 1e-8

    def tilted(families):
        found = np.array(find(families))
        side = np.cross(found, np.eye(3)[np.argmin(np.abs(found), axis=1)])
        side /= np.linalg.norm(side, axis=1)[:, None]
        return list(np.cos(tilt) * found + np.sin(tilt) * side)

    monkeypatch.setattr(operators, "find_common_axes", tilted)
    passed, detail = verify.check_axis_recovery(np.random.default_rng(5))
    (angle,) = _split(detail)[1]
    assert passed and abs(angle - tilt) <= 1e-10, detail


@pytest.mark.parametrize("seed", [35, 36])
def test_eigenphases_are_eigvals_s(seed):
    """The closed form against LAPACK on 10,000 seeded products U2^dag U1,
    formed as the orthogonal-pair check forms them: 6,000 of Haar pairs,
    1,000 diagonal, 1,000 off-diagonal, 1,000 rotations R with sin(lam)
    just above DEGENERACY_TOL, half of them near +1 and half near -1
    (U1 = U2 R), and 1,000 near lam = pi/2, 100 of them with lam exactly
    pi/2 in R. |sin| must agree within ROUNDING_TOL, and no phase is NaN."""
    rng = np.random.default_rng(seed)
    u1, u2 = operators.random_unimodulars(rng, 10_000), operators.random_unimodulars(rng, 10_000)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 2000)))
    u1[6000:8000] = np.stack([phases[0], np.zeros(2000)], axis=-1)
    u2[6000:7000] = np.stack([phases[1, :1000], np.zeros(1000)], axis=-1)  # diagonal products
    u2[7000:8000] = np.stack([np.zeros(1000), phases[1, 1000:]], axis=-1)  # off-diagonal products
    axes = rng.normal(size=(2000, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    half = 2 * np.arcsin(DEGENERACY_TOL * rng.uniform(1.01, 2.0, 1000))
    thetas = np.concatenate([half[:500], 2 * np.pi - half[500:], np.pi + rng.uniform(-1e-3, 1e-3, 1000)])
    thetas[-100:] = np.pi
    u1[8000:] = operators.products(u2[8000:], operators.from_axis_angles(axes, thetas))
    m1, m2 = operators.unimodular_matrices(u1), operators.unimodular_matrices(u2)
    products = matmul2(m2.conj().swapaxes(1, 2), m1)
    sines = operators.orthogonal_pairs(u1, u2)[1][8000:9000]
    assert ((sines >= DEGENERACY_TOL) & (sines <= 2.1 * DEGENERACY_TOL)).all()
    assert (products[8000:8500, 0, 0].real > 0).all() and (products[8500:9000, 0, 0].real < 0).all()
    assert (products[6000:7000, 0, 1] == 0).all() and (products[7000:8000, 0, 0] == 0).all()
    got = verify._eigenphases(products)
    assert not np.isnan(got).any()
    want = np.angle(np.linalg.eigvals(products)[:, 0])
    assert (np.abs(np.abs(np.sin(got)) - np.abs(np.sin(want))) <= ROUNDING_TOL).all()


# ---------------------------------------------------------------------------
# a witness for each check's failure return: a defect monkeypatched in, and
# the check's own message


def test_unimodular_closure_sees_products_scaled_off_the_sphere(monkeypatch):
    """``products`` scaled by 1 + 1e-6 drifts by about 2e-6: the check fails
    on its drift detail, not on a raise."""
    products = operators.products
    monkeypatch.setattr(operators, "products", lambda p, q: products(p, q) * (1 + 1e-6))
    passed, detail = verify.check_unimodular_closure(np.random.default_rng(0))
    assert (passed, detail) == (False, "max unimodularity drift 2.00e-06")


def test_classification_trichotomy_sees_swapped_tags(monkeypatch):
    """``classify_matrices`` with COMMUTING and ANTICOMMUTING swapped: the
    first in-set draw, rz(phi), is tagged anticommuting."""
    rng = np.random.default_rng(0)
    operators.random_unimodulars(rng, 100)
    first = Unimodular(*verify._in_set(rng, np.arange(40) < 20, span=6)[0].tolist())
    classify = operators.classify_matrices
    flip = {operators.COMMUTING: operators.ANTICOMMUTING, operators.ANTICOMMUTING: operators.COMMUTING}
    monkeypatch.setattr(operators, "classify_matrices", lambda m: np.array([flip.get(k, k) for k in classify(m).tolist()]))
    passed, detail = verify.check_classification_trichotomy(np.random.default_rng(0))
    assert (passed, detail) == (False, f"operator {first} tagged anticommuting, norms say commuting")


def test_orthogonal_pair_overlap_sees_pairs_of_the_wrong_product(monkeypatch):
    """``orthogonal_pairs`` building its pairs for U1 and the next row's U2:
    the fields agree with each other, so <phi'|phi> = i sin(lam) still
    holds, but not with the eigenphases of the U2^dag U1 drawn. The check
    fails on its residual detail, not on a raise."""
    pairs = operators.orthogonal_pairs
    monkeypatch.setattr(operators, "orthogonal_pairs", lambda u1, u2: pairs(u1, np.roll(u2, 1, axis=0)))
    passed, detail = verify.check_orthogonal_pair_overlap(np.random.default_rng(0))
    words, (residual,) = _split(detail)
    assert not passed and words[0] == "max overlap residual " and residual > 1e6 * DERIVED_TOL, detail


def test_orthogonal_pair_overlap_calls_no_lapack_eigensolver(monkeypatch):
    """With ``np.linalg.eigvals`` raising, the check and every other check
    of ``run_all`` still pass: the cross-check's eigenphases are in closed form."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    passed, detail = verify.check_orthogonal_pair_overlap(np.random.default_rng(0))
    assert passed, detail
    failed = [(r.name, r.detail) for r in verify.run_all() if not r.passed]
    assert not failed, failed


def test_axis_recovery_sees_a_family_with_no_axis(monkeypatch):
    monkeypatch.setattr(operators, "find_common_axes", lambda families: [None] * len(families))
    assert verify.check_axis_recovery(np.random.default_rng(0)) == (False, "no axis found for an in-set family")


def test_ledgers_sees_a_branch_charged_the_baseline(monkeypatch):
    """universal221's branches charged bqst's (2, 2, 2)."""
    run = protocols.PROTOCOLS["universal221"]

    def overcharged(cfg):
        return [o._replace(ledger=protocols.ResourceLedger(2, 2, 2)) for o in run(cfg)]

    monkeypatch.setitem(protocols.PROTOCOLS, "universal221", overcharged)
    assert verify.check_ledgers(np.random.default_rng(0)) == (False, "universal221 ledger (2, 2, 2) != (2, 2, 1)")


def test_classification_consistency_sees_every_row_refused(monkeypatch):
    """``admissible`` refusing every row disagrees with the classes at the
    first in-set row, which the message names."""
    drawn = []
    monkeypatch.setattr(protocols, "admissible", lambda protocol, us, psis: drawn.append(us) or ["refused"] * len(us))
    passed, detail = verify.check_classification_consistency(np.random.default_rng(0))
    (us,) = drawn
    in_set = operators.classify_matrices(operators.unimodular_matrices(us)) != operators.GENERAL
    first = Unimodular(*us[np.argmax(in_set)].tolist())
    assert (passed, detail) == (False, f"inconsistent classification for {first}")


def test_classification_consistency_sees_every_row_admitted(monkeypatch):
    """``admissible`` admitting every row disagrees with the classes at the
    first general row. The check compares the admission before it runs
    the admitted rows, so it reports that row with its own message, and
    ``run_all`` does not report the run's ``RowError``."""
    drawn = []
    monkeypatch.setattr(protocols, "admissible", lambda protocol, us, psis: drawn.append(us) or [None] * len(us))
    passed, detail = verify.check_classification_consistency(np.random.default_rng(0))
    (us,) = drawn
    general = operators.classify_matrices(operators.unimodular_matrices(us)) == operators.GENERAL
    first = Unimodular(*us[np.argmax(general)].tolist())
    assert (passed, detail) == (False, f"inconsistent classification for {first}")
    result = {r.name: r for r in verify.run_all(0)}["protocols.classification_consistency"]
    assert not result.passed and result.detail.startswith("inconsistent classification for ")


def test_restoration_classification_sees_an_in_set_operator_not_restored(monkeypatch):
    """With nothing ever restored, the general operators all fail in the
    first round and the first in-set operator is named."""
    rounds = []
    monkeypatch.setattr(bloch, "verify_restorations", lambda us, psis: rounds.append(us) or np.zeros(len(us), bool))
    passed, detail = verify.check_restoration_classification(np.random.default_rng(0))
    _, in_set = rounds  # the general operators' one round, then the in-set operators
    assert (passed, detail) == (False, f"in-set operator failed restoration: {Unimodular(*in_set[0].tolist())}")


def test_restoration_classification_sees_a_shared_correction(monkeypatch):
    """``common_corrections`` reporting that every set shares a correction:
    the first general operator is named."""
    common, calls = operators.common_corrections, []

    def shared(families):
        calls.append(families)
        return (np.ones(len(families), dtype=bool), *common(families)[1:])

    monkeypatch.setattr(operators, "common_corrections", shared)
    passed, detail = verify.check_restoration_classification(np.random.default_rng(0))
    (families,) = calls  # each set: three z rotations, then a general operator
    first = Unimodular(*families[0, -1].tolist())
    assert (passed, detail) == (False, f"general operator shares a correction with z rotations: {first}")


def test_run_all_reports_a_crashing_check(monkeypatch):
    """A check that raises fails with the exception's type and message, and
    the checks after it still run."""

    def broken(alphas, xis):
        raise ValueError("q_matrices broke")

    monkeypatch.setattr(operators, "q_matrices", broken)
    results = {r.name: r for r in verify.run_all(7)}
    crashed = {name for name, r in results.items() if not r.passed}
    assert crashed == {"operators.unimodular_closure", "operators.q_symmetry"}
    assert {results[name].detail for name in crashed} == {"raised ValueError: q_matrices broke"}
