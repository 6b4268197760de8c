"""``remotegate verify`` against recorded results, and its timing column.

``data/verify_details.json`` holds ``verify.run_all`` for three seeds, as
the suite reported them before its sampling loops were batched. A check
must pass or fail as recorded, and every number in its detail must stay
within ``GOLDEN_TOL`` of the recorded one; the words must not change.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from remotegate import (
    GENERAL,
    Unimodular,
    bloch,
    classify_operator,
    cli,
    find_common_axis,
    find_orthogonal_pair,
    from_axis_angle,
    operators,
    orthogonal_state,
    pauli_dot,
    protocols,
    rz,
    sigma_x,
    sigma_y,
    sigma_z,
    verify,
)
from remotegate.tolerances import AXIS_ANGLE_TOL

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


# ---------------------------------------------------------------------------
# batched sampling loops draw what the per-call loops drew
#
# Each oracle below is the loop a check ran before it was batched, one call
# per sample, written with the scalar functions and with the Haar draw
# written out, since ``random_unimodular`` is now the stacked sampler's one
# row. The check's stacked inputs must equal the oracle's draws, in order
# and in count, bit for bit.


def _unimodular(rng):
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    return Unimodular(v[0] + 1j * v[1], v[2] + 1j * v[3])


def _qubit(rng):
    """U|0> = (a, -b*) of a Haar U."""
    u = _unimodular(rng)
    return np.array([u.a, -u.b.conjugate()])


def _in_set(rng, diagonal=None):
    if diagonal is None:
        diagonal = rng.random() < 0.5
    if diagonal:
        return rz(rng.uniform(0, 2 * np.pi))
    return Unimodular(0, np.exp(1j * rng.uniform(0, 2 * np.pi)))


def _pairs(us):
    return [(u.a, u.b) for u in us]


def _unimodular_closure_draws(rng):
    alphas, xis = [], []
    for _ in range(200):
        _unimodular(rng), _unimodular(rng)
        alphas.append(rng.uniform(0.1, 3.0))
        xis.append(_qubit(rng))
    return {"q_matrices": [(alphas, xis)]}


def _trichotomy_draws(rng):
    pool = [_unimodular(rng) for _ in range(100)]
    pool += [rz(rng.uniform(0, 6)) for _ in range(20)]
    pool += [Unimodular(0, np.exp(1j * rng.uniform(0, 6))) for _ in range(20)]
    return {"classify_matrices": [([u.matrix for u in pool],)]}


def _q_symmetry_draws(rng):
    alphas, psis = [], []
    for _ in range(1000):
        alphas.append(rng.uniform(-3, 3))
        psis.append(_qubit(rng))
    alphas, psis = np.array(alphas), np.array(psis)
    return {"q_matrices": [(alphas, psis), (-alphas, orthogonal_state(psis))]}


def _correction_identity_draws(rng):
    return {"solve_corrections": [(_pairs([_unimodular(rng) for _ in range(500)]),)]}


def _sign_flip_draws(rng):
    return {"classify_matrices": [([u.matrix for u in (_in_set(rng) for _ in range(500))],)]}


def _orthogonal_pair_draws(rng):
    u1s, u2s = [], []
    while len(u1s) < 1000:
        u1, u2 = _unimodular(rng), _unimodular(rng)
        try:
            find_orthogonal_pair(u1, u2)
        except ValueError:
            continue
        u1s.append(u1)
        u2s.append(u2)
    return {"orthogonal_pairs": [(_pairs(u1s), _pairs(u2s))]}


def _haar_rows(rng, count):
    rows = [(_unimodular(rng), _qubit(rng)) for _ in range(count)]
    return [u for u, _ in rows], [psi for _, psi in rows]


def _universal_draws(rng):
    us, psis = _haar_rows(rng, 100)
    return {"run_batch": [("universal221", _pairs(us), psis)]}


def _exact_with_ledger_draws(protocol):
    def draws(rng):
        us, psis = [], []
        for k in range(1000):
            us.append(_in_set(rng, diagonal=k % 2 == 0))
            psis.append(_qubit(rng))
        promises = [classify_operator(u).kind for u in us] if protocol == "one11" else None
        return {"run_batch": [(protocol, _pairs(us), psis, promises)]}

    return draws


def _sequential_restoration(rng):
    """The restoration check's loop, one call per sample: the stacked calls
    the check must make, the operator restored on 10 inputs where the loop
    stops (or None), and how many general rows a first draw did not settle:
    those whose first operator is in-set, and those whose operator the first
    input restores."""
    guesses, first_inputs, in_set, psis, families = [], [], [], [], []
    restored_everywhere, unsettled = None, [0, 0]
    for k in range(1000):
        if k % 2:
            in_set.append(_in_set(rng))
            psis.append(_qubit(rng))
            continue
        draws = 0
        while True:
            u, draws = _unimodular(rng), draws + 1
            if classify_operator(u).kind == GENERAL:
                break
        inputs = []
        for _ in range(10):
            inputs.append(_qubit(rng))
            if not bloch.verify_restoration(u, inputs[-1]):
                break
        else:
            restored_everywhere = u
            break
        if draws == 1 and len(inputs) == 1:
            guesses.append(u)
            first_inputs.append(inputs[0])
        unsettled[0] += draws > 1
        unsettled[1] += len(inputs) > 1
        families.append(_pairs([_in_set(rng, diagonal=True) for _ in range(3)] + [u]))
    calls = {
        "classify_matrices": [([u.matrix for u in guesses],)],
        "verify_restorations": [(_pairs(guesses), first_inputs), (_pairs(in_set), psis)],
        "common_corrections": [(families,)],
    }
    return calls, restored_everywhere, unsettled


def _sequential_axis_recovery(rng):
    """The axis recovery check's loop, one operator and one family at a
    time: the stacked calls the check must make, and its result."""
    rotation_axes, angles, families, errors = [], [], [], []
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        w = _unimodular(rng).matrix
        family = []
        for k in range(10):
            if k % 2 == 0:
                n, theta = axis, rng.uniform(0.3, 5.9)
            else:
                raw = rng.normal(size=3)
                n = raw - np.dot(raw, axis) * axis
                n, theta = n / np.linalg.norm(n), np.pi
            rotation_axes.append(n)
            angles.append(theta)
            family.append(Unimodular.from_matrix(w @ from_axis_angle(n, theta).matrix @ w.conj().T))
        families.append(_pairs(family))
        found = find_common_axis(family)
        image = w @ pauli_dot(axis) @ w.conj().T
        expected = np.array([np.trace(image @ s).real / 2 for s in (sigma_x, sigma_y, sigma_z)])
        errors.append(np.nan if found is None else np.arccos(min(abs(float(np.dot(found, expected))), 1.0)))
    calls = {"from_axis_angles": [(rotation_axes, angles)], "find_common_axes": [(families,)]}
    if np.isnan(errors).any():
        return calls, (False, "no axis found for an in-set family")
    return calls, (max(errors) <= AXIS_ANGLE_TOL, f"max angular error {max(errors):.2e}")


def _classification_consistency_draws(rng):
    us, psis = [], []
    for _ in range(100):
        us.append(_unimodular(rng) if rng.random() < 0.5 else _in_set(rng))
        psis.append(_qubit(rng))
    in_set = [n for n, u in enumerate(us) if classify_operator(u).kind != GENERAL]
    general = [n for n in range(len(us)) if n not in in_set]
    batches = [
        ("restricted221", _pairs([us[n] for n in rows]), [psis[n] for n in rows]) for rows in [in_set] + [[n] for n in general]
    ]
    return {"run_batch": batches, "common_corrections": [([[p] for p in _pairs(us)],)]}


def _bloch_purity_draws(rng):
    return {"pure_densities": [([_qubit(rng) for _ in range(200)],)]}


def _bloch_covariance_draws(rng):
    us, psis = _haar_rows(rng, 200)
    return {"bloch_vectors": [([u.matrix @ bloch.pure_density(psi) @ u.matrix.conj().T for u, psi in zip(us, psis)],)]}


def _equal(got: tuple, want: tuple) -> bool:
    """Argument by argument, each as an array (a string or None as itself)."""
    return len(got) == len(want) and all(
        g is None if w is None else g == w if isinstance(w, str) else np.array_equal(np.asarray(g), np.asarray(w))
        for g, w in zip(got, want)
    )


STACKED = {
    "operators.unimodular_closure": _unimodular_closure_draws,
    "operators.classification_trichotomy": _trichotomy_draws,
    "operators.q_symmetry": _q_symmetry_draws,
    "operators.correction_identity": _correction_identity_draws,
    "operators.sign_flip_closure": _sign_flip_draws,
    "operators.orthogonal_pair_overlap": _orthogonal_pair_draws,
    "operators.axis_recovery": lambda rng: _sequential_axis_recovery(rng)[0],
    "protocols.universal_success_half": _universal_draws,
    "protocols.restricted_perfect": _exact_with_ledger_draws("restricted221"),
    "protocols.one11_perfect": _exact_with_ledger_draws("one11"),
    "protocols.failure_branch_identity": _universal_draws,
    "protocols.classification_consistency": _classification_consistency_draws,
    "bloch.purity": _bloch_purity_draws,
    "bloch.rotation_covariance": _bloch_covariance_draws,
    "bloch.restoration_classification": lambda rng: _sequential_restoration(rng)[0],
}
#: Where each stacked function is looked up when a check calls it.
HOMES = {
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


@pytest.mark.parametrize("check", sorted(STACKED))
def test_verify_stacks_draw_the_per_call_samples(monkeypatch, check):
    expected = STACKED[check](np.random.default_rng(5))
    calls = _spy(monkeypatch, expected)
    passed, detail = dict(verify.registry())[check](np.random.default_rng(5))
    assert passed, detail
    for name, want in expected.items():
        got = calls[name]
        if name == "orthogonal_pairs":  # a degenerate draw is dropped and redrawn in a later call
            got = [tuple(np.concatenate([np.asarray(args[i]) for args in got]) for i in range(2))]
        assert len(got) == len(want), name
        for args, want_args in zip(got, want):
            assert _equal(args[: len(want_args)], want_args), name
            assert all(isinstance(a, np.ndarray) for a in args if not isinstance(a, str) and a is not None), name


#: The stacked samplers: what verify calls them by, and where they live.
SAMPLERS = ("random_unimodulars", "random_qubits", "haar_pairs", "haar_qubits")


def test_every_check_that_samples_a_stack_has_an_oracle(monkeypatch):
    current, sampled = [], set()

    def named(check, fn):
        def run(rng):
            current.append(check)
            return fn(rng)

        return run

    for home in (verify, operators):
        for name in SAMPLERS:
            original = getattr(home, name)

            def spy(*args, _original=original):
                stack = _original(*args)
                if len(stack.reshape(-1, 2)) > 1:  # one row is a scalar draw's
                    sampled.add(current[-1])
                return stack

            monkeypatch.setattr(home, name, spy)
    monkeypatch.setattr(verify, "CHECKS", [(name, named(name, fn)) for name, fn in verify.CHECKS])
    monkeypatch.setattr(verify, "DEMO_CHECKS", [(name, named(name, fn)) for name, fn in verify.DEMO_CHECKS])
    results = verify.run_all(7)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert len(current) == len(results)
    assert sampled, "no check drew a stack"
    assert sampled <= set(STACKED), sorted(sampled - set(STACKED))


def _in_set_where(matrices, n_sigma, original):
    """commutation_norms with a zero commutator wherever Re a > 0.95."""
    comm, anti = original(matrices, n_sigma)
    return np.where(np.real(matrices[..., 0, 0]) > 0.95, 0.0, comm), anti


def _restores_where(us, psis, original, everywhere):
    """verify_restorations, also true wherever Re psi[0] > 0.9, and for
    every input wherever Re a < ``everywhere``."""
    pairs, psis = operators.as_pairs(us), np.asarray(psis)
    return original(us, psis) | (psis[:, 0].real > 0.9) | (pairs[:, 0].real < everywhere)


@pytest.mark.parametrize("everywhere", [-1.0, -0.97], ids=["passes", "restored_on_10"])
def test_restoration_check_redraws_each_wrong_guess_one_test_at_a_time(monkeypatch, everywhere):
    """Stubs make some Haar draws classify as in-set and some first inputs
    restore a general operator; with ``restored_on_10``, some operator
    restores on every input, which ends the check. The stacked check must
    report what the one-call-per-sample loop reports, make its stacked calls
    on the same draws and leave the generator where that loop does."""
    norms, restorations = operators.commutation_norms, bloch.verify_restorations
    monkeypatch.setattr(operators, "commutation_norms", lambda m, n: _in_set_where(m, n, norms))
    monkeypatch.setattr(bloch, "verify_restorations", lambda u, p: _restores_where(u, p, restorations, everywhere))
    sequential = np.random.default_rng(17)
    expected, restored_everywhere, unsettled = _sequential_restoration(sequential)
    assert min(unsettled) >= 2, unsettled  # the stubs force both kinds of wrong guess
    if everywhere > -1:
        assert restored_everywhere is not None and len(expected["common_corrections"][0][0]) > 10
    calls = _spy(monkeypatch, expected)
    rng = np.random.default_rng(17)
    passed, detail = verify.check_restoration_classification(rng)
    assert rng.bit_generator.state == sequential.bit_generator.state
    if restored_everywhere is None:
        assert passed and detail == "restoration holds exactly for in-set operators; 500 general operators witnessed"
    else:
        assert not passed and detail == f"general operator restored on 10 random inputs: {restored_everywhere}"
    for name, want in expected.items():
        # the guesses are tested again after each wrong one, and a row drawn
        # alone calls verify_restorations one row at a time: the last calls count
        got = calls[name][-len(want) :]
        assert len(got) == len(want), name
        for args, want_args in zip(got, want):
            assert _equal(args[: len(want_args)], want_args), name


@pytest.mark.parametrize("central_tol", [None, 0.9], ids=["as_is", "central_below_0.9"])
def test_axis_recovery_falls_back_one_family_at_a_time(monkeypatch, central_tol):
    """With CENTRAL_TOL raised to 0.9, a rotation by an angle below about
    2.2 or above about 4.1 constrains nothing, so a family whose first
    rotation is one tries a half-turn's axis first, which fails, and goes on
    to the later operators' axes or, when all five rotations are skipped, to
    the cross products of the half-turns' axes. The stacked check must
    report what the one-family-at-a-time loop reports, make its stacked
    calls on the same draws and leave the generator where that loop does."""
    if central_tol is not None:
        monkeypatch.setattr(operators, "CENTRAL_TOL", central_tol)
    sequential = np.random.default_rng(19)
    expected, result = _sequential_axis_recovery(sequential)
    calls = _spy(monkeypatch, expected)
    searched, search = [], operators._search_axis
    monkeypatch.setattr(operators, "_search_axis", lambda m, axes: searched.append(len(axes)) or search(m, axes))
    rng = np.random.default_rng(19)
    assert verify.check_axis_recovery(rng) == result
    assert result[0], result
    assert rng.bit_generator.state == sequential.bit_generator.state
    for name, want in expected.items():
        assert len(calls[name]) == len(want), name
        for args, want_args in zip(calls[name], want):
            assert _equal(args, want_args), name
    if central_tol is None:
        assert not searched
    else:  # families whose first candidate fails: some keep a rotation, some only the half-turns
        assert len(searched) >= 10 and 5 in searched and max(searched) > 5, searched
