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
    find_orthogonal_pair,
    operators,
    orthogonal_state,
    protocols,
    random_qubit,
    random_unimodular,
    rz,
    verify,
)

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


# ---------------------------------------------------------------------------
# batched sampling loops draw what the per-call loops drew
#
# Each oracle below is the loop a check ran before it was batched, one call
# per sample, written with the scalar functions. The check's stacked inputs
# must equal the oracle's draws, in order and in count.


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
        random_unimodular(rng), random_unimodular(rng)
        alphas.append(rng.uniform(0.1, 3.0))
        xis.append(random_qubit(rng))
    return {"q_matrices": [(alphas, xis)]}


def _q_symmetry_draws(rng):
    alphas, psis = [], []
    for _ in range(1000):
        alphas.append(rng.uniform(-3, 3))
        psis.append(random_qubit(rng))
    alphas, psis = np.array(alphas), np.array(psis)
    return {"q_matrices": [(alphas, psis), (-alphas, orthogonal_state(psis))]}


def _sign_flip_draws(rng):
    return {"classify_matrices": [([u.matrix for u in (_in_set(rng) for _ in range(500))],)]}


def _orthogonal_pair_draws(rng):
    u1s, u2s = [], []
    while len(u1s) < 1000:
        u1, u2 = random_unimodular(rng), random_unimodular(rng)
        try:
            find_orthogonal_pair(u1, u2)
        except ValueError:
            continue
        u1s.append(u1)
        u2s.append(u2)
    return {"orthogonal_pairs": [(_pairs(u1s), _pairs(u2s))]}


def _restoration_draws(rng):
    in_set, psis, families = [], [], []
    for k in range(1000):
        if k % 2 == 0:
            while True:
                u = random_unimodular(rng)
                if classify_operator(u).kind == GENERAL:
                    break
            for _ in range(10):
                if not bloch.verify_restoration(u, random_qubit(rng)):
                    break
            families.append(_pairs([_in_set(rng, diagonal=True) for _ in range(3)] + [u]))
        else:
            in_set.append(_in_set(rng))
            psis.append(random_qubit(rng))
    return {"verify_restorations": [(_pairs(in_set), psis)], "common_corrections": [(families,)]}


def _classification_consistency_draws(rng):
    us, psis = [], []
    for _ in range(100):
        us.append(random_unimodular(rng) if rng.random() < 0.5 else _in_set(rng))
        psis.append(random_qubit(rng))
    in_set = [n for n, u in enumerate(us) if classify_operator(u).kind != GENERAL]
    general = [n for n in range(len(us)) if n not in in_set]
    batches = [
        ("restricted221", _pairs([us[n] for n in rows]), [psis[n] for n in rows]) for rows in [in_set] + [[n] for n in general]
    ]
    return {"run_batch": batches, "common_corrections": [([[p] for p in _pairs(us)],)]}


def _equal(got: tuple, want: tuple) -> bool:
    """Argument by argument, each as an array (a string as itself)."""
    return len(got) == len(want) and all(
        g == w if isinstance(w, str) else np.array_equal(np.asarray(g), np.asarray(w)) for g, w in zip(got, want)
    )


STACKED = {
    "operators.unimodular_closure": _unimodular_closure_draws,
    "operators.q_symmetry": _q_symmetry_draws,
    "operators.sign_flip_closure": _sign_flip_draws,
    "operators.orthogonal_pair_overlap": _orthogonal_pair_draws,
    "bloch.restoration_classification": _restoration_draws,
    "protocols.classification_consistency": _classification_consistency_draws,
}
#: Where each stacked function is looked up when a check calls it.
HOMES = {
    "q_matrices": operators,
    "classify_matrices": operators,
    "orthogonal_pairs": operators,
    "common_corrections": operators,
    "verify_restorations": bloch,
    "run_batch": protocols,
}


@pytest.mark.parametrize("check", sorted(STACKED))
def test_verify_stacks_draw_the_per_call_samples(monkeypatch, check):
    expected = STACKED[check](np.random.default_rng(5))
    calls = {name: [] for name in expected}
    for name in expected:
        original = getattr(HOMES[name], name)

        def spy(*args, _name=name, _original=original):
            calls[_name].append(args)
            return _original(*args)

        monkeypatch.setattr(HOMES[name], name, spy)
    passed, detail = dict(verify.registry())[check](np.random.default_rng(5))
    assert passed, detail
    for name, want in expected.items():
        got = calls[name]
        if name == "verify_restorations":  # the general operators' one-row calls come first
            got = [args for args in got if len(args[0]) > 1]
        if name == "orthogonal_pairs":  # a degenerate draw is dropped and redrawn in a later call
            got = [tuple(np.concatenate([np.asarray(args[i]) for args in got]) for i in range(2))]
        assert len(got) == len(want), name
        for args, want_args in zip(got, want):
            assert _equal(args[: len(want_args)], want_args), name
