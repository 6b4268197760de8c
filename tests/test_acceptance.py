"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured margin.

Each criterion runs its check from the ``remotegate verify`` registry, on
the seed offset it has always used. Sample counts live in the checks and
thresholds in ``remotegate.tolerances``; neither is to be loosened."""

import numpy as np

from remotegate import verify


def _check(criterion: str, name: str, offset: int = 0):
    passed, detail = dict(verify.registry())[name](np.random.default_rng(verify.DEFAULT_SEED + offset))
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_universal_success_probability():
    _check("criterion 1 (universal 2-2-1 success probability 1/2)", "protocols.universal_success_half", 0)


def test_criterion_2_restricted_perfection_and_ledger():
    _check("criterion 2 (restricted 2-2-1 exact with ledger (2,2,1))", "protocols.restricted_perfect", 1)


def test_criterion_3_one11_perfection_and_ledger():
    _check("criterion 3 (1-1-1 exact with ledger (1,1,1))", "protocols.one11_perfect", 2)


def test_criterion_4_controlled_pauli_entanglement():
    _check("criterion 4 (controlled-Pauli output holds 2 e-bits)", "protocols.cp_entanglement")


def test_criterion_5_capacity_demos():
    _check("criterion 5 (2 classical bits forward, 1 backward)", "protocols.capacity_demos")


def test_criterion_6_failure_branch_identity():
    _check("criterion 6 (failed branches hold U sz|psi> up to phase)", "protocols.failure_branch_identity", 3)


def test_criterion_7_orthogonal_pair_overlap():
    _check("criterion 7 (image overlap equals |sin lambda|)", "operators.orthogonal_pair_overlap", 4)


def test_criterion_8_general_operators_are_witnessed():
    _check(
        "criterion 8 (general operators break restoration and the common correction)",
        "bloch.restoration_classification",
        5,
    )


def test_criterion_9_axis_recovery():
    _check("criterion 9 (conjugated axis recovered)", "operators.axis_recovery", 6)


def test_criterion_10_ramsey_sweep():
    _check("criterion 10 (protocol-computed fringe matches (1+cos)/2)", "protocols.ramsey_fringe")
