import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from remotegate import (
    ANTICOMMUTING,
    COMMUTING,
    BatchOutcome,
    Gate,
    ProtocolConfig,
    QubitId,
    ResourceLedger,
    Unimodular,
    apply_gate,
    bell_phi_plus,
    demo_cnot_reverse,
    demo_cp_capacity,
    demo_cp_entanglement,
    entanglement_entropy,
    measure,
    outcome_record,
    plus_state,
    ramsey_curve,
    random_qubit,
    random_unimodular,
    reduced_density,
    run_111,
    run_bqst,
    run_restricted_221,
    run_universal_221,
    rz,
    sigma_z,
    success_probability,
    tensor,
)

SPIN_FLIP_TYPE = Unimodular(0, 1)  # [[0,1],[-1,0]], anticommutes with sz


def equatorial(zeta: float) -> np.ndarray:
    return np.array([1.0, np.exp(1j * zeta)]) / np.sqrt(2)


class TestProtocolConfig:
    def test_normalizes_psi(self):
        cfg = ProtocolConfig(u=rz(0.1), psi=np.array([2.0, 0.0]))
        np.testing.assert_allclose(cfg.psi, [1.0, 0.0])

    def test_normalizes_huge_psi(self):
        cfg = ProtocolConfig(u=rz(0.1), psi=[1e200, 0])
        np.testing.assert_allclose(cfg.psi, [1.0, 0.0])

    def test_rejects_zero_psi(self):
        with pytest.raises(ValueError, match="nonzero"):
            ProtocolConfig(u=rz(0.1), psi=np.zeros(2))

    def test_rejects_non_finite_psi(self):
        with pytest.raises(ValueError, match=r"psi\[0\] is not finite"):
            ProtocolConfig(u=rz(0.1), psi=[np.nan, 0])

    def test_rejects_violated_promise(self):
        with pytest.raises(ValueError, match="promise violation"):
            ProtocolConfig(u=rz(0.1), psi=np.array([1, 0]), promise=ANTICOMMUTING)

    def test_names_actual_class_in_promise_error(self):
        with pytest.raises(ValueError, match="commuting"):
            ProtocolConfig(u=rz(0.1), psi=np.array([1, 0]), promise=ANTICOMMUTING)

    def test_sampled_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ProtocolConfig(u=rz(0.1), psi=np.array([1, 0]), mode="sampled")

    def test_rejects_unknown_promise(self):
        with pytest.raises(ValueError, match="promise"):
            ProtocolConfig(u=rz(0.1), psi=np.array([1, 0]), promise="diagonal")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            ProtocolConfig(u=rz(0.1), psi=np.array([1, 0]), mode="bogus")

    @pytest.mark.parametrize("mode", ["sampled", "exact"])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", np.int64(-2)], ids=repr)
    def test_rejects_a_bad_seed_naming_it(self, seed, mode):
        with pytest.raises(ValueError, match=rf"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"):
            ProtocolConfig(u=rz(0.1), psi=[1, 0], mode=mode, seed=seed)

    @pytest.mark.parametrize("u", [(1, 0), np.array([1, 0])], ids=["tuple", "array"])
    def test_keeps_a_pair_as_its_unimodular(self, u):
        cfg = ProtocolConfig(u=u, psi=[1, 0])
        assert isinstance(cfg.u, Unimodular) and cfg.u == Unimodular(1, 0)
        assert np.array_equal(Gate(cfg.u.matrix, "u").matrix, np.eye(2))

    def test_keeps_a_unimodular_as_given(self):
        u = rz(0.1)
        assert ProtocolConfig(u=u, psi=[1, 0]).u is u

    def test_numpy_integer_seed_draws_as_its_int(self):
        runs = [
            run_bqst(ProtocolConfig(u=rz(0.1), psi=[0.6, 0.8], mode="sampled", seed=seed))
            for seed in (np.int64(5), 5)
        ]
        assert runs[0][0].branch_id == runs[1][0].branch_id


class TestBqst:
    def test_identity_returns_psi(self):
        rng = np.random.default_rng(0)
        psi = random_qubit(rng)
        outs = run_bqst(ProtocolConfig(u=Unimodular(1, 0), psi=psi))
        for out in outs:
            assert abs(np.vdot(psi, out.bob_final.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-9)
            assert out.ledger == ResourceLedger(2, 2, 2)

    def test_every_branch_exact_for_random_operator(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            cfg = ProtocolConfig(u=random_unimodular(rng), psi=random_qubit(rng))
            outs = run_bqst(cfg)
            assert len(outs) == 16
            assert min(o.target_fidelity for o in outs) > 1 - 1e-9
            assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-10)


class TestUniversal221:
    def test_success_probability_is_half(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            cfg = ProtocolConfig(u=random_unimodular(rng), psi=random_qubit(rng))
            outs = run_universal_221(cfg)
            assert success_probability(outs) == pytest.approx(0.5, abs=1e-9)
            assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-10)

    def test_ledger(self):
        outs = run_universal_221(ProtocolConfig(u=rz(0.3), psi=equatorial(0.2)))
        for out in outs:
            assert out.ledger == ResourceLedger(2, 2, 1)
            assert out.ledger.as_tuple() == (2, 2, 1)

    def test_identity_failure_branches_hold_mirror(self):
        psi = equatorial(0.9)
        outs = run_universal_221(ProtocolConfig(u=Unimodular(1, 0), psi=psi))
        mirror = sigma_z @ psi
        failed = [o for o in outs if o.measurement_record[-1][2] == "1"]
        assert len(failed) == 8
        for out in failed:
            assert abs(np.vdot(mirror, out.bob_final.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_failure_branch_is_u_sigma_z_psi(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u, psi = random_unimodular(rng), random_qubit(rng)
            wrong = u.matrix @ sigma_z @ psi
            for out in run_universal_221(ProtocolConfig(u=u, psi=psi)):
                if out.measurement_record[-1][2] == "1":
                    fid = abs(np.vdot(wrong, out.bob_final.amplitudes)) ** 2
                    assert fid == pytest.approx(1.0, abs=1e-9)

    def test_rejects_promise(self):
        with pytest.raises(ValueError, match="no promise"):
            run_universal_221(ProtocolConfig(u=rz(0.1), psi=equatorial(0), promise=COMMUTING))


class TestRestricted221:
    def test_spin_flip_on_equatorial_state(self):
        outs = run_restricted_221(ProtocolConfig(u=SPIN_FLIP_TYPE, psi=equatorial(1.3)))
        assert min(o.target_fidelity for o in outs) > 1 - 1e-9
        assert all(o.succeeded for o in outs)

    def test_z_rotations_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            cfg = ProtocolConfig(u=rz(rng.uniform(0, 2 * np.pi)), psi=random_qubit(rng))
            outs = run_restricted_221(cfg)
            assert min(o.target_fidelity for o in outs) > 1 - 1e-9
            assert outs[0].ledger == ResourceLedger(2, 2, 1)

    def test_general_operator_rejected_naming_tests(self):
        cfg = ProtocolConfig(u=Unimodular(1 / np.sqrt(2), 1 / np.sqrt(2)), psi=equatorial(0))
        with pytest.raises(ValueError, match="commutator norm"):
            run_restricted_221(cfg)


class TestOne11:
    def test_commuting_promise(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            cfg = ProtocolConfig(
                u=rz(rng.uniform(0, 2 * np.pi)), psi=random_qubit(rng), promise=COMMUTING
            )
            outs = run_111(cfg)
            assert min(o.target_fidelity for o in outs) > 1 - 1e-9
            assert outs[0].ledger == ResourceLedger(1, 1, 1)
            assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-10)

    def test_anticommuting_promise(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            u = Unimodular(0, np.exp(1j * rng.uniform(0, 2 * np.pi)))
            cfg = ProtocolConfig(u=u, psi=random_qubit(rng), promise=ANTICOMMUTING)
            outs = run_111(cfg)
            assert min(o.target_fidelity for o in outs) > 1 - 1e-9
            assert outs[0].ledger == ResourceLedger(1, 1, 1)

    def test_identity_returns_psi(self):
        psi = equatorial(0.4)
        outs = run_111(ProtocolConfig(u=Unimodular(1, 0), psi=psi, promise=COMMUTING))
        for out in outs:
            assert abs(np.vdot(psi, out.bob_final.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_requires_promise(self):
        with pytest.raises(ValueError, match="promise"):
            run_111(ProtocolConfig(u=rz(0.1), psi=equatorial(0)))


class TestSampledMode:
    def test_single_path_matching_an_exhaustive_branch(self):
        cfg_exact = ProtocolConfig(u=rz(0.8), psi=equatorial(0.1))
        exhaustive = run_universal_221(cfg_exact)
        cfg = ProtocolConfig(u=rz(0.8), psi=equatorial(0.1), mode="sampled", seed=99)
        sampled = run_universal_221(cfg)
        assert len(sampled) == 1
        records = {o.measurement_record: o.probability for o in exhaustive}
        assert sampled[0].measurement_record in records
        assert sampled[0].probability == pytest.approx(
            records[sampled[0].measurement_record], abs=1e-12
        )

    def test_seed_determinism(self):
        cfg1 = ProtocolConfig(u=rz(0.8), psi=equatorial(0.1), mode="sampled", seed=5)
        cfg2 = ProtocolConfig(u=rz(0.8), psi=equatorial(0.1), mode="sampled", seed=5)
        out1, out2 = run_universal_221(cfg1)[0], run_universal_221(cfg2)[0]
        assert out1.measurement_record == out2.measurement_record
        np.testing.assert_allclose(out1.bob_final.amplitudes, out2.bob_final.amplitudes)


class TestControlledPauliDemos:
    def test_entropy_is_two_ebits(self):
        _, entropy = demo_cp_entanglement()
        assert entropy == pytest.approx(2.0, abs=1e-9)

    def test_input_cut_starts_unentangled(self):
        c, cp = QubitId("alice", 0), QubitId("alice", 1)
        t1, t2 = QubitId("bob", 0), QubitId("bob", 1)
        state = tensor(tensor(plus_state(c), plus_state(cp)), bell_phi_plus(t1, t2))
        assert entanglement_entropy(state, [c, cp]) == pytest.approx(0.0, abs=1e-9)

    def test_bob_components_are_bell_states(self):
        state, _ = demo_cp_entanglement()
        c, cp = QubitId("alice", 0), QubitId("alice", 1)
        t1, t2 = QubitId("bob", 0), QubitId("bob", 1)
        for bits in ("00", "01", "10", "11"):
            projected = [
                b for b in measure(state, [c, cp]) if b.outcome == bits
            ]
            assert len(projected) == 1
            bob_branches = measure(projected[0].post_state, [t1, t2], basis="bell")
            assert len(bob_branches) == 1
            assert bob_branches[0].probability == pytest.approx(1.0, abs=1e-10)

    def test_alice_side_is_maximally_mixed(self):
        state, _ = demo_cp_entanglement()
        rho = reduced_density(state, [QubitId("alice", 0), QubitId("alice", 1)])
        np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-10)

    def test_composition_matches_block_unitary(self):
        # oracle: the block matrix sum_j |j><j| (x) sigma_j applied by kron
        from remotegate import identity2, sigma_x, sigma_y

        blocks = (identity2, sigma_x, sigma_y, sigma_z)
        explicit = np.zeros((8, 8), dtype=complex)
        for j, block in enumerate(blocks):
            proj = np.zeros((4, 4))
            proj[j, j] = 1.0
            explicit += np.kron(proj, block)
        from remotegate.protocols import _controlled_pauli_steps

        from remotegate import StateVector

        c, cp = QubitId("alice", 0), QubitId("alice", 1)
        t = QubitId("bob", 0)
        rng = np.random.default_rng(7)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        sequenced = StateVector(amps, (c, cp, t))
        for gate, targets in _controlled_pauli_steps(c, cp, t):
            sequenced = apply_gate(sequenced, gate, targets)
        np.testing.assert_allclose(sequenced.amplitudes, explicit @ amps, atol=1e-12)

    def test_capacity_identity_message(self):
        assert demo_cp_capacity("00") == "00"

    def test_capacity_phase_message(self):
        assert demo_cp_capacity("11") == "11"

    def test_capacity_all_messages(self):
        for message in ("00", "01", "10", "11"):
            assert demo_cp_capacity(message) == message

    def test_capacity_rejects_bad_message(self):
        with pytest.raises(ValueError, match="two bits"):
            demo_cp_capacity("2")


class TestCnotReverse:
    def test_transmits_both_bits(self):
        assert demo_cnot_reverse(0) == 0
        assert demo_cnot_reverse(1) == 1

    def test_deterministic_on_repeat(self):
        assert [demo_cnot_reverse(1) for _ in range(5)] == [1] * 5

    def test_rejects_bad_bit(self):
        with pytest.raises(ValueError, match="0 or 1"):
            demo_cnot_reverse(2)


class TestRamsey:
    def test_endpoints_and_midpoint(self):
        points = dict(ramsey_curve([0.0, np.pi / 2, np.pi]))
        assert points[0.0] == pytest.approx(1.0, abs=1e-12)
        assert points[np.pi / 2] == pytest.approx(0.5, abs=1e-12)
        assert points[np.pi] == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form_on_grid(self):
        thetas = np.linspace(0, 2 * np.pi, 17)
        for theta, p in ramsey_curve(thetas):
            assert p == pytest.approx((1 + np.cos(theta)) / 2, abs=1e-12)

    @pytest.mark.parametrize(
        "thetas, message",
        [([0.1, np.nan], r"^theta\[1\] is not finite: nan$"), ([np.inf, np.nan], r"^theta\[0\] is not finite: inf$")],
        ids=["nan", "first_of_two"],
    )
    def test_an_angle_that_is_not_finite_is_refused_by_name(self, thetas, message):
        with pytest.raises(ValueError, match=message):
            ramsey_curve(thetas)

    def test_empty_grid(self):
        assert ramsey_curve([]) == []


class TestSerialization:
    def test_record_schema(self):
        outs = run_111(ProtocolConfig(u=rz(0.2), psi=equatorial(0), promise=COMMUTING))
        record = outcome_record("one11", outs[0])
        assert set(record) == {
            "protocol",
            "branch_id",
            "measurement_record",
            "probability",
            "fidelity",
            "succeeded",
            "ledger",
        }
        assert record["ledger"] == {"ebits": 1, "cbits_ab": 1, "cbits_ba": 1}
        assert record["branch_id"] == "/".join(m[2] for m in record["measurement_record"])


def test_readme_lists_the_batch_outcome_fields_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| field | shape | contents |\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", table, re.M)
    assert rows == [f.name for f in dataclasses.fields(BatchOutcome)]
