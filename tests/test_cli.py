import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import remotegate
from remotegate import cli, random_unimodular, rz, sigma_x, sigma_y, sigma_z, hadamard_matrix
from remotegate.cli import main, parse_operator, parse_state, render_operator


class TestParser:
    def test_run_arguments(self):
        args = cli._build_parsers()[0].parse_args(
            ["run", "--protocol", "universal221", "--u", "rz:0.5", "--psi", "+"]
        )
        assert args.command == "run"
        assert args.protocol == "universal221"
        assert args.mode == "exact"
        assert args.format == "human"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            cli._build_parsers()[0].parse_args(["run", "--protocol", "bogus", "--u", "id", "--psi", "0"])

    def test_demo_names(self):
        args = cli._build_parsers()[0].parse_args(["demo", "cp-capacity"])
        assert args.name == "cp-capacity"


class TestSharedParser:
    """``main`` builds its parser on the first call and reuses it."""

    @staticmethod
    def requests(tmp_path):
        spec = tmp_path / "ops.txt"
        spec.write_text("rz:0.3\nsx\n")
        return [
            ["run", "--protocol", "one11", "--u", "rz:0.9", "--psi", "+", "--promise", "commuting"],
            ["run", "--protocol", "bqst", "--u", "nope", "--psi", "0"],
            ["--help"],
            ["classify", "--u", "rot:1,0,0,0.7", "--axis", "-1,0,0"],
            ["run", "--protocol", "universal221", "--u", "h", "--psi", "amp:0.6,0,0,0.8",
             "--mode", "sampled", "--seed", "5", "--format", "structured"],
            ["run", "--protocol", "bogus", "--u", "id", "--psi", "0"],
            ["classify", "--help"],
            ["axis", "--set", str(spec)],
            ["demo", "cp-capacity"],
            ["classify", "--u", "sx", "--axis"],
            ["run", "--protocol", "bqst", "--u", "sz", "--psi", "+", "extra"],
            ["classify", "--u", "sz", "--bogus"],
            ["run", "--protocol", "bqst"],
            ["classify", "--u", "sz", "--ax=0,0,1"],
            [],
        ]

    def test_no_parser_is_built_after_the_first_call(self, tmp_path, capsys, monkeypatch):
        main(["classify", "--u", "sx"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in 2 * self.requests(tmp_path):
            main(argv)
        assert built == []
        cli._build_parsers()
        assert built  # the count sees every parser construction

    def test_same_results_as_a_fresh_parser_per_call(self, tmp_path, capsys, monkeypatch):
        def results():
            out = []
            for argv in self.requests(tmp_path):
                code = main(argv)
                out.append((code, *capsys.readouterr()))
            return out

        shared = results()
        monkeypatch.setattr(cli, "_parsers", cli._build_parsers)
        fresh = results()
        assert [r[0] for r in shared] == [0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 1]
        assert shared == fresh

    def test_a_subcommand_parse_is_the_top_level_parse(self, tmp_path, capsys, monkeypatch):
        """``main`` parses a known subcommand's arguments with that
        subcommand's parser; with that dispatch bypassed, so that every argv
        goes through ``_parsers()[0].parse_args``, each request gives the same
        exit code, stdout and stderr. The top-level parse is taken only for
        no arguments, a top-level help flag and arguments the subcommand
        leaves over."""
        def results():
            out = []
            for argv in self.requests(tmp_path):
                code = main(argv)
                out.append((code, *capsys.readouterr()))
            return out

        parser = cli._parsers()[0]
        top_level = []
        parse_args = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda argv: top_level.append(argv) or parse_args(argv))
        dispatched = results()
        assert top_level == [
            ["--help"],
            ["run", "--protocol", "bqst", "--u", "sz", "--psi", "+", "extra"],
            ["classify", "--u", "sz", "--bogus"],
            [],
        ]
        monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))
        assert results() == dispatched
        assert len(top_level) == 4 + len(self.requests(tmp_path))
        assert dispatched[10][2].endswith("remotegate: error: unrecognized arguments: extra\n")

    def test_help_reaches_the_current_stdout_every_time(self, capsys):
        for _ in range(2):
            assert main(["--help"]) == 0
            captured = capsys.readouterr()
            assert captured.out.startswith("usage: remotegate")
            assert captured.err == ""


class TestParseOperator:
    def test_rz(self):
        np.testing.assert_allclose(
            parse_operator("rz:0.5").matrix, np.diag([np.exp(0.5j), np.exp(-0.5j)])
        )

    def test_mat_identity(self):
        np.testing.assert_allclose(parse_operator("mat:1,0,0,0").matrix, np.eye(2))

    def test_mat_rejects_off_sphere(self):
        # 0.36 + 0.64 + 0.01 = 1.01, past tolerance
        with pytest.raises(ValueError, match="deviates"):
            parse_operator("mat:0.6,0,0.8,0.1")

    def test_named_forms_are_unimodular_paulis(self):
        np.testing.assert_allclose(parse_operator("id").matrix, np.eye(2))
        np.testing.assert_allclose(parse_operator("sx").matrix, 1j * sigma_x)
        np.testing.assert_allclose(parse_operator("sy").matrix, 1j * sigma_y)
        np.testing.assert_allclose(parse_operator("sz").matrix, 1j * sigma_z)
        np.testing.assert_allclose(parse_operator("h").matrix, 1j * hadamard_matrix)

    def test_rot_normalizes_axis(self):
        u = parse_operator("rot:2,0,0,3.14159")
        v = parse_operator("rot:1,0,0,3.14159")
        np.testing.assert_allclose(u.matrix, v.matrix)

    def test_parse_error_reports_column(self):
        with pytest.raises(ValueError, match="column"):
            parse_operator("mat:1,0,x,0")

    def test_library_refusal_keeps_the_spec_prefix(self):
        message = r"^bad spec 'mat:0\.6,0,0\.8,0\.1': not unimodular: \|a\|\^2 \+ \|b\|\^2 deviates from 1 by 1\.000e-02$"
        with pytest.raises(ValueError, match=message):
            parse_operator("mat:0.6,0,0.8,0.1")

    def test_unknown_form(self):
        with pytest.raises(ValueError, match="operator spec"):
            parse_operator("paulix")

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            u = random_unimodular(rng)
            again = parse_operator(render_operator(u))
            assert np.abs(u.matrix - again.matrix).max() <= 1e-12


def _mixed_specs(rng, count):
    """Seeded operator specs of every form: the named ones, some padded;
    ``rz:``; ``mat:`` of Haar pairs; and ``rot:`` with zero components of
    either sign, angles 0, -0, +-pi and 2 pi among generic ones, and axes
    up to 1e307, whose squared norm overflows."""
    specs = []
    for _ in range(count):
        form = rng.integers(6)
        if form == 0:
            specs.append(str(rng.choice(["id", "sx", "sy", "sz", "h", " sx ", "h\t"])))
        elif form == 1:
            specs.append(f"rz:{float(rng.normal()) * 4!r}")
        elif form == 2:
            u = random_unimodular(rng)
            specs.append(render_operator(u))
        else:
            axis = rng.normal(size=3)
            zero = rng.random(3) < 0.3
            axis[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
            if not axis.any():
                axis[rng.integers(3)] = rng.choice([1.0, -1.0])
            axis *= rng.choice([1.0, 1.0, 1e-3, 1e200, 1e307])
            theta = rng.choice([0.0, -0.0, np.pi, -np.pi, 2 * np.pi, 10 * float(rng.normal())])
            specs.append("rot:" + ",".join(repr(float(v)) for v in [*axis, theta]))
    return specs


class TestParseOperators:
    """``parse_operators``, the stack form that ``axis --set`` reads a file
    with, against ``parse_operator`` one spec at a time."""

    def test_a_mixed_file_is_its_specs_parsed_one_at_a_time(self):
        """Byte for byte, as uint64 views: signed zeros included."""
        rng = np.random.default_rng(4101)
        for count in (1, 2, 40, 2000):
            specs = _mixed_specs(rng, count)
            want = np.array([(u.a, u.b) for u in map(parse_operator, specs)], dtype=complex)
            got = cli.parse_operators(specs)
            assert got.shape == (count, 2)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert cli.parse_operators([]).shape == (0, 2)

    @pytest.mark.parametrize(
        "specs",
        [
            ["sx", "rot:0,0,0,1", "mat:2,0,0,0"],
            ["rot:1,0,0,0.5", "mat:0.6,0,0.8,0.1", "rot:0,0,0,1"],
            ["rz:0.3", "rot:1,0,x,1", "paulix"],
            ["rot:0,0,1,nan", "rot:0,0,0,1"],
            ["rot:1,0,0,1", "rz:inf", "rot:1,0"],
            ["id", "rot:1,0,0", "rz:nan"],
        ],
        ids=["zero_axis_then_mat", "mat_then_zero_axis", "column_then_form", "nan_angle", "rz_then_rot", "field_count"],
    )
    def test_a_files_first_bad_spec_is_refused_in_its_own_words(self, tmp_path, capsys, specs):
        """The first bad spec's refusal, as ``parse_operator`` words it,
        though a later spec is also bad; and ``axis --set`` prints it."""
        first_bad = next(spec for spec in specs if not _parses(spec))
        with pytest.raises(ValueError) as single:
            parse_operator(first_bad)
        with pytest.raises(ValueError) as stacked:
            cli.parse_operators(specs)
        assert str(stacked.value) == str(single.value)
        path = tmp_path / "ops.txt"
        path.write_text("\n".join(specs) + "\n")
        assert main(["axis", "--set", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {single.value}\n"

    def test_axis_set_prints_the_search_on_its_specs_one_at_a_time(self, tmp_path, capsys):
        """On seeded files, with comments and blank lines: rotations about
        one axis mixed with half-turns about axes orthogonal to it, half-turns
        only, and Haar sets."""
        rng = np.random.default_rng(4102)
        for k in range(30):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            specs = []
            for _ in range(int(rng.integers(1, 12))):
                if k % 3 == 2:
                    specs.append(render_operator(random_unimodular(rng)))
                    continue
                perp = np.cross(axis, rng.normal(size=3))
                turn = k % 3 == 0 and rng.random() < 0.5
                along, theta = (axis, float(rng.uniform(0.3, 5.9))) if turn else (perp, np.pi)
                specs.append("rot:" + ",".join(repr(float(v)) for v in [*along, theta]))
            path = tmp_path / "ops.txt"
            path.write_text("# a set\n\n" + "\n".join(specs) + "\n")
            assert main(["axis", "--set", str(path)]) == 0
            found = remotegate.find_common_axis([parse_operator(spec) for spec in specs])
            want = "none" if found is None else ",".join(repr(float(c)) for c in found)
            assert capsys.readouterr().out == want + "\n"


def _parses(spec) -> bool:
    try:
        parse_operator(spec)
    except ValueError:
        return False
    return True


class TestParseState:
    def test_plus(self):
        np.testing.assert_allclose(
            parse_state("+").amplitudes, np.array([1, 1]) / np.sqrt(2)
        )

    def test_amp_normalizes(self):
        np.testing.assert_allclose(
            parse_state("amp:1,0,1,0").amplitudes, np.array([1, 1]) / np.sqrt(2)
        )

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            parse_state("amp:0,0,0,0")

    def test_library_refusal_keeps_the_spec_prefix(self):
        with pytest.raises(ValueError, match=r"^bad spec 'amp:0,0,0,0': cannot normalize a zero state vector$"):
            parse_state("amp:0,0,0,0")

    def test_unknown_form(self):
        with pytest.raises(ValueError, match="state spec"):
            parse_state("up")


class TestMain:
    def test_run_structured_success_probability(self, capsys):
        code = main(
            ["run", "--protocol", "universal221", "--u", "rot:1,0,0,1.0472",
             "--psi", "+", "--format", "structured"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "schema: 1"
        records = [json.loads(line) for line in lines[1:]]
        assert len(records) == 16
        total = sum(r["probability"] for r in records if r["succeeded"])
        assert total == pytest.approx(0.5, abs=1e-9)
        assert records[0]["ledger"] == {"ebits": 2, "cbits_ab": 2, "cbits_ba": 1}

    def test_run_structured_universal221_prints_exact_branch_probabilities(self, capsys):
        """The compile certifies each branch's weight as exactly 1/16, so a
        run on a z rotation and |0> prints 0.0625 on every branch."""
        argv = ["run", "--protocol", "universal221", "--u", "rz:0.3", "--psi", "0", "--format", "structured"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == 16 and all('"probability": 0.0625,' in line for line in lines)

    def test_no_fidelity_exceeds_one(self, capsys):
        """Bob's state and U|psi> are unit only to rounding, and on this
        configuration their overlap squared rounds above 1 on every branch;
        each fidelity is clipped at 1, and every branch still succeeds."""
        argv = ["run", "--protocol", "bqst", "--u", "rot:0,0,1,0.0", "--psi", "+", "--format", "structured"]
        assert main(argv) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(records) == 16 and all(r["succeeded"] for r in records)
        assert max(r["fidelity"] for r in records) == 1.0

    def test_structured_output_is_deterministic(self, capsys):
        argv = ["run", "--protocol", "one11", "--u", "rz:0.9", "--psi", "amp:0.6,0,0,0.8",
                "--promise", "commuting", "--mode", "sampled", "--seed", "31",
                "--format", "structured"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_run_sampled_human_summary(self, capsys):
        argv = ["run", "--protocol", "one11", "--u", "sz", "--psi", "+", "--promise", "commuting",
                "--mode", "sampled", "--seed", "1"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and lines[0] == "protocol: one11   mode: sampled"
        assert lines[1].startswith("  [ok ] p=")  # the one drawn branch
        assert lines[2] == "sampled branch succeeded: True   ledger: 1 e-bits, 1 c-bits A->B, 1 c-bits B->A"

    def test_demo_entropy_line(self, capsys):
        assert main(["demo", "cp-entanglement"]) == 0
        assert "2.000000000000" in capsys.readouterr().out

    def test_demo_capacity(self, capsys):
        assert main(["demo", "cp-capacity"]) == 0
        out = capsys.readouterr().out
        for message in ("00", "01", "10", "11"):
            assert f"message {message} -> decoded {message}" in out

    def test_demo_cnot_reverse(self, capsys):
        assert main(["demo", "cnot-reverse"]) == 0
        out = capsys.readouterr().out
        assert "bob sends 0 -> alice reads 0" in out
        assert "bob sends 1 -> alice reads 1" in out

    def test_classify(self, capsys):
        assert main(["classify", "--u", "rz:0.5"]) == 0
        assert capsys.readouterr().out.strip() == "commuting(0,0,1)"
        assert main(["classify", "--u", "rot:1,0,0,1.0472"]) == 0
        assert capsys.readouterr().out.strip() == "general"

    def test_classify_custom_axis(self, capsys):
        assert main(["classify", "--u", "rot:1,0,0,0.7", "--axis", "1,0,0"]) == 0
        assert capsys.readouterr().out.strip() == "commuting(1,0,0)"

    def test_classify_general_about_a_custom_axis(self, capsys):
        """A turn about (1, 0, 1) neither commutes nor anticommutes with the y axis."""
        assert main(["classify", "--u", "rot:1,0,1,0.7", "--axis=0,1,0"]) == 0
        assert capsys.readouterr() == ("general\n", "")

    @pytest.mark.parametrize("axis", ["-1,0,0", "-.5,0,1", "-0.1,0,1", "-inf,0,1", "-nan,0,1", "-Infinity,0,1"])
    def test_classify_negative_axis_both_forms(self, axis, capsys):
        finite = np.isfinite(float(axis.split(",")[0]))
        assert main(["classify", "--u", "sz", "--axis", axis]) == (0 if finite else 1)
        spaced = capsys.readouterr()
        assert main(["classify", "--u", "sz", f"--axis={axis}"]) == (0 if finite else 1)
        assert capsys.readouterr() == spaced
        if finite:
            assert spaced.err == ""
        else:
            assert "not a finite number at column 1" in spaced.err

    def test_classify_negative_axis_from_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["remotegate", "classify", "--u", "sz", "--axis", "-1,0,0"])
        assert main() == 0
        assert capsys.readouterr().out.strip() == "anticommuting(-1,0,0)"

    def test_classify_axis_without_value(self, capsys):
        assert main(["classify", "--u", "sz", "--axis"]) == 1
        assert "expected one argument" in capsys.readouterr().err

    def test_ramsey_grid(self, capsys):
        assert main(["ramsey", "--steps", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "theta,p_plus"
        assert len(lines) == 9
        for k, line in enumerate(lines[1:]):
            theta, p = (float(x) for x in line.split(","))
            assert theta == pytest.approx(k * np.pi / 8)
            assert p == pytest.approx((1 + np.cos(theta)) / 2, abs=1e-12)

    def test_ramsey_out_file(self, tmp_path):
        path = tmp_path / "fringe.csv"
        assert main(["ramsey", "--steps", "4", "--out", str(path)]) == 0
        assert path.read_text().startswith("theta,p_plus")

    def test_axis_subcommand(self, tmp_path, capsys):
        spec = tmp_path / "ops.txt"
        spec.write_text("# a family sharing the z axis\nrz:0.3\nrz:1.1\nsx\nsy\n")
        assert main(["axis", "--set", str(spec)]) == 0
        values = [float(v) for v in capsys.readouterr().out.strip().split(",")]
        np.testing.assert_allclose(values, [0, 0, 1], atol=1e-9)

    def test_axis_none(self, tmp_path, capsys):
        spec = tmp_path / "ops.txt"
        spec.write_text("rot:1,0,0,1.0472\nrz:0.63\n")
        assert main(["axis", "--set", str(spec)]) == 0
        assert capsys.readouterr().out.strip() == "none"

    @pytest.mark.parametrize(
        "ops, printed",
        [
            ("rot:0,0,1,0.7\nrz:1.3\nsx\n", "0.0,0.0,1.0"),
            ("rot:1,1,0,2.1\nrot:1,-1,0,3.141592653589793\nrot:1,1,0,0.4\n", "0.7071067811865475,0.7071067811865475,0.0"),
            # the first operator's axis fails, and the search finds z
            ("sx\nrot:0,0,1,0.7\nsy\n", "0.0,0.0,1.0"),
            ("rz:0.4\nrot:0,0,1,2.1\nsx\n", "0.0,0.0,1.0"),
            # no candidate fits: the own axes and the cross products are both tried
            ("rot:0,0,1,0.7\nrot:1,0,1,0.7\nrot:0,1,0,1.1\n", "none"),
            # three half-turns in the xy plane: only a cross product fits
            ("rot:1,0,0,3.141592653589793\nrot:0,1,0,3.141592653589793\nrot:1,1,0,3.141592653589793\n", "0.0,0.0,1.0"),
            # a failed candidate 3e-5 rad from z does not hide z
            ("rot:0,1,0,3.141592653589793\nrot:3e-5,0,1,1e-6\nrot:0,0,1,1.1\n", "0.0,0.0,1.0"),
        ],
        ids=["z_first", "xy_first", "z_searched", "z_turns_and_sx", "none_fits", "cross_product_only", "near_failed_candidate"],
    )
    def test_axis_prints_no_signed_zero(self, tmp_path, capsys, ops, printed):
        """A zero component comes out as 0.0 whatever the sign of the pair
        entries it is read from; a set no axis fits prints none."""
        spec = tmp_path / "ops.txt"
        spec.write_text(ops)
        assert main(["axis", "--set", str(spec)]) == 0
        assert capsys.readouterr().out.strip() == printed

    @pytest.mark.parametrize("mode", [[], ["--mode", "sampled", "--seed", "1"]], ids=["exact", "sampled"])
    @pytest.mark.parametrize(
        "protocol, success, ledger",
        [
            (["bqst"], "1.000000000000", "2 e-bits, 2 c-bits A->B, 2 c-bits B->A"),
            (["universal221"], "0.500000000000", "2 e-bits, 2 c-bits A->B, 1 c-bits B->A"),
            (["restricted221"], "1.000000000000", "2 e-bits, 2 c-bits A->B, 1 c-bits B->A"),
            (["one11", "--promise", "commuting"], "1.000000000000", "1 e-bits, 1 c-bits A->B, 1 c-bits B->A"),
        ],
        ids=["bqst", "universal221", "restricted221", "one11"],
    )
    def test_a_z_rotation_runs_through_each_protocol(self, capsys, protocol, success, ledger, mode):
        """Each protocol on one z rotation and |+>: the exact run prints its
        success probability and ledger, the sampled run its drawn branch's
        verdict (seed 1 draws a success on each)."""
        assert main(["run", "--protocol", *protocol, "--u", "rot:0,0,1,0.7", "--psi", "+", *mode]) == 0
        out, err = capsys.readouterr()
        verdict = "sampled branch succeeded: True" if mode else f"success probability: {success}"
        assert err == "" and out.splitlines()[-1] == f"{verdict}   ledger: {ledger}"

    def test_an_admitted_rotation_below_unit_norm_prints_fidelity_one(self, capsys):
        """|a|^2 + |b|^2 about 1e-10 below 1 is admitted; the branch
        probabilities sum to that norm, and each fidelity, taken against
        U psi / |U psi|, prints as 1."""
        u = "mat:0.7059025442092081,0.3480365654004425,-0.41866040627209367,0.453095587424239"
        assert main(["run", "--protocol", "bqst", "--u", u, "--psi", "0"]) == 0
        out = capsys.readouterr().out
        assert re.findall(r"fidelity=(\S+)", out) == ["1.000000000000"] * 16
        assert out.splitlines()[-1].startswith("success probability: 0.999999999900   ")

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "27/27 checks passed" in out


class TestExitCodes:
    def test_bad_operator_spec(self, capsys):
        assert main(["run", "--protocol", "bqst", "--u", "nope", "--psi", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_promise_violation(self, capsys):
        code = main(
            ["run", "--protocol", "one11", "--u", "rz:0.4", "--psi", "0",
             "--promise", "anticommuting"]
        )
        assert code == 1
        assert "promise violation" in capsys.readouterr().err

    def test_general_operator_in_restricted_protocol(self, capsys):
        code = main(["run", "--protocol", "restricted221", "--u", "h", "--psi", "+"])
        assert code == 1
        assert "commutator norm" in capsys.readouterr().err

    def test_sampled_without_seed(self, capsys):
        code = main(
            ["run", "--protocol", "bqst", "--u", "id", "--psi", "0", "--mode", "sampled"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--protocol", "bqst", "--u", "id", "--psi", "0", "--mode", "sampled", "--seed", "-1"],
            ["verify", "--seed", "-1"],
        ],
        ids=["run", "verify"],
    )
    def test_negative_seed_is_named(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["classify", "--u", "rot:0,0,0,1"], "bad spec 'rot:0,0,0,1': zero rotation axis"),
            (["classify", "--u", "sz", "--axis", "0,0,0"], "bad axis '0,0,0': zero vector"),
            (["classify", "--u", "rz:1,2"], "bad spec 'rz:1,2': expected 1 comma-separated numbers, got 2"),
            (["ramsey", "--steps", "0"], "--steps must be at least 1"),
            (
                ["run", "--protocol", "restricted221", "--u", "rot:1,0,1,0.7", "--psi", "+"],
                "operator is neither commuting nor anticommuting with the z axis"
                " (commutator norm 6.858e-01, anticommutator norm 2.744e+00)",
            ),
            (
                ["run", "--protocol", "one11", "--u", "sx", "--psi", "+", "--promise", "commuting"],
                "promise violation: operator classifies as anticommuting, promise says commuting",
            ),
            (
                ["run", "--protocol", "universal221", "--u", "sz", "--psi", "+", "--promise", "commuting"],
                "the universal protocol takes no promise",
            ),
        ],
        ids=["zero_rotation_axis", "zero_axis", "field_count", "no_steps", "general_in_restricted", "broken_promise", "promise_to_universal"],
    )
    def test_refusal_is_named(self, argv, message, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_subcommand(self):
        assert main(["teleport"]) == 1

    def test_missing_set_file(self, capsys):
        assert main(["axis", "--set", "/nonexistent/ops.txt"]) == 1

    def test_internal_violation_maps_to_two(self, capsys, monkeypatch):
        from remotegate import InvariantViolation
        from remotegate import cli

        def broken(cfg):
            raise InvariantViolation("forced for the exit-code contract")

        monkeypatch.setitem(cli.PROTOCOLS, "bqst", broken)
        assert main(["run", "--protocol", "bqst", "--u", "id", "--psi", "0"]) == 2
        assert "internal invariant violation" in capsys.readouterr().err


class TestNonFinite:
    """A NaN or infinite field stops the command at that field, exit code 1."""

    @pytest.mark.parametrize(
        "argv, column",
        [
            (["classify", "--u", "sx", "--axis", "nan,0,1"], 1),
            (["run", "--protocol", "bqst", "--u", "mat:nan,0,0,0", "--psi", "0"], 5),
            (["run", "--protocol", "one11", "--u", "rz:inf", "--psi", "0", "--promise", "commuting"], 4),
            (["run", "--protocol", "bqst", "--u", "id", "--psi", "amp:1,0,-inf,0"], 9),
        ],
    )
    def test_rejected_at_column(self, argv, column, capsys):
        assert main(argv) == 1
        assert f"not a finite number at column {column}" in capsys.readouterr().err

    def test_axis_set_rejects_nan(self, tmp_path, capsys):
        spec = tmp_path / "ops.txt"
        spec.write_text("rz:nan\n")
        assert main(["axis", "--set", str(spec)]) == 1
        assert "not a finite number at column 4" in capsys.readouterr().err


#: spec prefix -> (number of fields, command line that parses the spec);
#: ``--opt=spec`` keeps argparse from reading a leading "-" as an option.
SPEC_FORMS = {
    "rz:": (1, lambda spec: ["classify", f"--u={spec}"]),
    "rot:": (4, lambda spec: ["classify", f"--u={spec}"]),
    "mat:": (4, lambda spec: ["classify", f"--u={spec}"]),
    "amp:": (4, lambda spec: ["run", "--protocol", "bqst", "--u", "id", f"--psi={spec}"]),
    "": (3, lambda spec: ["classify", "--u", "sx", f"--axis={spec}"]),
}


@settings(max_examples=60, deadline=None)
@given(
    form=st.sampled_from(sorted(SPEC_FORMS)),
    values=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
    bad=st.sampled_from(["nan", "inf", "-inf"]),
    index=st.integers(0, 3),
)
def test_non_finite_spec_field_is_named(form, values, bad, index):
    count, argv = SPEC_FORMS[form]
    fields = [repr(v) for v in values[:count]]
    index %= count
    fields[index] = bad
    column = len(form) + sum(len(f) + 1 for f in fields[:index]) + 1
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv(form + ",".join(fields))) == 1
    assert f"at column {column}: {bad!r}" in err.getvalue()


class TestHugeFields:
    """Finite fields whose squares overflow: a direction normalises, a
    ``mat:`` far from unimodular is refused with the residual."""

    def test_huge_amp_state_normalises(self, capsys):
        argv = ["run", "--protocol", "bqst", "--u", "sx", "--psi", "amp:1e200,0,1e200,0",
                "--format", "structured"]
        assert main(argv) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(records) == 16
        assert min(r["fidelity"] for r in records) >= 1 - 1e-9

    def test_huge_mat_is_refused_with_residual(self, capsys):
        argv = ["run", "--protocol", "bqst", "--u", "mat:1e200,0,0,0", "--psi", "0"]
        assert main(argv) == 1
        assert "|a|^2 + |b|^2 deviates from 1 by inf" in capsys.readouterr().err

    def test_huge_rotation_axis_normalises(self, capsys):
        assert main(["classify", "--u", "rot:1e200,0,0,0.7", "--axis", "1,0,0"]) == 0
        assert capsys.readouterr().out.strip() == "commuting(1,0,0)"

    def test_huge_classification_axis_normalises(self, capsys):
        assert main(["classify", "--u", "sx", "--axis=1e200,0,0"]) == 0
        assert capsys.readouterr().out.strip() == "commuting(1,0,0)"


def test_python_m_remotegate_runs_the_cli():
    """``python -m remotegate`` is ``python -m remotegate.cli``, whether the
    package is installed or imported from a checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(remotegate.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outputs = [
        subprocess.run([sys.executable, "-m", module, "classify", "--u", "sz"],
                       capture_output=True, text=True, env=env, check=True).stdout
        for module in ("remotegate", "remotegate.cli")
    ]
    assert outputs[0] == outputs[1] == "commuting(0,0,1)\n"
