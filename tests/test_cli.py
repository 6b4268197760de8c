import argparse
import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import remotegate
from remotegate import cli, operators, random_unimodular, verify, rz, sigma_x, sigma_y, sigma_z, hadamard_matrix
from remotegate.cli import main, parse_operator, parse_state, render_operator
from remotegate.protocols import PROTOCOLS, ProtocolConfig, outcome_record


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
            # edge forms: an abbreviation, a repeat, an empty value, "--", help,
            # a "-" state, "-"-led and bad seeds and a choices miss
            ["run", "--prot", "bqst", "--u", "sz", "--psi", "+"],
            ["classify", "--u", "sx", "--u", "sz"],
            ["run", "--protocol", "bqst", "--u", "sz", "--psi", "+", "--out="],
            ["run", "--protocol", "bqst", "--u", "sz", "--", "--psi", "+"],
            ["run", "--protocol", "bqst", "-h"],
            ["run", "--protocol", "bqst", "--u", "sz", "--psi", "-"],
            ["run", "--protocol", "bqst", "--u", "sz", "--psi", "+", "--mode", "sampled", "--seed", "-5"],
            ["run", "--protocol", "bqst", "--u", "sz", "--psi", "+", "--mode", "sampled", "--seed=abc"],
            ["run", "--protocol", "bqst", "--u", "sz", "--psi", "+", "--mode", "sampled", "--seed=-1"],
            ["run", "--protocol", "bqst", "--u", "sz", "--psi", "+", "--mode", "fast"],
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
        assert [r[0] for r in shared] == [0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1]
        assert shared == fresh

    def test_a_subcommand_parse_is_the_top_level_parse(self, tmp_path, capsys, monkeypatch):
        """``main`` takes the top-level parse, once, for exactly the requests
        that ``_read_plain`` declines, and for none that it reads; with the
        reader's dispatch bypassed, so that every argv goes through
        ``_parsers()[0].parse_args``, each request gives the same exit code,
        stdout and stderr."""
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
        requests = [cli._join_axis_values(argv) for argv in self.requests(tmp_path)]
        read = [0, 1, 3, 4, 7, 17, 20, 23]
        readers = cli._parsers()[2]
        assert [n for n, argv in enumerate(requests) if argv and argv[0] in readers
                and cli._read_plain(*readers[argv[0]], argv[1:]) is not None] == read
        assert top_level == [argv for n, argv in enumerate(requests) if n not in read]
        monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}, {}))
        assert results() == dispatched
        assert len(top_level) == 17 + len(requests)
        assert dispatched[10][2].endswith("remotegate: error: unrecognized arguments: extra\n")

    def test_help_reaches_the_current_stdout_every_time(self, capsys):
        for _ in range(2):
            assert main(["--help"]) == 0
            captured = capsys.readouterr()
            assert captured.out.startswith("usage: remotegate")
            assert captured.err == ""


SAMPLED_PATHS = json.loads((Path(__file__).parent / "data" / "sampled_paths.json").read_text())

#: values drawn for any option: specs, choices and integers, valid for some
#: options and not for others, and forms argparse reads in its own way
READER_VALUES = [
    "sz", "rz:0.3", "rot:1,0,0,0.7", "mat:0.6,0.8,0,0", "nope", "+", "amp:0.6,0,0,0.8",
    "0,0,1", "-0.6,0,0.8", "5", "0", "-5", "abc", "4.5", " 7", "out.txt", "bqst", "bogus",
    "-", "--", "-h", "", "-1", "a b", "=",
]


def _option_values(action) -> list[str]:
    """Values an option takes, and some it refuses or argparse reads in its own way."""
    if action.choices:
        return [*map(str, action.choices), "bogus", "--"]
    if action.type is int:
        return ["5", "0", " 7", "abc", "-1", "--"]
    return ["sz", "+", "rot:1,0,0,0.7", "-0.6,0,0.8", "-", "a b", "", "--", "-h"]


@st.composite
def _reader_argvs(draw, options, stores):
    """A subcommand's arguments as chunks in a drawn order: often every
    required option, then options with one of their values, and option strings,
    their abbreviations and help flags alone, with any value token or with
    an ``=`` value, or a value alone."""
    forms = sorted(options) + [o[:k] for o in sorted(options) for k in range(3, len(o))] + ["-h", "--help"]
    values = READER_VALUES + sorted({v for a in stores for v in _option_values(a)})

    def option(action):
        form, value = draw(st.sampled_from(action.option_strings)), draw(st.sampled_from(_option_values(action)))
        return draw(st.sampled_from([[form, value], [f"{form}={value}"]]))

    chunks = [option(a) for a in stores if a.required] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 4))):
        if stores and draw(st.integers(0, 2)):
            chunks.append(option(draw(st.sampled_from(stores))))
        else:
            form, value = draw(st.sampled_from(forms)), draw(st.sampled_from(values))
            chunks.append(draw(st.sampled_from([[form, value], [f"{form}={value}"], [form], [value]])))
    return [token for chunk in draw(st.permutations(chunks)) for token in chunk]


@pytest.mark.parametrize("name", sorted(cli._build_parsers()[1]))
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_plain_reader_gives_argparses_namespace_or_declines(name, data):
    """``_read_plain`` gives no namespace that a subcommand's parser would
    not: where argparse exits, with its output captured, or leaves
    arguments over, the reader returns None. A subcommand with a positional
    argument has no reader, so argparse reads every request of it."""
    _, subparsers, readers = cli._parsers()
    parser, reader = subparsers[name], readers.get(name)
    tokens = data.draw(_reader_argvs(*reader or ({}, [])))
    got = cli._read_plain(*reader, tokens) if reader else None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            want = parser.parse_known_args(tokens)
        except SystemExit:
            want = None
    if got is not None:
        assert want is not None and want[1] == []
        assert vars(got) == vars(want[0])


def test_the_plain_reader_reads_only_long_options_storing_one_value():
    """Every argument of a subcommand that ``_read_plain`` reads is declared
    in ``_SUBCOMMANDS`` as one long option that stores one value, kept by
    its option string and in order: no flag, no ``nargs``, no string
    default that its ``type`` converts and no suppressed default, none of
    which the reader's namespace would give as argparse does. Only ``demo``,
    whose argument is positional, has no reader."""
    readers = cli._build_parsers()[2]
    assert list(readers) == [name for name in cli._SUBCOMMANDS if name != "demo"]
    for name, (options, stores) in readers.items():
        arguments = cli._SUBCOMMANDS[name][2]
        assert len(options) == len(stores) == len(arguments)
        for (flag, keywords), action in zip(arguments, stores):
            assert flag.startswith("--") and action.option_strings == [flag] and options[flag] is action, (name, flag)
            assert keywords.get("action", "store") == "store" and action.nargs is None, (name, flag)
            assert not (action.type is not None and isinstance(action.default, str)), (name, flag)
            assert action.default is not argparse.SUPPRESS, (name, flag)


class TestPlainReader:
    """``_read_plain`` reads a well-formed request without argparse's loop."""

    def test_well_formed_requests_never_reach_argparse(self, tmp_path, capsys, monkeypatch):
        """With every parser's parse made to raise, the pinned sampled runs
        give their recorded records, and the other requests the output they
        give through the top-level parse (verify's seconds aside)."""
        spec = tmp_path / "ops.txt"
        spec.write_text("# z turns and an x half-turn\nrz:0.3\nrot:0,0,1,0.7\nrot:1,0,0,3.141592653589793\n")
        requests = [
            ["classify", "--u", "rot:0.6,0,0.8,3.141592653589793", "--axis", "-0.6,0,0.8"],
            ["axis", "--set", str(spec)],
            ["ramsey", "--steps", "4"],
            ["verify", "--seed", "1"],
        ]

        def results():
            out = []
            for argv in requests:
                code = main(argv)
                out.append((code, *(re.sub(r"\(\d+\.\d+ s\)", "", text) for text in capsys.readouterr())))
            return out

        top, subparsers, _ = cli._parsers()
        with monkeypatch.context() as undo:
            undo.setattr(cli, "_parsers", lambda: (top, {}, {}))
            recorded = results()

        def refuse(*args, **kwargs):
            raise AssertionError(f"argparse parsed {args}")

        monkeypatch.setattr(top, "parse_args", refuse)
        for subparser in subparsers.values():
            monkeypatch.setattr(subparser, "parse_known_args", refuse)
        assert results() == recorded
        assert [r[0] for r in recorded] == [0, 0, 0, 0]
        out = tmp_path / "out.txt"
        for case in SAMPLED_PATHS:
            assert main(case["argv"] + ["--out", str(out)]) == 0
            got, want = json.loads(out.read_text().splitlines()[1]), case["record"]
            for key in ("protocol", "branch_id", "measurement_record", "ledger", "succeeded"):
                assert got[key] == want[key], key
            for key in ("probability", "fidelity"):
                assert abs(got[key] - want[key]) <= 1e-12, key


#: A well-formed request of each subcommand with long store options, which
#: gives every one of them, run in a directory that holds ``ops.txt``.
_DASHED_BASES = {
    "run": ["--protocol", "one11", "--u", "sz", "--psi", "+", "--promise", "commuting", "--mode", "sampled",
            "--seed", "3", "--format", "structured", "--out", "out.txt"],
    "classify": ["--u", "sx", "--axis", "0,0,1"],
    "axis": ["--set", "ops.txt"],
    "ramsey": ["--steps", "2", "--out", "out.txt"],
    "verify": ["--seed", "1"],
}
_DASHED = [(name, option) for name in _DASHED_BASES for option in sorted(cli._build_parsers()[2][name][0])]


def _argparse_reads_dashes_as_a_list() -> bool:
    """Whether this Python's argparse reads ``--v=--`` as ``v=[]`` (3.10-3.12) rather than ``v="--"``."""
    probe = argparse.ArgumentParser()
    probe.add_argument("--v")
    return probe.parse_args(["--v=--"]).v == []


@pytest.mark.parametrize("name, option", _DASHED, ids=[f"{name} {option}" for name, option in _DASHED])
def test_an_option_given_dashes_after_equals_is_refused_or_read_as_dashes(name, option, tmp_path, monkeypatch, capsys):
    """Each long store option given as ``--opt=--``, the others as in a
    well-formed request; ``main`` returns, so no exception escapes. Where
    argparse reads the value as an empty list, the subparser refuses it as
    a missing value: exit 1, nothing on stdout, and its usage and error line
    on stderr. Where it reads "--", an option with a ``type`` or ``choices``
    refuses it, and any other gives what the command gives on "--"."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ops.txt").write_text("rz:0.3\n")
    base = _DASHED_BASES[name]
    argv = [name, *(t for pair in zip(base[::2], base[1::2]) if pair[0] != option for t in pair), f"{option}=--"]
    code = main(argv)
    out, err = capsys.readouterr()
    action = cli._parsers()[2][name][0][option]
    if _argparse_reads_dashes_as_a_list():
        assert (code, out) == (1, "")
        assert err.startswith(f"usage: remotegate {name} ")
        assert err.endswith(f"error: argument {option}: expected one argument\n")
    elif action.type is not None or action.choices is not None:
        assert code == 1 and f"error: argument {option}: invalid" in err
    else:
        args = cli._parse_args([name, *base])
        setattr(args, action.dest, "--")
        monkeypatch.setattr(cli, "_parse_args", lambda argv: args)
        assert (code, out, err) == (main(argv), *capsys.readouterr())


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

    def test_an_axis_request_tests_residuals_in_from_axis_angles_and_as_pairs(self, tmp_path, capsys, monkeypatch):
        """``from_axis_angles`` checks the rows it builds, and the search
        admits the whole stack through ``as_pairs`` as every other caller's;
        an empty set is still refused."""
        callers = []
        residuals = operators.unimodular_residuals

        def spy(pairs):
            callers.append(sys._getframe(1).f_code.co_name)
            return residuals(pairs)

        monkeypatch.setattr(operators, "unimodular_residuals", spy)
        path = tmp_path / "ops.txt"
        path.write_text("rot:0,0,1,0.7\nrz:1.3\nmat:0.6,0.8,0,0\nsx\nrot:1,1,0,3.141592653589793\n")
        assert main(["axis", "--set", str(path)]) == 0
        assert capsys.readouterr().out == "0.0,0.0,1.0\n"
        assert callers == ["from_axis_angles", "_pair_rows"]
        callers.clear()
        path.write_text("# no operators\n\n")
        assert main(["axis", "--set", str(path)]) == 1
        assert capsys.readouterr().err == "error: empty operator set\n"
        assert callers == ["_pair_rows"]

    def test_an_axis_request_refuses_a_stack_row_off_the_unit_sphere(self, tmp_path, capsys, monkeypatch):
        """A row that ``parse_operators`` hands over off |a|^2 + |b|^2 = 1
        is refused by the search's own admission, in ``as_pairs``' words,
        and nothing is printed on stdout."""
        build = cli.from_axis_angles
        monkeypatch.setattr(cli, "from_axis_angles", lambda axes, thetas: build(axes, thetas) * (1 + 1e-6))
        specs = ["rot:0,0,1,0.7", "rz:1.3"]
        path = tmp_path / "ops.txt"
        path.write_text("\n".join(specs) + "\n")
        with pytest.raises(ValueError) as refused:
            operators.as_pairs(cli.parse_operators(specs))
        assert str(refused.value).startswith("row 0: not unimodular: ")
        assert main(["axis", "--set", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {refused.value}\n")


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
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_a_run_prints_the_library_calls_records(self, protocol, capsys):
        """``run --format structured`` prints, byte for byte, the records of
        the library call on the same numbers: U as parsed and psi as the
        spec's amplitudes, on seeded ``amp:`` specs and the four named
        states. ``parse_state``'s ``StateVector`` is admitted as it is, not
        normalized a second time, which need not give back its bits."""
        rng = np.random.default_rng(50)
        states = dict(cli._NAMED_STATES)
        for re0, im0, re1, im1 in rng.normal(size=(40, 4)).tolist():
            states[f"amp:{re0!r},{im0!r},{re1!r},{im1!r}"] = (complex(re0, im0), complex(re1, im1))
        for n, (spec, amplitudes) in enumerate(states.items()):
            phase, u, promise = rng.uniform(0, 2 * np.pi), random_unimodular(rng), None
            if protocol in ("restricted221", "one11"):  # in the set: a z turn or a half-turn about an axis in xy
                u, kind = (rz(phase), "commuting") if n % 2 else (operators.Unimodular(0, np.exp(1j * phase)), "anticommuting")
                promise = kind if protocol == "one11" else None
            argv = ["run", "--protocol", protocol, "--u", render_operator(u), "--psi", spec, "--format", "structured"]
            assert main(argv + (["--promise", promise] if promise else [])) == 0
            outcomes = PROTOCOLS[protocol](ProtocolConfig(u=u, psi=np.array(amplitudes), promise=promise))
            want = [json.dumps(outcome_record(protocol, o), sort_keys=True) for o in outcomes]
            assert capsys.readouterr().out.splitlines() == ["schema: 1", *want], spec

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

    def test_verify_seed_defaults_to_run_alls(self):
        seed = cli._build_parsers()[1]["verify"].parse_args([]).seed
        assert seed == inspect.signature(verify.run_all).parameters["seed"].default

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
