"""Command-line front end.

Subcommands::

    run       --protocol bqst|universal221|restricted221|one11
              --u <spec> --psi <spec> [--promise commuting|anticommuting]
              [--mode exact|sampled --seed N] [--format human|structured]
              [--out PATH]
    classify  --u <spec> [--axis x,y,z]   (or --axis=x,y,z; both forms take
                                           a negative first component)
    axis      --set FILE          (one operator spec per line, # comments ok)
    demo      cp-entanglement | cp-capacity | cnot-reverse
    ramsey    --steps N [--out PATH]
    verify    [--seed N]          (one line per check, ending in its seconds)

Operator specs: ``id``, ``sx``, ``sy``, ``sz``, ``h`` (the unimodular forms,
i.e. i times the Pauli or Hadamard matrix so the determinant stays 1),
``rz:<phi>`` for diag(e^{i phi}, e^{-i phi}), ``rot:<nx>,<ny>,<nz>,<theta>``
for an axis-angle rotation (axis normalized on entry), and raw
``mat:<a_re>,<a_im>,<b_re>,<b_im>``. State specs: ``0``, ``1``, ``+``, ``-``
or ``amp:<re0>,<im0>,<re1>,<im1>`` (normalized on entry, a named state from
its integer amplitudes, as the library's). Angles are radians.

The subcommands, their help, handlers and arguments are declared once, in
``_SUBCOMMANDS``, each argument as ``add_argument``'s flag and keywords.
``main`` builds its argument parsers from that table on its first call and
reuses them for every later call in the process: argparse keeps no
per-call state on a parser, and writes usage, help and errors to the
``sys.stdout``/``sys.stderr`` current at call time. The arguments of a
subcommand with no positional argument are first read straight from the
actions ``add_argument`` returned, through their public attributes: each
long option given once, exactly, its value the next token or after ``=``,
converted by its ``type``, checked against its ``choices``, every absent
option at its default and every required one present. That reader gives
the namespace argparse would, and declines every other form: help flags,
``--``, abbreviations, repeated options, unknown tokens, a missing value, a
"-"-led one other than "-", and a ``type`` or ``choices`` failure. It reads
only long options that store one value, which every such subcommand
declares (a tier-1 test holds the table to that). The reader is there for
speed: argparse's generic loop was about a quarter of a ``run`` request's
time. It words nothing, so argparse stays the one producer of usage text,
help and error lines: a declined request goes to the top-level parse,
which hands its arguments to the same subcommand parser. Every namespace,
usage text, help, error line and exit code is the top-level parse's.

Exit codes: 0 success, 1 parse or precondition error, 2 internal invariant
violation. Structured output opens with a ``schema: 1`` line followed by one
JSON record per branch and is byte-identical across runs for identical
arguments and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import verify as verify_mod
from .gates import unit_vector
from .operators import ANTICOMMUTING, COMMUTING, Unimodular, classify_operator, find_common_axis, from_axis_angle, from_axis_angles, rz
from .protocols import (
    PROTOCOLS,
    ProtocolConfig,
    demo_cnot_reverse,
    demo_cp_capacity,
    demo_cp_entanglement,
    outcome_record,
    ramsey_curve,
    success_probability,
)
from .statevector import InvariantViolation, QubitId, StateVector, qubit_state
from .tolerances import ZERO_AXIS_NORM

_SQRT2 = np.sqrt(2.0)

_NAMED_OPERATORS = {
    "id": (1, 0),
    "sx": (0, 1j),
    "sy": (0, 1),
    "sz": (1j, 0),
    "h": (1j / _SQRT2, 1j / _SQRT2),
}

_NAMED_STATES = {
    "0": (1, 0),
    "1": (0, 1),
    "+": (1, 1),
    "-": (1, -1),
}


def _split_floats(spec: str, body: str, offset: int, count: int) -> list[float]:
    parts = body.split(",")
    if len(parts) != count:
        raise ValueError(
            f"bad spec {spec!r}: expected {count} comma-separated numbers, got {len(parts)}"
        )
    values = []
    col = offset
    for part in parts:
        try:
            value = float(part)
        except ValueError:
            raise ValueError(
                f"bad spec {spec!r}: not a number at column {col + 1}: {part!r}"
            ) from None
        if not math.isfinite(value):
            raise ValueError(
                f"bad spec {spec!r}: not a finite number at column {col + 1}: {part!r}"
            )
        values.append(value)
        col += len(part) + 1
    return values


def parse_operator(spec: str) -> Unimodular:
    """Parse an operator spec string into a Unimodular."""
    spec = spec.strip()
    if spec in _NAMED_OPERATORS:
        return Unimodular(*_NAMED_OPERATORS[spec])
    if spec.startswith("rz:"):
        (phi,) = _split_floats(spec, spec[3:], 3, 1)
        return rz(phi)
    if spec.startswith("rot:"):
        return from_axis_angle(*_axis_angle(spec))
    if spec.startswith("mat:"):
        are, aim, bre, bim = _split_floats(spec, spec[4:], 4, 4)
        try:
            return Unimodular(complex(are, aim), complex(bre, bim))
        except ValueError as exc:
            raise ValueError(f"bad spec {spec!r}: {exc}") from None
    raise ValueError(
        f"bad operator spec {spec!r}: expected id|sx|sy|sz|h, rz:..., rot:... or mat:..."
    )


def _axis_angle(spec: str) -> tuple[np.ndarray, float]:
    """The unit axis and the angle of a stripped ``rot:`` spec."""
    nx, ny, nz, theta = _split_floats(spec, spec[4:], 4, 4)
    axis = unit_vector([nx, ny, nz], ZERO_AXIS_NORM)
    if axis is None:
        raise ValueError(f"bad spec {spec!r}: zero rotation axis")
    return axis, theta


def parse_operators(specs) -> np.ndarray:
    """``parse_operator`` of each spec as one (N, 2) stack of (a, b) pairs,
    bit for bit: the ``rot:`` specs through one ``from_axis_angles``, every
    other spec through ``parse_operator`` itself. Specs are read in order,
    so a refusal is the first bad spec's, in ``parse_operator``'s words."""
    pairs = np.empty((len(specs), 2), dtype=complex)
    rows, axes, thetas = [], [], []
    for n, spec in enumerate(specs):
        spec = spec.strip()
        if spec.startswith("rot:"):
            axis, theta = _axis_angle(spec)
            rows.append(n)
            axes.append(axis)
            thetas.append(theta)
        else:
            u = parse_operator(spec)
            pairs[n] = u.a, u.b
    if rows:
        pairs[rows] = from_axis_angles(axes, thetas)
    return pairs


def render_operator(u: Unimodular) -> str:
    """Spec string that parses back to ``u`` exactly."""
    return f"mat:{u.a.real!r},{u.a.imag!r},{u.b.real!r},{u.b.imag!r}"


def parse_state(spec: str) -> StateVector:
    """Parse a single-qubit state spec (normalized on entry)."""
    spec = spec.strip()
    if spec in _NAMED_STATES:
        alpha, beta = _NAMED_STATES[spec]
        return qubit_state(alpha, beta, QubitId("bob", 0))
    if spec.startswith("amp:"):
        re0, im0, re1, im1 = _split_floats(spec, spec[4:], 4, 4)
        try:
            return qubit_state(complex(re0, im0), complex(re1, im1), QubitId("bob", 0))
        except ValueError as exc:
            raise ValueError(f"bad spec {spec!r}: {exc}") from None
    raise ValueError(f"bad state spec {spec!r}: expected 0|1|+|- or amp:...")


def _parse_axis(text: str) -> np.ndarray:
    axis = unit_vector(_split_floats(text, text, 0, 3), ZERO_AXIS_NORM)
    if axis is None:
        raise ValueError(f"bad axis {text!r}: zero vector")
    return axis


def _build_parsers() -> tuple[argparse.ArgumentParser, dict, dict[str, tuple[dict, list]]]:
    """A fresh top-level parser built from ``_SUBCOMMANDS``, the parser of
    each of its subcommands by name, and, for each subcommand with no
    positional argument, the actions its ``add_argument`` calls returned,
    by long option string and in order: what ``_read_plain`` reads."""
    parser = argparse.ArgumentParser(
        prog="remotegate",
        description="Simulate remote implementation of single-qubit rotations "
        "over shared entanglement and classical messages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    readers = {}
    for name, (help_text, _, arguments) in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        stores = [subparser.add_argument(flag, **keywords) for flag, keywords in arguments]
        if all(action.option_strings for action in stores):
            readers[name] = {s: a for a in stores for s in a.option_strings if s.startswith("--")}, stores
    return parser, sub.choices, readers


_parsers = functools.cache(_build_parsers)  # the parsers ``main`` uses, built on first use


def _read_plain(options: dict, stores: list, tokens: list[str]) -> argparse.Namespace | None:
    """A subcommand parser's ``parse_known_args(tokens)`` namespace, read
    from the actions ``_build_parsers`` kept for it, when ``tokens`` are its
    own long options, each given once, exactly, with its value as the next
    token or after "=", every value passing the option's ``type`` and
    ``choices``, and every required option given; None for any other form,
    which argparse reads. A next token that starts with "-" is
    left to argparse, which may read it as an option, except "-" itself,
    which it always reads as a value (the "-" state spec). A "--" value is
    left to it too: Python 3.10-3.12 read ``--u=--`` as ``u=[]``, 3.13 as
    ``u="--"``."""
    given = {}
    tokens = iter(tokens)
    for token in tokens:
        option, eq, value = token.partition("=")
        action = options.get(option)
        if action is None or action.dest in given:
            return None
        if not eq:
            value = next(tokens, None)
            if value is None or (value.startswith("-") and value != "-"):
                return None
        if value == "--":
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):  # what argparse words as an error
                return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    values = {}
    for action in stores:
        if action.required and action.dest not in given:
            return None
        values[action.dest] = given.get(action.dest, action.default)
    return argparse.Namespace(**values)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_parsers()[0].parse_args(argv)``: a known subcommand's arguments read
    by ``_read_plain``, and every request it declines parsed once by the
    top-level parser, which hands ``argv[1:]`` to the same subcommand parser.
    A one-value store that argparse reads as a list (``--u=--`` on Python
    3.10-3.12) is then refused by that subcommand parser's ``error``."""
    top, subparsers, readers = _parsers()
    if argv and argv[0] in readers:
        args = _read_plain(*readers[argv[0]], argv[1:])
        if args is not None:
            args.command = argv[0]
            return args
    args = top.parse_args(argv)
    for action in readers[args.command][1] if args.command in readers else ():
        if isinstance(getattr(args, action.dest), list):
            subparsers[args.command].error(str(argparse.ArgumentError(action, "expected one argument")))
    return args


#: a value argparse would read as an option flag: "-" then a digit, "." or
#: the start of an infinity or a NaN, as ``float`` spells them
_NEGATIVE_VALUE = re.compile(r"-(?:[0-9.]|inf|nan)", re.IGNORECASE)


def _join_axis_values(argv) -> list[str]:
    """Rewrite ``--axis -0.1,0,1`` as ``--axis=-0.1,0,1``, which argparse
    otherwise rejects with "expected one argument"."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] == "--axis" and _NEGATIVE_VALUE.match(token):
            joined[-1] = f"--axis={token}"
        else:
            joined.append(token)
    return joined


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    cfg = ProtocolConfig(
        u=parse_operator(args.u),
        psi=parse_state(args.psi),
        promise=args.promise,
        mode=args.mode,
        seed=args.seed,
    )
    outcomes = PROTOCOLS[args.protocol](cfg)
    if args.format == "structured":
        lines = ["schema: 1"]
        lines += [
            json.dumps(outcome_record(args.protocol, o), sort_keys=True)
            for o in outcomes
        ]
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    lines = [f"protocol: {args.protocol}   mode: {args.mode}"]
    for o in outcomes:
        record = " ".join(f"{p}:{b}={v}" for p, b, v in o.measurement_record)
        flag = "ok " if o.succeeded else "FAIL"
        lines.append(
            f"  [{flag}] p={o.probability:.6f} fidelity={o.target_fidelity:.12f} {record}"
        )
    ledger = outcomes[0].ledger
    if args.mode == "sampled":
        summary = f"sampled branch succeeded: {outcomes[0].succeeded}"
    else:
        summary = f"success probability: {success_probability(outcomes):.12f}"
    lines.append(
        f"{summary}   ledger: {ledger.ebits_consumed} e-bits, "
        f"{ledger.cbits_a_to_b} c-bits A->B, {ledger.cbits_b_to_a} c-bits B->A"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_classify(args) -> int:
    tag = classify_operator(parse_operator(args.u), _parse_axis(args.axis))
    print(str(tag))
    return 0


def _cmd_axis(args) -> int:
    with open(args.set_file) as fh:
        specs = [line.strip() for line in fh]
    found = find_common_axis(parse_operators([s for s in specs if s and not s.startswith("#")]))
    if found is None:
        print("none")
    else:
        print(",".join(repr(float(c)) for c in found))
    return 0


def _cmd_demo(args) -> int:
    if args.name == "cp-entanglement":
        _, entropy = demo_cp_entanglement()
        print(f"entanglement entropy across the Alice|Bob cut: {entropy:.12f} bits")
    elif args.name == "cp-capacity":
        for message in ("00", "01", "10", "11"):
            print(f"message {message} -> decoded {demo_cp_capacity(message)}")
    else:
        for bit in (0, 1):
            print(f"bob sends {bit} -> alice reads {demo_cnot_reverse(bit)}")
    return 0


def _cmd_ramsey(args) -> int:
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    thetas = [k * np.pi / args.steps for k in range(args.steps)]
    lines = ["theta,p_plus"]
    lines += [f"{theta!r},{p!r}" for theta, p in ramsey_curve(thetas)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    results = verify_mod.run_all(seed=args.seed)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail} ({res.seconds:.3f} s)")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


#: The CLI, declared once: each subcommand's help, handler and arguments,
#: each argument as ``add_argument``'s flag and keywords.
_SUBCOMMANDS = {
    "run": ("run a protocol on an operator and a state", _cmd_run, [
        ("--protocol", {"required": True, "choices": sorted(PROTOCOLS)}),
        ("--u", {"required": True, "help": "operator spec"}),
        ("--psi", {"required": True, "help": "Bob's input state spec"}),
        ("--promise", {"choices": [COMMUTING, ANTICOMMUTING]}),
        ("--mode", {"choices": ["exact", "sampled"], "default": "exact"}),
        ("--seed", {"type": int, "help": "required for sampled mode"}),
        ("--format", {"choices": ["human", "structured"], "default": "human"}),
        ("--out", {"help": "write output to this path instead of stdout"}),
    ]),
    "classify": ("commutation class of an operator", _cmd_classify, [
        ("--u", {"required": True, "help": "operator spec"}),
        ("--axis", {"default": "0,0,1", "help": "axis as x,y,z"}),
    ]),
    "axis": ("common axis for a file of operator specs", _cmd_axis, [
        ("--set", {"required": True, "dest": "set_file", "help": "spec file, one per line"}),
    ]),
    "demo": ("resource lower-bound demonstrations", _cmd_demo, [
        ("name", {"choices": ["cp-entanglement", "cp-capacity", "cnot-reverse"]}),
    ]),
    "ramsey": ("fringe sweep through the 1-1-1 protocol", _cmd_ramsey, [
        ("--steps", {"type": int, "default": 64}),
        ("--out", {"help": "write CSV to this path instead of stdout"}),
    ]),
    "verify": ("run the full invariant suite", _cmd_verify, [
        ("--seed", {"type": int, "default": verify_mod.DEFAULT_SEED}),
    ]),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(_join_axis_values(argv))
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return _SUBCOMMANDS[args.command][1](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
