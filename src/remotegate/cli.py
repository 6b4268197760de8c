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
or ``amp:<re0>,<im0>,<re1>,<im1>`` (normalized on entry). Angles are radians.

``main`` builds its argument parser on its first call and reuses it for every
later call in the process: argparse keeps no per-call state on a parser, and
writes usage, help and errors to the ``sys.stdout``/``sys.stderr`` current at
call time. ``build_parser`` returns a fresh parser on each call. The top-level
pass only picks the subcommand, so ``main`` parses a known subcommand's
arguments with that subcommand's parser, built with the top-level one, and
takes the top-level parse only for no arguments, an unknown command or
arguments the subcommand leaves over; every namespace, usage text, help,
error line and exit code is the top-level parse's.

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
from .operators import Unimodular, classify_operator, find_common_axis, from_axis_angle, rz
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
    "+": (1 / _SQRT2, 1 / _SQRT2),
    "-": (1 / _SQRT2, -1 / _SQRT2),
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
        nx, ny, nz, theta = _split_floats(spec, spec[4:], 4, 4)
        axis = unit_vector([nx, ny, nz], ZERO_AXIS_NORM)
        if axis is None:
            raise ValueError(f"bad spec {spec!r}: zero rotation axis")
        return from_axis_angle(axis, theta)
    if spec.startswith("mat:"):
        are, aim, bre, bim = _split_floats(spec, spec[4:], 4, 4)
        try:
            return Unimodular(complex(are, aim), complex(bre, bim))
        except ValueError as exc:
            raise ValueError(f"bad spec {spec!r}: {exc}") from None
    raise ValueError(
        f"bad operator spec {spec!r}: expected id|sx|sy|sz|h, rz:..., rot:... or mat:..."
    )


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


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """A fresh top-level parser, and the parser of each of its subcommands by name."""
    parser = argparse.ArgumentParser(
        prog="remotegate",
        description="Simulate remote implementation of single-qubit rotations "
        "over shared entanglement and classical messages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a protocol on an operator and a state")
    run.add_argument("--protocol", required=True, choices=sorted(PROTOCOLS))
    run.add_argument("--u", required=True, help="operator spec")
    run.add_argument("--psi", required=True, help="Bob's input state spec")
    run.add_argument("--promise", choices=["commuting", "anticommuting"])
    run.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    run.add_argument("--seed", type=int, help="required for sampled mode")
    run.add_argument("--format", choices=["human", "structured"], default="human")
    run.add_argument("--out", help="write output to this path instead of stdout")

    classify = sub.add_parser("classify", help="commutation class of an operator")
    classify.add_argument("--u", required=True, help="operator spec")
    classify.add_argument("--axis", default="0,0,1", help="axis as x,y,z")

    axis = sub.add_parser("axis", help="common axis for a file of operator specs")
    axis.add_argument("--set", required=True, dest="set_file", help="spec file, one per line")

    demo = sub.add_parser("demo", help="resource lower-bound demonstrations")
    demo.add_argument("name", choices=["cp-entanglement", "cp-capacity", "cnot-reverse"])

    ramsey = sub.add_parser("ramsey", help="fringe sweep through the 1-1-1 protocol")
    ramsey.add_argument("--steps", type=int, default=64)
    ramsey.add_argument("--out", help="write CSV to this path instead of stdout")

    verify = sub.add_parser("verify", help="run the full invariant suite")
    verify.add_argument("--seed", type=int, default=20020923)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parsers ``main`` uses, built together on first use."""
    return _build_parsers()


def _parser() -> argparse.ArgumentParser:
    """The top-level parser ``main`` uses."""
    return _parsers()[0]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, with a known subcommand's arguments
    parsed by that subcommand's parser alone. The top-level pass only picks
    the subcommand, so its parse is taken only where it can differ: no
    arguments, an unknown command, or arguments the subcommand leaves over,
    which only the top-level parser reports. A help flag after a known
    command reaches the same subparser either way."""
    subparser = _parsers()[1].get(argv[0]) if argv else None
    if subparser is not None:
        args, extra = subparser.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return _parser().parse_args(argv)


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
    operators = [parse_operator(s) for s in specs if s and not s.startswith("#")]
    found = find_common_axis(operators)
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


_COMMANDS = {
    "run": _cmd_run,
    "classify": _cmd_classify,
    "axis": _cmd_axis,
    "demo": _cmd_demo,
    "ramsey": _cmd_ramsey,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(_join_axis_values(argv))
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
