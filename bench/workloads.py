"""Workload generators, operations and output checks.

Each workload is built by ``build(name, seed, scratch)``: a pure function of
the seed (plus a scratch directory for the files the CLI reads and writes)
that returns a :class:`Workload`. Its ``ops`` list is generated before any
timing starts; running an op calls the package, and checking it compares
the output with what the generator knows the answer must be.

The tolerances are the package's own (README "Conventions"): probabilities
sum to 1 within 1e-10, fidelities reach 1 within 1e-9, a recovered axis is
right within 1e-6.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from remotegate import cli, operators, protocols, verify

PROB_TOL = 1e-10
FID_TOL = 1e-9
AXIS_TOL = 1e-6

EXPECTED_LEDGERS = {
    "bqst": (2, 2, 2),
    "universal221": (2, 2, 1),
    "restricted221": (2, 2, 1),
    "one11": (1, 1, 1),
}
#: Probability of any single sampled path: every measurement in these
#: circuits has uniform outcomes (two Bell measurements for bqst, one
#: spread bit + one Bell measurement + one bit for the 2-2-1 circuit,
#: spread bit + one bit for 1-1-1).
PATH_PROBABILITY = {"bqst": 1 / 16, "universal221": 1 / 16, "restricted221": 1 / 16, "one11": 1 / 4}

#: Protocol name -> function name in ``remotegate.protocols``, looked up at
#: call time so that a traced run sees the wrapped function.
RUNNERS = {
    "bqst": "run_bqst",
    "universal221": "run_universal_221",
    "restricted221": "run_restricted_221",
    "one11": "run_111",
}

#: exact_sweep pool: the universal protocol, the paper's subject, counts
#: twice. That also puts the median latency inside the bulk of the
#: distribution, not on the edge between two protocols' latency clusters.
EXACT_MIX = {"bqst": 50, "universal221": 100, "restricted221": 50, "one11": 50}
VERIFY_CHECKS = 23

SZ = np.diag([1.0, -1.0]).astype(complex)


@dataclass
class Op:
    """One generated request: ``run()`` calls the package and returns its
    output, ``check(output)`` returns None or a failure message."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    #: bytes of output the op produced, for the traced run
    bytes_out: Callable[[object], int] = lambda out: 0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: index of the first op of each kind; run once, untimed, as warm-up
    warmup: list[int]


# ---------------------------------------------------------------------------
# input generation (numpy only; the package receives only the results)


def _haar_pair(rng) -> tuple[complex, complex]:
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return complex(v[0], v[1]), complex(v[2], v[3])


def _matrix(a: complex, b: complex) -> np.ndarray:
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def _in_set(rng) -> tuple[complex, complex, str]:
    """rz(phi) (commutes with sz) or a half-turn (0, e^{i chi}) (anticommutes)."""
    angle = rng.uniform(0.0, 2 * np.pi)
    if rng.random() < 0.5:
        return complex(np.cos(angle), np.sin(angle)), 0j, operators.COMMUTING
    return 0j, complex(np.cos(angle), np.sin(angle)), operators.ANTICOMMUTING


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _generic_angle(rng) -> float:
    """A rotation angle well away from 0, pi and 2 pi."""
    return float(rng.choice([rng.uniform(0.3, 2.8), rng.uniform(3.5, 5.9)]))


def _perpendicular(rng, axis) -> np.ndarray:
    raw = rng.normal(size=3)
    perp = raw - np.dot(raw, axis) * axis
    return perp / np.linalg.norm(perp)


def _skewed_axis(rng, axis) -> np.ndarray:
    """A unit axis neither parallel nor perpendicular to ``axis``."""
    while True:
        cand = _unit(rng)
        if 0.05 < abs(float(np.dot(cand, axis))) < 0.95:
            return cand


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _rot_spec(axis, theta) -> str:
    return f"rot:{_fmt(axis)},{float(theta)!r}"


def _amp_spec(psi) -> str:
    return f"amp:{_fmt([psi[0].real, psi[0].imag, psi[1].real, psi[1].imag])}"


def _mat_spec(a: complex, b: complex) -> str:
    return f"mat:{_fmt([a.real, a.imag, b.real, b.imag])}"


# ---------------------------------------------------------------------------
# exact_sweep


def check_exact(proto, u_mat, psi, outcomes, ledgers=EXPECTED_LEDGERS) -> str | None:
    if not outcomes:
        return "no branches"
    total = sum(o.probability for o in outcomes)
    if not abs(total - 1.0) <= PROB_TOL:
        return f"probabilities sum to {total!r}"
    for o in outcomes:
        if o.ledger.as_tuple() != ledgers[proto]:
            return f"ledger {o.ledger.as_tuple()} != {ledgers[proto]}"
    target = u_mat @ psi
    if proto == "universal221":
        p_ok = sum(o.probability for o in outcomes if o.succeeded)
        if not abs(p_ok - 0.5) <= FID_TOL:
            return f"success probability {p_ok!r}"
        target_fail = u_mat @ SZ @ psi
        for o in outcomes:
            ref = target if o.succeeded else target_fail
            fid = abs(np.vdot(ref, o.bob_final.amplitudes)) ** 2
            if not fid >= 1.0 - FID_TOL:
                return f"branch {o.branch_id} fidelity {fid!r} (succeeded={o.succeeded})"
        return None
    for o in outcomes:
        fid = abs(np.vdot(target, o.bob_final.amplitudes)) ** 2
        if not fid >= 1.0 - FID_TOL:
            return f"branch {o.branch_id} fidelity {fid!r}"
    return None


def _exact_op(proto, a, b, psi, promise, ledgers) -> Op:
    u = operators.Unimodular(a, b)
    u_mat = _matrix(a, b)
    runner = RUNNERS[proto]

    def run():
        return getattr(protocols, runner)(protocols.ProtocolConfig(u=u, psi=psi, promise=promise))

    return Op(proto, run, lambda out: check_exact(proto, u_mat, psi, out, ledgers))


def exact_sweep(seed: int, scratch: str, ledgers=EXPECTED_LEDGERS) -> Workload:
    rng = np.random.default_rng([seed, 1])
    kinds = np.repeat(list(EXACT_MIX), list(EXACT_MIX.values()))
    rng.shuffle(kinds)
    ops = []
    for proto in kinds:
        proto = str(proto)
        psi = np.array(_haar_pair(rng))
        if proto in ("bqst", "universal221"):
            a, b = _haar_pair(rng)
            promise = None
        else:
            a, b, cls = _in_set(rng)
            promise = cls if proto == "one11" else None
        ops.append(_exact_op(proto, a, b, psi, promise, ledgers))
    return Workload("exact_sweep", ops, _first_of_each(ops))


# ---------------------------------------------------------------------------
# cli_requests


def _call_cli(argv, out_path=None):
    """Run one in-process CLI request; returns (exit code, text output)."""
    if out_path is not None and os.path.exists(out_path):
        os.remove(out_path)  # so a request that writes nothing cannot pass
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if out_path is None:
        text = sink.getvalue()
    else:
        with open(out_path) as fh:
            text = fh.read()
    return code, text


def _text_bytes(result) -> int:
    return len(result[1].encode())


def check_run_record(proto, psi, ledgers, result) -> str | None:
    code, text = result
    if code != 0:
        return f"exit code {code}"
    lines = text.splitlines()
    if not lines or lines[0] != "schema: 1" or len(lines) != 2:
        return f"unexpected structured output {text[:80]!r}"
    rec = json.loads(lines[1])
    ledger = (rec["ledger"]["ebits"], rec["ledger"]["cbits_ab"], rec["ledger"]["cbits_ba"])
    if rec["protocol"] != proto or ledger != ledgers[proto]:
        return f"{rec['protocol']} ledger {ledger} != {ledgers[proto]}"
    if not abs(rec["probability"] - PATH_PROBABILITY[proto]) <= PROB_TOL:
        return f"path probability {rec['probability']!r}"
    fid = rec["fidelity"]
    if proto == "universal221" and rec["measurement_record"][-1][2] == "1":
        # failed branch holds U sz|psi>, whose fidelity to U|psi> is <psi|sz|psi>^2
        expected = float((abs(psi[0]) ** 2 - abs(psi[1]) ** 2) ** 2)
        if not abs(fid - expected) <= FID_TOL:
            return f"failure-branch fidelity {fid!r}, expected {expected!r}"
    elif not fid >= 1.0 - FID_TOL:
        return f"branch fidelity {fid!r}"
    if rec["succeeded"] != (fid >= 1.0 - FID_TOL):
        return f"succeeded={rec['succeeded']} with fidelity {fid!r}"
    return None


def check_classify(kind, axis, result) -> str | None:
    code, text = result
    if code != 0:
        return f"exit code {code}"
    text = text.strip()
    if kind == operators.GENERAL:
        return None if text == kind else f"classified {text!r}, expected {kind}"
    head, _, rest = text.partition("(")
    if head != kind:
        return f"classified {text!r}, expected {kind}"
    got = np.array([float(c) for c in rest.rstrip(")").split(",")])
    if not np.abs(got - axis).max() <= AXIS_TOL:
        return f"axis {text!r}, expected {_fmt(axis)}"
    return None


def check_axis(axis, result) -> str | None:
    code, text = result
    if code != 0:
        return f"exit code {code}"
    text = text.strip()
    if axis is None:
        return None if text == "none" else f"found {text!r} for a set with no common axis"
    if text == "none":
        return "no axis found for an in-set family"
    got = np.array([float(c) for c in text.split(",")])
    err = min(np.abs(got - axis).max(), np.abs(got + axis).max())
    return None if err <= AXIS_TOL else f"axis {text!r}, expected +/-{_fmt(axis)}"


def _axis_set(rng, common: bool) -> tuple[list[str], np.ndarray | None]:
    """3 to 6 operator specs. With a common axis n: one generic rotation about
    n (which pins the axis to +/-n), then rotations about n and half-turns
    about axes perpendicular to n. Without: two generic rotations about
    skewed axes, which no single axis fits."""
    n = _unit(rng)
    size = int(rng.integers(3, 7))
    if not common:
        specs = [_rot_spec(n, _generic_angle(rng)), _rot_spec(_skewed_axis(rng, n), _generic_angle(rng))]
        specs += [_rot_spec(_unit(rng), _generic_angle(rng)) for _ in range(size - 2)]
        return specs, None
    specs = [_rot_spec(n, _generic_angle(rng))]
    for _ in range(size - 1):
        if rng.random() < 0.5:
            specs.append(_rot_spec(n, _generic_angle(rng)))
        else:
            specs.append(_rot_spec(_perpendicular(rng, n), np.pi))
    order = rng.permutation(len(specs))
    return [specs[i] for i in order], n


def cli_requests(seed: int, scratch: str, ledgers=EXPECTED_LEDGERS) -> Workload:
    rng = np.random.default_rng([seed, 2])
    # Pool of 240: 40 sampled runs per protocol, 40 classify, 40 axis. Runs
    # are the slowest kind; with two thirds of the pool the median latency
    # lies inside their cluster, not on the edge of the faster kinds'.
    kinds = ["run"] * 160 + ["classify"] * 40 + ["axis"] * 40
    rng.shuffle(kinds)
    protos = np.repeat(list(RUNNERS), 40)
    rng.shuffle(protos)
    out_path = os.path.join(scratch, "run.out")
    ops = []
    runs = classes = sets = 0
    for kind in kinds:
        if kind == "run":
            proto = str(protos[runs])
            runs += 1
            psi = np.array(_haar_pair(rng))
            argv = ["run", "--protocol", proto, "--psi", _amp_spec(psi)]
            if proto in ("bqst", "universal221"):
                a, b = _haar_pair(rng)
                argv += ["--u", _mat_spec(a, b)]
            else:
                a, b, cls = _in_set(rng)
                argv += ["--u", _mat_spec(a, b)]
                if proto == "one11":
                    argv += ["--promise", cls]
            argv += ["--mode", "sampled", "--seed", str(int(rng.integers(2**31))),
                     "--format", "structured", "--out", out_path]
            ops.append(Op(
                f"run:{proto}",
                lambda argv=argv: _call_cli(argv, out_path),
                lambda res, proto=proto, psi=psi: check_run_record(proto, psi, ledgers, res),
                _text_bytes,
            ))
        elif kind == "classify":
            axis = _unit(rng)
            pick = classes % 3
            classes += 1
            if pick == 0:
                spec, expected = _rot_spec(axis, _generic_angle(rng)), operators.COMMUTING
            elif pick == 1:
                spec, expected = _rot_spec(_perpendicular(rng, axis), np.pi), operators.ANTICOMMUTING
            else:
                spec, expected = _rot_spec(_skewed_axis(rng, axis), _generic_angle(rng)), operators.GENERAL
            # "--axis=" form: argparse reads a leading "-0.1,..." as an option
            argv = ["classify", "--u", spec, f"--axis={_fmt(axis)}"]
            ops.append(Op(
                "classify",
                lambda argv=argv: _call_cli(argv),
                lambda res, k=expected, ax=axis: check_classify(k, ax, res),
                _text_bytes,
            ))
        else:
            specs, axis = _axis_set(rng, common=sets % 2 == 0)
            path = os.path.join(scratch, f"set{sets}.txt")
            sets += 1
            with open(path, "w") as fh:
                fh.write(f"# operator set {sets}\n" + "\n".join(specs) + "\n\n")
            argv = ["axis", "--set", path]
            ops.append(Op(
                "axis",
                lambda argv=argv: _call_cli(argv),
                lambda res, ax=axis: check_axis(ax, res),
                _text_bytes,
            ))
    return Workload("cli_requests", ops, _first_of_each(ops))


# ---------------------------------------------------------------------------
# verify_suite


def check_verify(results) -> str | None:
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    if failed:
        return "failed checks: " + "; ".join(failed)
    if len(results) < VERIFY_CHECKS:
        return f"only {len(results)} checks ran"
    return None


def verify_suite(seed: int, scratch: str, ledgers=EXPECTED_LEDGERS) -> Workload:
    verify_seed = int(np.random.default_rng([seed, 3]).integers(2**31))
    op = Op("run_all", lambda: verify.run_all(verify_seed), check_verify)
    return Workload("verify_suite", [op], [0])


def _first_of_each(ops: list[Op]) -> list[int]:
    seen = {}
    for i, op in enumerate(ops):
        seen.setdefault(op.kind, i)
    return sorted(seen.values())


BUILDERS = {"exact_sweep": exact_sweep, "cli_requests": cli_requests, "verify_suite": verify_suite}


def build(name: str, seed: int, scratch: str, ledgers=EXPECTED_LEDGERS) -> Workload:
    return BUILDERS[name](seed, scratch, ledgers)
