#!/usr/bin/env python3
"""Self-test of the benchmark itself, not of the package.

    python3 bench/selftest.py

* Every workload's outputs pass their checks at this commit.
* A deliberately wrong op is counted as failed instead of crashing the run:
  the exact sweep and the CLI requests are fed a wrong expected ledger, and
  an op that raises is counted too.
* Two traced runs with the same seed report every count metric identically
  (each traced run is a separate ``run.py --trace 1`` process).

Exits 0 when all of these hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import run

run.import_package()
os.makedirs(run.OUT, exist_ok=True)

import workloads  # noqa: E402  (needs the package path set up above)
from tracing import COUNT_SUFFIXES  # noqa: E402

WRONG_LEDGERS = {**workloads.EXPECTED_LEDGERS, "one11": (1, 1, 0)}


def _one_pass(name: str, ledgers=workloads.EXPECTED_LEDGERS) -> tuple[run.Measurement, object]:
    with tempfile.TemporaryDirectory(dir=run.OUT) as scratch:
        workload = workloads.build(name, 5, scratch, ledgers)
        m = run.Measurement()
        run.run_pass(workload, m)
    return m, workload


def test_outputs_pass():
    for name in ("exact_sweep", "cli_requests"):
        m, _ = _one_pass(name)
        assert m.failed == 0, (name, m.failures)


def test_wrong_ledger_counts_as_failed():
    for name, kind in (("exact_sweep", "one11"), ("cli_requests", "run:one11")):
        m, workload = _one_pass(name, WRONG_LEDGERS)
        expected = sum(op.kind == kind for op in workload.ops)
        assert expected > 0 and m.failed == expected, (name, m.failed, expected)
        assert all("ledger" in msg for msg in m.failures), m.failures


def test_raising_op_counts_as_failed():
    def boom():
        raise ValueError("deliberate")

    workload = workloads.Workload("broken", [workloads.Op("boom", boom, lambda out: None)], [0])
    m = run.Measurement()
    run.run_pass(workload, m)
    assert m.failed == 1 and "deliberate" in m.failures[0], m.failures


def _traced_counts(name: str) -> dict[str, float]:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
           "--seed", "3", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


def test_traced_counts_repeat():
    for name in run.WORKLOADS:
        first, second = _traced_counts(name), _traced_counts(name)
        assert first and first == second, (name, {k: (first[k], second[k]) for k in first if first[k] != second[k]})


def main() -> int:
    tests = [test_outputs_pass, test_wrong_ledger_counts_as_failed, test_raising_op_counts_as_failed,
             test_traced_counts_repeat]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"ok   {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
