"""Sampled CLI paths pinned across engine changes.

``data/sampled_paths.json`` holds ``remotegate run --mode sampled --format
structured`` output for each protocol at five seeds, recorded with the
per-branch engine. The branch tensor must pick the same path for every
seed: same branch, ledger and verdict, and the same probability and
fidelity up to rounding.
"""

import json
from pathlib import Path

import pytest

from remotegate import cli

CASES = json.loads((Path(__file__).parent / "data" / "sampled_paths.json").read_text())


def _case_id(case):
    argv = case["argv"]
    return f"{case['record']['protocol']}-seed{argv[argv.index('--seed') + 1]}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_sampled_path_is_pinned(tmp_path, case):
    out = tmp_path / "out.txt"
    assert cli.main(case["argv"] + ["--out", str(out)]) == 0
    header, line = out.read_text().splitlines()
    assert header == "schema: 1"
    got, want = json.loads(line), case["record"]
    for key in ("protocol", "branch_id", "measurement_record", "ledger", "succeeded"):
        assert got[key] == want[key], key
    for key in ("probability", "fidelity"):
        assert abs(got[key] - want[key]) <= 1e-12, key
