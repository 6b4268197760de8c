"""Each narrative script in demos/ runs to completion and prints, byte for
byte, the output recorded in tests/data/demos/<script>.txt. The demos are
seeded, so their output is deterministic; after an intended change to a
demo, rerun it as ``python demos/<script>.py > tests/data/demos/<script>.txt``."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
RECORDED = ROOT / "tests" / "data" / "demos"


@pytest.mark.parametrize(
    "script",
    [
        "01_resource_bounds.py",
        "02_universal_protocol.py",
        "03_restricted_sets.py",
        "04_bloch_geometry.py",
        "05_promise_and_ramsey.py",
    ],
)
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.encode() == (RECORDED / script).with_suffix(".txt").read_bytes()
