"""Smoke test: each narrative script in demos/ runs to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


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
    assert capsys.readouterr().out
