"""The tolerance table stays single: every threshold is named in
``remotegate.tolerances`` and written nowhere else in the package."""

import re
from pathlib import Path

import numpy as np
import pytest

import remotegate
from remotegate import Gate, Unimodular, bloch, gates, operators, protocols, statevector, tolerances

LITERAL = re.compile(r"[0-9]e-[0-9]+")
RELATIVE = re.compile(r"\b(allclose|isclose)\(")


def test_no_threshold_literal_outside_the_table():
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(Path(remotegate.__file__).parent.glob("*.py"))
        if path.name != "tolerances.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if LITERAL.search(line)
    ]
    assert hits == []


def test_no_relative_tolerance_comparisons():
    """``allclose``/``isclose`` add rtol=1e-5 to every atol, so each
    threshold is an absolute max-entry test instead."""
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(Path(remotegate.__file__).parent.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if RELATIVE.search(line)
    ]
    assert hits == []


def test_modules_still_bind_the_constants_they_defined():
    homes = {
        gates: ["UNITARY_TOL"],
        statevector: ["NORM_TOL", "BRANCH_PRUNE", "FACTOR_TOL"],
        operators: ["UNIMODULAR_TOL", "CLASS_TOL", "DEGENERACY_TOL", "CENTRAL_TOL"],
        bloch: ["DENSITY_TOL", "RESTORE_TOL"],
        protocols: ["SUCCESS_TOL"],
    }
    for module, names in homes.items():
        for name in names:
            assert getattr(module, name) == getattr(tolerances, name), f"{module.__name__}.{name}"


def test_readme_conventions_list_the_table_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [(name, float(value)) for name, value in re.findall(r"^ *\| `([A-Z_]+)` \| (\S+) \|", readme, re.M)]
    assert rows == [(name, value) for name, value in vars(tolerances).items() if name.isupper()]


def test_gate_unitarity_is_absolute():
    # within allclose's default rtol of 1e-5, far outside UNITARY_TOL
    with pytest.raises(ValueError, match="not unitary"):
        Gate(np.diag([1 + 4e-6, 1]))


def test_special_unitary_check_is_absolute():
    a = b = 1 / np.sqrt(2)
    m = np.array([[a, b], [-b + 4e-6, a]])
    with pytest.raises(ValueError, match="special-unitary"):
        Unimodular.from_matrix(m)
