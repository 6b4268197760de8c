"""The tolerance table stays single: every threshold is named in
``remotegate.tolerances`` and written nowhere else in the package."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import remotegate
from remotegate import Gate, Unimodular, bloch, circuits, gates, operators, protocols, statevector, tolerances

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


def _names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` binds or reads: as a name, an attribute, an
    argument, a definition, an import or its alias, or a string constant
    (a name given to ``getattr``)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.arg):
            found.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_the_compile_reads_no_tolerance():
    """The compile is exact: ``circuits.py``, which holds the circuit
    language, the integer grid and the compile, binds and reads no name
    that ``remotegate.tolerances`` defines, anywhere in the module; neither
    do the branch-stack primitives it plays with, ``statevector._split``
    and ``_apply_matrix``; and ``protocols`` imports neither
    ``ROUNDING_TOL`` nor ``BRANCH_PRUNE``."""
    table = {name for name in vars(tolerances) if name.isupper()}
    reads = {"circuits": sorted(_names(ast.parse(Path(circuits.__file__).read_text())) & table)}
    tree = ast.parse(Path(statevector.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for function in ("_split", "_apply_matrix"):
        reads[f"statevector.{function}"] = sorted(_names(defs[function]) & table)
    assert reads == dict.fromkeys(reads, [])
    tree = ast.parse(Path(protocols.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"ROUNDING_TOL", "BRANCH_PRUNE"}


def test_only_half_turns_fit_a_cross_product_of_their_axes():
    """The axis search skips every cross product with the axis of an
    operator that is not a half-turn. Against an axis n orthogonal to its
    own v, U = u0*1 - i*v.sigma has a commutator of norm 2 sqrt(2)|v| and
    an anticommutator of norm 2 sqrt(2)|u0|; the commutator fails for
    every |v| > CENTRAL_TOL only while this holds."""
    assert 2 * np.sqrt(2) * tolerances.CENTRAL_TOL > tolerances.CLASS_TOL


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
