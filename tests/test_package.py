"""Package-wide rules on the public surface: one form per operation, so a
public name that only tests call is a second form of something ``src/``
already does, and it goes."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "remotegate"


def _defined(stmt: ast.stmt) -> list[str]:
    """The public names a module-level statement defines: a function, a
    class or the targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _referenced(tree: ast.AST) -> set[str]:
    """Every name a statement reads: a ``Name`` or ``Attribute`` that it
    does not assign, an import alias, or a string constant (a binding made
    by name, as ``bench/tracing.py`` makes them)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _members(stmt: ast.stmt, where: tuple) -> list[tuple[str, tuple]]:
    """The public methods and properties of a class statement at ``where``,
    each with the place of its definition."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    return [
        (item.name, (*where, k))
        for k, item in enumerate(stmt.body)
        if isinstance(item, functions) and not item.name.startswith("_")
    ]


def _units(stmt: ast.stmt, where: tuple) -> list[tuple[tuple, ast.AST]]:
    """A module-level statement at ``where`` as the parts whose reads are
    told apart: a class as its header, at ``where``, and each statement of
    its body at its own place; anything else whole."""
    if not isinstance(stmt, ast.ClassDef):
        return [(where, stmt)]
    header = [(where, node) for node in (*stmt.decorator_list, *stmt.bases, *stmt.keywords)]
    return header + [((*where, k), item) for k, item in enumerate(stmt.body)]


def test_every_public_name_has_a_caller_outside_tests():
    """Each public module-level function, class and constant of
    ``src/remotegate``, and each public method and property of its classes,
    is read by the package, a demo or the benchmark, outside the statement
    that defines it. ``__init__.py`` only re-exports, so it calls nothing.
    Names are matched as names, so a member that shares its name with a
    read elsewhere passes unread: ``BlochVector.norm`` (``np.linalg.norm``)
    and ``BatchOutcome.fidelity`` (the ``"fidelity"`` record key) were
    found and deleted by hand."""
    files = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    definitions, readers = {}, {}
    for path in files:
        for n, stmt in enumerate(ast.parse(path.read_text(), str(path)).body):
            where = (path, n)
            if path.parent == PACKAGE:
                for name in _defined(stmt):
                    definitions[f"{path.stem}.{name}"] = (name, where)
                for name, place in _members(stmt, where):
                    definitions[f"{path.stem}.{stmt.name}.{name}"] = (name, place)
            for unit, node in _units(stmt, where):
                for name in _referenced(node):
                    readers.setdefault(name, set()).add(unit)
    # a module-level name's own statement is every unit that starts with its (path, n)
    unread = sorted(
        qual
        for qual, (name, where) in definitions.items()
        if not {unit for unit in readers.get(name, set()) if unit[: len(where)] != where}
    )
    assert not unread, f"public names that only tests read: {unread}"


def test_no_module_imports_a_name_it_never_reads():
    """Each name a module of ``src/remotegate`` binds by an import is read
    as a name in that module, so a moved check leaves no import behind.
    ``__init__.py`` only re-exports, and ``from __future__`` binds nothing."""
    unread = []
    for path in sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"):
        tree = ast.parse(path.read_text(), str(path))
        names = [node for node in ast.walk(tree) if isinstance(node, ast.Name)]
        read = {node.id for node in names if not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unread += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert not unread, f"imported names that are never read: {unread}"


def test_the_cli_reads_no_private_name():
    """``cli.py`` reads argparse, and everything else, through public names
    only: no ``argparse._*`` import or attribute, no ``._actions``,
    ``._option_string_actions`` or ``._registries``, and no private name
    given to ``getattr``. Private names change between Python versions, and
    the package runs on any Python from 3.10 on."""
    path = PACKAGE / "cli.py"
    private = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("getattr", "hasattr"):
            names = [arg.value for arg in node.args[1:2] if isinstance(arg, ast.Constant)]
        else:
            continue
        private += [f"{path.name}:{node.lineno} {name}" for name in names if name.startswith("_") and not name.endswith("__")]
    assert not private, f"private names read: {private}"


#: The modules of ``src/remotegate`` in import order: each may import only
#: the modules before it.
LAYERS = ("tolerances", "gates", "statevector", "operators", "circuits", "protocols", "bloch", "verify", "cli")
#: (module, function, imported module): imports made inside a function, after
#: every module has loaded, that may name a later layer.
LATE_IMPORTS = {("verify", "check_operator_round_trip", "cli")}


def _package_imports(tree: ast.Module):
    """(enclosing function or None, module) for each import in ``tree`` of a
    module of this package: ``from .x import ...``, ``from . import x``,
    and the same spelled from ``remotegate``."""
    stack = [(None, stmt) for stmt in tree.body]
    while stack:
        function, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = function or node.name
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("remotegate" if node.level else None, node.module))).split(".")
            if base[0] == "remotegate":
                yield from ((function, name) for name in base[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            yield from ((function, alias.name.split(".")[1]) for alias in node.names if alias.name.startswith("remotegate."))
        stack.extend((function, child) for child in ast.iter_child_nodes(node))


def test_each_module_imports_only_earlier_layers():
    """Each module of ``src/remotegate`` is in ``LAYERS`` and imports only
    modules before it there, so the imports have no cycle and, for one,
    ``circuits`` cannot read the protocol table. The entry points
    ``__init__.py`` and ``__main__.py`` are exempt, as are the
    ``LATE_IMPORTS`` made inside a function."""
    files = sorted(p for p in PACKAGE.glob("*.py") if p.name not in ("__init__.py", "__main__.py"))
    assert sorted(p.stem for p in files) == sorted(LAYERS)
    upward = [
        f"{path.stem} imports {name}" + (f" in {function}" if function else "")
        for path in files
        for function, name in _package_imports(ast.parse(path.read_text(), str(path)))
        if (path.stem, function, name) not in LATE_IMPORTS and LAYERS.index(name) >= LAYERS.index(path.stem)
    ]
    assert not upward, f"imports of a later or the same layer: {upward}"
