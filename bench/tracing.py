"""Spans around each layer's public functions, installed from outside.

The package has no tracing of its own, so :class:`Tracer` replaces the
layer functions with timing wrappers for the length of a traced run and
puts the originals back afterwards. A function is wrapped under every name
that binds it: ``protocols`` imports ``apply_gate`` and ``measure`` by name,
so ``remotegate.protocols.apply_gate`` is replaced as well as
``remotegate.statevector.apply_gate``, and so is the ``PROTOCOLS`` table the
CLI dispatches through. Classes are traced by wrapping ``__post_init__``,
which every construction runs.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``. Spans stay in
memory until the run ends. A span's self time is its duration minus the
durations of its direct children, which (one thread, strictly nested calls)
is exactly the time its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

from remotegate import bloch, cli, gates, operators, protocols, statevector, verify

import remotegate

#: Every module whose namespace may bind a traced function.
MODULES = (remotegate, statevector, gates, operators, protocols, bloch, verify, cli)

AMP_BYTES = 16  # one complex128 amplitude

STATEVECTOR_FUNCS = ("apply_gate", "measure_computational", "measure_bell", "factor_qubit", "tensor")
BLOCH_FUNCS = ("pure_density", "bloch_vector", "density_from_bloch", "mirror_state", "verify_restoration")
VERIFY_CHECK_NAMES = tuple(name for name, _ in verify.CHECKS)


def _measure_name(args, kwargs) -> str:
    basis = args[2] if len(args) > 2 else kwargs.get("basis", "computational")
    return f"statevector.measure_{basis}"


def _dim(state) -> int:
    return 2 ** len(state.register)


def _meter_apply(counts, args, kwargs, result):
    counts["statevector.bytes_moved"] += 2 * AMP_BYTES * _dim(args[0])


def _meter_measure(counts, args, kwargs, result):
    name = _measure_name(args, kwargs)
    k = len(list(args[1] if len(args) > 1 else kwargs["targets"]))
    counts["statevector.outcomes_enumerated"] += 4 if name.endswith("bell") else 2**k
    counts["statevector.branches_kept"] += len(result)
    counts["statevector.bytes_moved"] += AMP_BYTES * _dim(args[0]) * (1 + len(result))


def _meter_factor(counts, args, kwargs, result):
    counts["statevector.bytes_moved"] += AMP_BYTES * (_dim(args[0]) + 2)


def _meter_tensor(counts, args, kwargs, result):
    d1, d2 = _dim(args[0]), _dim(args[1])
    counts["statevector.bytes_moved"] += AMP_BYTES * (d1 + d2 + d1 * d2)


def _meter_branches(counts, args, kwargs, result):
    counts["protocols.branches"] += len(result)


def _layer_functions():
    """(span name, module, attribute, meter) for every traced function."""
    funcs = [
        ("statevector.apply_gate", statevector, "apply_gate", _meter_apply),
        (_measure_name, statevector, "measure", _meter_measure),
        ("statevector.factor_qubit", statevector, "factor_qubit", _meter_factor),
        ("statevector.tensor", statevector, "tensor", _meter_tensor),
        ("operators.classify_operator", operators, "classify_operator", None),
        ("operators.find_common_axis", operators, "find_common_axis", None),
        ("protocols.outcome_record", protocols, "outcome_record", None),
        ("cli.main", cli, "main", None),
        ("cli.parse_operator", cli, "parse_operator", None),
        ("cli.parse_state", cli, "parse_state", None),
    ]
    for attr in ("run_bqst", "run_universal_221", "run_restricted_221", "run_111"):
        funcs.append(("protocols.run", protocols, attr, _meter_branches))
    for attr in BLOCH_FUNCS:
        funcs.append(("bloch", bloch, attr, None))
    return funcs


LAYER_CLASSES = (
    ("statevector.StateVector", statevector.StateVector),
    ("gates.Gate", gates.Gate),
    ("operators.Unimodular", operators.Unimodular),
    ("protocols.ProtocolConfig", protocols.ProtocolConfig),
)


class Tracer:
    """Installs wrappers on entry, records spans, restores on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._undo: list = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name, meter=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self
        dynamic = callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name(args, kwargs) if dynamic else name, 0, 0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if meter is not None:
                meter(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around one op."""
        span = [name, 0, 0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self.stack.pop()

    def _rebind(self, original, replacement):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((setattr, mod, attr, original))
                    setattr(mod, attr, replacement)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((dict.__setitem__, value, key, original))
                            value[key] = replacement

    def __enter__(self):
        for name, mod, attr, meter in _layer_functions():
            original = getattr(mod, attr)
            self._rebind(original, self.wrap(original, name, meter))
        for name, cls in LAYER_CLASSES:
            original = cls.__dict__["__post_init__"]
            self._undo.append((setattr, cls, "__post_init__", original))
            cls.__post_init__ = self.wrap(original, name)
        checks = verify.CHECKS
        self._undo.append((setattr, verify, "CHECKS", checks))
        verify.CHECKS = [(n, self.wrap(fn, f"verify.check.{n}")) for n, fn in checks]
        return self

    def __exit__(self, *exc):
        while self._undo:
            setter, obj, key, value = self._undo.pop()
            setter(obj, key, value)
        return False

    # -- reduction ----------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total ns, self ns)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, total, self_ns = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_ns[name] += end - start - child_ns[i]
        return calls, total, self_ns

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Every per-layer metric, each normalised per op where it says so."""
        calls, total, self_ns = self.totals()
        c = self.counts
        m: dict[str, float] = {}

        def per_op(value):
            return value / n_ops

        def self_ms(name):
            return per_op(self_ns[name] / 1e6)

        for fn in STATEVECTOR_FUNCS:
            m[f"statevector.{fn}.calls_per_op"] = per_op(calls[f"statevector.{fn}"])
            m[f"statevector.{fn}.self_ms_per_op"] = self_ms(f"statevector.{fn}")
        m["statevector.StateVector.constructions_per_op"] = per_op(calls["statevector.StateVector"])
        m["statevector.StateVector.self_ms_per_op"] = self_ms("statevector.StateVector")
        enumerated = c["statevector.outcomes_enumerated"]
        m["statevector.branches_kept_ratio"] = c["statevector.branches_kept"] / enumerated if enumerated else 0.0
        m["statevector.bytes_moved_computed_per_op"] = per_op(c["statevector.bytes_moved"])
        m["gates.Gate.constructions_per_op"] = per_op(calls["gates.Gate"])
        m["gates.Gate.self_ms_per_op"] = self_ms("gates.Gate")
        for fn in ("classify_operator", "find_common_axis"):
            m[f"operators.{fn}.calls_per_op"] = per_op(calls[f"operators.{fn}"])
            m[f"operators.{fn}.self_ms_per_op"] = self_ms(f"operators.{fn}")
        m["operators.Unimodular.constructions_per_op"] = per_op(calls["operators.Unimodular"])
        m["protocols.ProtocolConfig.self_ms_per_op"] = self_ms("protocols.ProtocolConfig")
        m["protocols.run.calls_per_op"] = per_op(calls["protocols.run"])
        m["protocols.run.self_ms_per_op"] = self_ms("protocols.run")
        m["protocols.branches_per_op"] = per_op(c["protocols.branches"])
        m["protocols.outcome_record.self_ms_per_op"] = self_ms("protocols.outcome_record")
        m["bloch.calls_per_op"] = per_op(calls["bloch"])
        m["bloch.self_ms_per_op"] = self_ms("bloch")
        for name in VERIFY_CHECK_NAMES:
            m[f"verify.check.{name}_s"] = per_op(total[f"verify.check.{name}"] / 1e9)
        m["cli.main.self_ms_per_op"] = self_ms("cli.main")
        m["cli.parse_operator.self_ms_per_op"] = self_ms("cli.parse_operator")
        m["cli.parse_state.self_ms_per_op"] = self_ms("cli.parse_state")
        m["cli.bytes_out_per_op"] = per_op(c["cli.bytes_out"])
        return m

    def write(self, path: str):
        """All spans, columnar: a name table plus one row per span."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(n, len(names)), s, e, p, op] for n, s, e, p, op in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": list(names), "spans": rows}, fh, separators=(",", ":"))


#: Metrics that are counts, not times: two traced runs with one seed must
#: report them identically.
COUNT_SUFFIXES = ("calls_per_op", "constructions_per_op", "branches_per_op", "branches_kept_ratio",
                  "bytes_moved_computed_per_op", "bytes_out_per_op")
