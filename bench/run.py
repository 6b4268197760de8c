#!/usr/bin/env python3
"""Benchmark for remotegate: end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 bench/run.py --workload exact_sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1            # every workload, one after another

One closed-loop client on one thread, BLAS pinned to one thread. Inputs
are generated from ``--seed`` before timing starts; warm-up ops (the first
op of each kind) run untimed and count towards ``setup_s``, which is taken
over several fresh interpreters. Every op's output is checked; a raised
exception or a failed check counts as a failed op, never as a crash.

``--trace 0`` reports the end-to-end metrics, with every time scaled to a
reference host speed (bench/hostspeed.py); ``--trace 1`` reports the
per-layer metrics (see bench/NOTES.md). Either way the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``, and a fuller record with an environment block is written
under ``bench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("exact_sweep", "cli_requests", "verify_suite")
#: Fresh interpreters timed for setup_s; a verify_suite warm-up is a whole
#: run_all, so it gets fewer.
SETUP_PROBES = {"exact_sweep": 5, "cli_requests": 5, "verify_suite": 3}
#: A p99 is reported only with at least ten samples beyond it.
P99_MIN_SAMPLES = 1000


class BenchError(RuntimeError):
    """The benchmark cannot run here (no usable package, broken probe)."""


@dataclass
class Measurement:
    latencies_ns: list[int] = field(default_factory=list)
    #: kernel times sampled while the ops ran (hostspeed.Sampler), and per
    #: op the number of samples taken before it started and when it ended
    kernel_ns: list[float] = field(default_factory=list)
    sample_spans: list[tuple[int, int]] = field(default_factory=list)
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    def ops_per_s(self) -> float:
        return ops_per_s(self.latencies_ns)


def ops_per_s(latencies_ns) -> float:
    """Ops per second of time spent inside ops."""
    return len(latencies_ns) / (sum(latencies_ns) / 1e9)


def percentile_ms(latencies_ns, q: float) -> float:
    ordered = sorted(latencies_ns)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] / 1e6


def import_package():
    """Import remotegate from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "remotegate", "__init__.py")):
        raise BenchError(f"no package source at {SRC}/remotegate")
    sys.path.insert(0, SRC)
    import remotegate

    if os.path.dirname(os.path.abspath(remotegate.__file__)) != os.path.join(SRC, "remotegate"):
        raise BenchError(f"imported remotegate from {remotegate.__file__}, not {SRC}")
    return remotegate


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit for the end-to-end ("0") and per-layer ("1") runs."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


# ---------------------------------------------------------------------------
# running ops


def _outcome(op, clock=time.perf_counter_ns):
    """Run and check one op; returns (latency ns, failure message or None,
    output or None)."""
    t0 = clock()
    try:
        out = op.run()
    except Exception as exc:  # the op failed; counted, not fatal
        return clock() - t0, f"{op.kind}: raised {type(exc).__name__}: {exc}", None
    elapsed = clock() - t0
    try:
        msg = op.check(out)
    except Exception as exc:  # malformed output fails the check
        msg = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, None if msg is None else f"{op.kind}: {msg}", out


def warm_up(workload, indices) -> list[str]:
    failures = []
    for i in indices:
        _, msg, _ = _outcome(workload.ops[i])
        if msg:
            failures.append(msg)
    return failures


def run_op(workload, i: int, m: Measurement, tracer=None, clock=time.perf_counter_ns):
    """Run op ``i`` of the pool (cyclically) and record it in ``m``."""
    op = workload.ops[i % len(workload.ops)]
    if tracer is None:
        latency, msg, _ = _outcome(op, clock)
    else:
        tracer.op = m.ops
        with tracer.span("bench.op"):
            latency, msg, out = _outcome(op)
        if out is not None:
            tracer.counts["cli.bytes_out"] += op.bytes_out(out)
    m.latencies_ns.append(latency)
    if msg is not None:
        m.failed += 1
        if len(m.failures) < 10:
            m.failures.append(msg)


def run_ops(workload, seconds: float) -> Measurement:
    """Closed loop over the op pool until ``seconds`` have passed, sampling
    the host speed throughout."""
    m = Measurement()
    start = time.perf_counter()
    with hostspeed.Sampler() as sampler:
        i = 0
        while True:
            before = len(sampler.kernel_ns)
            run_op(workload, i, m, clock=sampler.clock)
            m.sample_spans.append((before, len(sampler.kernel_ns)))
            i += 1
            if time.perf_counter() - start >= seconds:
                break
    m.wall_s = time.perf_counter() - start
    m.kernel_ns = sampler.kernel_ns
    return m


def run_pass(workload, m: Measurement, tracer=None):
    """Every op of the pool once, so per-op counts repeat exactly."""
    for i in range(len(workload.ops)):
        run_op(workload, i, m, tracer)


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its warm-up completing,
    raw and at reference host speed (sampled inside the fresh interpreter)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=150)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    word, _, rest = line.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise BenchError(f"setup probe failed (exit {proc.returncode}): {line.strip()} {err.strip()}")
    stolen_ns, kernel_ns = (float(v) for v in rest.split())
    work = elapsed - stolen_ns / 1e9
    return work, work * hostspeed.scale([kernel_ns])


# ---------------------------------------------------------------------------
# environment and output


def environment(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (git not available)"
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def emit(declared: dict[str, str], values: dict[str, float], record: dict, failed: int, attempted: int):
    """Print the metric table, write the record, print the result line."""
    missing = set(declared) ^ set(values)
    if missing:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    env = record["environment"]
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, unit in declared.items():
        print(f"  {name:<52} {values[name]:>14.6g} {unit}")
    path = os.path.join(OUT, f"{env['workload']}-seed{env['seed']}-trace{env['trace']}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(f"record written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))


# ---------------------------------------------------------------------------
# modes


def run_untraced(args, workloads, declared, env) -> int:
    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES[args.workload])]
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        workload = workloads.build(args.workload, args.seed, scratch)
        warm_failures = warm_up(workload, workload.warmup)
        m = run_ops(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = hostspeed.scaled(m.latencies_ns, m.sample_spans, m.kernel_ns)
    values = {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "ops_per_s": ops_per_s(lat),
        "op_p50_ms": statistics.median(lat) / 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    p99 = percentile_ms(lat, 0.99) if m.ops >= P99_MIN_SAMPLES else None
    raw = {
        "setup_s": statistics.median(raw for raw, _ in setup),
        "ops_per_s": m.ops_per_s(),
        "op_p50_ms": statistics.median(m.latencies_ns) / 1e6,
        "kernel_median_us": statistics.median(m.kernel_ns) / 1e3,
        "kernel_samples": len(m.kernel_ns),
    }
    print(f"{args.workload}: {m.ops} ops in {m.wall_s:.2f} s, {m.failed} failed; "
          f"setup over {len(setup)} fresh interpreters")
    print("  raw wall-clock: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print(f"  op_p99_ms {'%.6g' % p99 if p99 is not None else 'not reported'} "
          f"(n={m.ops}; needs n >= {P99_MIN_SAMPLES})")
    print(f"  failed_ratio {m.failed / m.ops:.6g}")
    for msg in warm_failures + m.failures:
        print(f"  FAILED {msg}")
    record = {
        "environment": env,
        "metrics": values,
        "extra": {
            "samples": m.ops,
            "failed_ratio": m.failed / m.ops,
            "op_p99_ms": p99,
            "op_p90_ms": percentile_ms(lat, 0.90) if m.ops >= 100 else None,
            "verify_s": values["op_p50_ms"] / 1e3 if args.workload == "verify_suite" else None,
            "raw": raw,
            "setup_samples_s": [{"raw": r, "scaled": sc} for r, sc in setup],
            "kernel_ref_us": hostspeed.KERNEL_REF_NS / 1e3,
            "wall_s": m.wall_s,
            "failures": warm_failures + m.failures,
        },
    }
    emit(declared, values, record, m.failed + len(warm_failures), m.ops + len(workload.warmup))
    return 0


def run_traced(args, workloads, declared, env) -> int:
    """Whole passes over the pool, alternating untraced and traced, until
    ``--seconds`` have passed; after one untimed pass to fill caches."""
    from tracing import Tracer

    plain, traced, tracer = Measurement(), Measurement(), Tracer()
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        workload = workloads.build(args.workload, args.seed, scratch)
        warm_failures = warm_up(workload, range(len(workload.ops)))
        start = time.perf_counter()
        while True:
            run_pass(workload, plain)
            with tracer:
                run_pass(workload, traced, tracer)
            if time.perf_counter() - start >= args.seconds:
                break
    values = tracer.layer_metrics(traced.ops)
    values["trace.ops_per_s_untraced"] = plain.ops_per_s()
    values["trace.ops_per_s_traced"] = traced.ops_per_s()
    values["trace.overhead_ratio"] = plain.ops_per_s() / traced.ops_per_s()
    print(f"{args.workload} traced: {traced.ops} ops ({traced.ops // len(workload.ops)} passes of "
          f"{len(workload.ops)}), {len(tracer.spans)} spans, {traced.failed} failed; "
          f"overhead {values['trace.overhead_ratio']:.3f}x untraced ops_per_s")
    failures = warm_failures + plain.failures + traced.failures
    for msg in failures:
        print(f"  FAILED {msg}")
    tracer.write(os.path.join(OUT, f"spans-{args.workload}.json"))
    record = {"environment": env, "metrics": values, "extra": {"samples": traced.ops, "failures": failures}}
    failed = len(warm_failures) + plain.failed + traced.failed
    emit(declared, values, record, failed, len(workload.ops) + plain.ops + traced.ops)
    return 0


def run_probe(args) -> int:
    """Import, build the inputs and warm up; then print "ready", the time
    spent sampling the host speed, and the median kernel time (ns)."""
    with hostspeed.Sampler() as sampler:
        import_package()
        import workloads

        with tempfile.TemporaryDirectory(dir=OUT) as scratch:
            workload = workloads.build(args.workload, args.seed, scratch)
            failures = warm_up(workload, workload.warmup)
    print(f"ready {sampler.stolen_ns} {statistics.median(sampler.kernel_ns)}", flush=True)
    for msg in failures:
        print(msg, file=sys.stderr)
    return 0


def run_every_workload(args) -> int:
    """Each workload in its own fresh process, exactly as when named alone."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    with open(os.path.join(OUT, f"all-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"environment": environment(args), "results": results}, fh, indent=2, sort_keys=True)
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        declared = declared_metrics()
        if args.probe_setup:
            return run_probe(args)
        import_package()
        import workloads

        os.makedirs(OUT, exist_ok=True)
        if args.workload is None:
            return run_every_workload(args)
        env = environment(args)
        mode = run_traced if args.trace else run_untraced
        return mode(args, workloads, declared[str(args.trace)], env)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
