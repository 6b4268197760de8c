"""Host-speed reference, used to express timings at a fixed host speed.

The shared host this benchmark was built on runs the same code up to 1.5x
slower for stretches of seconds to minutes. Thread CPU time slows by the
same factor, so the cause is slower execution (the host's other tenants),
not descheduling. Raw wall times from two runs minutes apart are therefore
not comparable.

So while a timed loop runs, :class:`Sampler` times :func:`kernel` every
``SAMPLE_EVERY_S`` of wall time, from a SIGALRM handler. That way the
samples also cover the inside of long ops such as ``verify.run_all``. The
kernel is a fixed piece of interpreter-bound work, of the kind a CLI
request does: build an argparse parser, parse an argv, parse floats, dump a
JSON record. It never calls the package, so no change to the package can
move it.

- :meth:`Sampler.clock` excludes the time spent sampling, so op latencies
  do not include it.
- Each op's latency is scaled by ``KERNEL_REF_NS / k``, where ``k`` is the
  median kernel time sampled around it (:func:`scaled`). The result is the
  time at the speed where the kernel takes ``KERNEL_REF_NS``, which is
  about this host's usual speed.
- The raw times are kept in every record next to the scaled ones.

Why this kernel: across runs on this host it tracked the ops of every
workload better than a numpy kernel shaped like an engine step. The numpy
kernel slowed by more than the ops did, and so over-corrected.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import time

#: Reference speed: the kernel takes this long (about this host's usual time).
KERNEL_REF_NS = 650_000
#: Wall time between two host-speed samples.
SAMPLE_EVERY_S = 0.05
#: Samples on each side of an op that also set its scale.
NEIGHBOURS = 4

_ARGV = ["run", "--u", "mat:0.6,0.0,0.0,0.8", "--psi", "amp:1,0,0,1", "--mode", "sampled", "--seed", "7"]


def kernel() -> str:
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--u", required=True)
    run.add_argument("--psi", required=True)
    run.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    run.add_argument("--seed", type=int)
    classify = sub.add_parser("classify")
    classify.add_argument("--u", required=True)
    args = parser.parse_args(_ARGV)
    values = [float(v) for v in args.u[4:].split(",")] + [float(v) for v in args.psi[4:].split(",")]
    record = {"command": args.command, "values": values, "seed": args.seed,
              "branch_id": "0/01/1", "ledger": {"ebits": 2, "cbits_ab": 2, "cbits_ba": 1}}
    return json.dumps(record, sort_keys=True)


class Sampler:
    """Context manager: kernel samples from a SIGALRM handler while active."""

    def __init__(self):
        self.kernel_ns: list[int] = []
        self.stolen_ns = 0
        self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        try:
            self.sample_now()
        finally:
            self.stolen_ns += time.perf_counter_ns() - t0
            self._busy = False

    def sample_now(self):
        """One untimed call first, so the caches the interrupted work left
        behind do not count; then one timed call."""
        kernel()
        t0 = time.perf_counter_ns()
        kernel()
        self.kernel_ns.append(time.perf_counter_ns() - t0)

    def clock(self) -> int:
        """``perf_counter_ns`` minus the time spent sampling."""
        return time.perf_counter_ns() - self.stolen_ns

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.kernel_ns:
            self.sample_now()
        return False


def scale(kernel_ns) -> float:
    """Factor that takes a time to reference speed: the reference kernel
    time over the median of the kernel times sampled around it."""
    return KERNEL_REF_NS / statistics.median(kernel_ns)


def scaled(latencies_ns, spans, kernel_ns) -> list[float]:
    """Each latency at reference speed, scaled by the kernel samples taken
    while its op ran plus ``NEIGHBOURS`` on each side. ``spans[i]`` is the
    number of samples taken before op ``i`` started and when it ended, so
    a host that changes speed within a run scales each op by its own speed."""
    return [lat * scale(kernel_ns[max(0, j0 - NEIGHBOURS): j1 + NEIGHBOURS])
            for lat, (j0, j1) in zip(latencies_ns, spans)]
