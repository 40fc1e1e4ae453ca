"""One fresh benchmark process: set up a workload, time one call, report.

``run.py`` starts this script once per measured call, with every
``REPRO_*`` variable removed from the environment and ``src`` on
``PYTHONPATH``.  It writes one JSON record to ``--out``: set-up time
(process start to the workload call), wall and CPU time of the call, peak
resident memory, the call's checked outputs, the services' ``stats()``
counters and, with ``--trace 1``, every per-layer metric.

Untraced, the times are also given at the reference speed (see
:class:`SpeedProbe`): ``setup_s``, ``wall_s`` and ``cpu_s`` are rescaled,
and ``raw_setup_s``, ``raw_wall_s`` and ``raw_cpu_s`` are the clock
readings.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import traceback

#: Thread CPU time the probe kernel takes at the reference speed.  On a
#: 2-vCPU Xeon host it took 0.10 ms when the host was quiet and 0.17 ms when
#: a neighbour shared the core.
PROBE_REF_S = 100e-6
#: Wall time between two probes: about 2.5% of the run goes to probing.
PROBE_INTERVAL_S = 0.01
#: A probe during which the process's other threads ran for more than this
#: share of its own CPU time measured the program's contention with itself,
#: not the host's speed, and does not count towards the speed factor.
PROBE_MAX_OVERLAP = 0.2


def _probe_kernel() -> int:
    """A fixed piece of interpreter work: arithmetic, dict and list traffic."""
    acc = 0
    seen: dict[int, int] = {}
    kept: list[int] = []
    for i in range(800):
        acc = (acc * 31 + i) % 1000003
        seen[i & 15] = acc
        kept.append(acc)
    return acc + len(kept)


class SpeedProbe:
    """Samples how fast this process's CPU runs, so that times can be
    rescaled to one reference speed.

    The host lends its vCPUs to other tenants, and a neighbour on the same
    core slows everything, CPU clocks included, by up to ~1.8x for
    stretches of seconds to minutes.  A ``SIGALRM`` every
    :data:`PROBE_INTERVAL_S` of wall time runs :func:`_probe_kernel` twice
    in the main thread and records the thread CPU time of the second run;
    thread CPU time leaves out any wait for the GIL.  Probes that overlapped
    the process's other threads (:data:`PROBE_MAX_OVERLAP`; the process CPU
    clock less the thread's) are left out of the factor.  A window of wall
    time ``w`` whose counted probes took ``p_i`` did
    ``(w - probing) * mean(PROBE_REF_S / p_i)`` seconds of work at the
    reference speed.  A signal that lands while a probe runs is dropped.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, bool]] = []  # (CPU s, counted)
        self.spent_s = 0.0  # CPU time the main thread spent probing
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum, _frame) -> None:
        if self._busy:  # a signal that lands inside the probe is dropped
            return
        self._busy = True
        try:
            start = time.thread_time()
            _probe_kernel()  # warm-up: a thread woken from a wait runs cold
            # Neither clock gives up the GIL, so no other thread can take
            # it from the probe while the probe reads them.
            process0 = time.process_time()
            thread0 = time.thread_time()
            _probe_kernel()
            cpu_s = time.thread_time() - thread0
            overlap = time.process_time() - process0 - cpu_s
            self.samples.append((cpu_s, overlap <= PROBE_MAX_OVERLAP * cpu_s))
            self.spent_s += time.thread_time() - start
        finally:
            self._busy = False

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent_s

    def window(self, start: tuple[int, float], end: tuple[int, float]
               ) -> tuple[float, float]:
        """Between two marks: the speed factor (reference seconds per
        second), and the time the probes took."""
        samples = self.samples[start[0]:end[0]]
        counted = [cpu for cpu, ok in samples if ok]
        if not counted:
            raise RuntimeError("no speed probe fell inside a timed window "
                               "while the program's other threads were idle")
        factor = sum(PROBE_REF_S / cpu for cpu in counted) / len(counted)
        return factor, end[1] - start[1]

    def counted_frac(self) -> float:
        return sum(ok for _, ok in self.samples) / len(self.samples)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure(args: argparse.Namespace) -> dict:
    # The traced run goes unprobed: a probe would land inside the spans.
    probe = None if args.trace else SpeedProbe()
    if probe is not None:
        probe.start()
        at_start = probe.mark()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.prepare(args.seed, args.cache_dir)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    setup_s = time.monotonic() - args.spawned
    if probe is not None:
        at_call = probe.mark()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    result = workload.call()
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    times = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s}
    if probe is not None:
        at_end = probe.mark()
        probe.stop()
        times = {f"raw_{name}": value for name, value in times.items()}
        factor, probing = probe.window(at_start, at_call)
        times["setup_s"] = (setup_s - probing) * factor
        factor, probing = probe.window(at_call, at_end)
        times["wall_s"] = (wall_s - probing) * factor
        times["cpu_s"] = (cpu_s - probing) * factor
        times["probes"] = len(probe.samples)
        times["probes_counted_frac"] = probe.counted_frac()
    import numpy

    record = {
        **times,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": workload.outputs(result),
        "service_stats": [service.stats() for service in workload.services()],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        record["layers"] = spans.layer_metrics(
            tracer, wall_s, record["service_stats"]
        )
        record["span_calls"] = tracer.merged()[0].calls
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = measure(args)
        code = 0
    except Exception:  # noqa: BLE001 - reported to run.py as a failed call
        record = {"error": traceback.format_exc()}
        code = 1
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
