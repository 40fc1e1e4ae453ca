"""Outside-in spans for the traced run: wrap each layer's public functions.

Nothing here edits the program.  :func:`install` replaces functions and
methods on the program's modules and classes *in the benchmark process*,
at the binding the caller looks them up through (``run_code`` where
``repro.agents.semantic`` imports it, ``apply_matrix`` where the simulator
imports it, ...).  A missing target raises, so a renamed function fails the
traced run instead of silently reading 0 s.

Each wrapper records a span: its duration, and its self time — the duration
minus the time its child spans on the same thread took.  Spans are kept per
thread (the service's pool threads have their own stacks), and per-thread
totals are merged only when the run ends.  The sum of one thread's self
times equals the wall time its outermost spans cover, which is what
``unattributed_s`` subtracts from the calling thread's wall.
"""

from __future__ import annotations

import os
import threading
from importlib import import_module
from time import perf_counter


class _ThreadStats:
    """One thread's span stack and totals; touched only by that thread."""

    def __init__(self) -> None:
        self.stack: list[float] = []  # child time accumulated per open span
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.top_s = 0.0  # wall covered by this thread's outermost spans
        self.episode_start: float | None = None

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


class Tracer:
    """Span wrappers plus the per-thread totals they record into."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadStats] = []

    def stats(self) -> _ThreadStats:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadStats()
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span called ``name`` (or ``name(args)`` when
        callable).  ``before(st)`` runs as the span opens and
        ``after(st, args, kwargs, result, duration)`` once it has closed."""

        def traced(*args, **kwargs):
            st = self.stats()
            span = name(args) if callable(name) else name
            if before is not None:
                before(st)
            stack = st.stack
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                else:
                    st.top_s += duration
                st.self_s[span] = st.self_s.get(span, 0.0) + duration - child
                st.calls[span] = st.calls.get(span, 0) + 1
            if after is not None:
                after(st, args, kwargs, result, duration)
            return result

        return traced

    def merged(self) -> tuple[_ThreadStats, _ThreadStats]:
        """(all threads summed, the calling thread's own stats)."""
        total = _ThreadStats()
        main = self.stats()
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, value in st.self_s.items():
                total.self_s[name] = total.self_s.get(name, 0.0) + value
            for name, value in st.calls.items():
                total.calls[name] = total.calls.get(name, 0) + value
            for name, value in st.counts.items():
                total.add(name, value)
            for name, values in st.samples.items():
                total.samples.setdefault(name, []).extend(values)
        return total, main


# -- what is wrapped ------------------------------------------------------------------


def _ok(attr):
    def after(st, _args, _kwargs, result, _duration):
        st.add(attr, 1 if result.ok else 0)

    return after


def _hit(attr):
    def after(st, _args, _kwargs, result, _duration):
        st.add(attr, 0 if result is None else 1)

    return after


def _start_episode(st):
    st.episode_start = perf_counter()


def _end_episode(st, _args, _kwargs, result, _duration):
    if st.episode_start is not None:
        st.sample("evalsuite.episode_ms", 1e3 * (perf_counter() - st.episode_start))
        st.episode_start = None
    repairs = result.pass_reports[1:]
    st.add("agents.semantic.repairs", len(repairs))
    st.add("agents.semantic.repairs_fixed", sum(1 for r in repairs if r.passed))


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _simulator_span(args) -> str:
    noisy = args[0].noise_model is not None
    return "quantum.simulator.noisy" if noisy else "quantum.simulator.ideal"


def _count_shots(st, args, kwargs, _result, _duration):
    if args[0].noise_model is not None:
        st.add("quantum.simulator.noisy.shots", _arg(args, kwargs, 2, "shots"))


def _apply_matrix_bytes(st, args, kwargs, _result, _duration):
    # A complex128 state of 2^n amplitudes, read once and written once.
    num_qubits = _arg(args, kwargs, 3, "num_qubits")
    st.add("quantum.statevector.apply_matrix.bytes_computed", 2 * 16 * 2**num_qubits)


def _disk_put_bytes(st, args, _kwargs, _result, _duration):
    disk, key = args[0], args[1]
    try:
        st.add("execution.disk.put.bytes", os.stat(disk.path_for(key)).st_size)
    except OSError:
        pass


def _group_units(st, args, _kwargs, _result, _duration):
    st.sample("quantum.batchsim.group_units", len(args[1].units))


def _decode_ms(st, _args, _kwargs, _result, duration):
    st.sample("qec.decode.ms", 1e3 * duration)


def _rejected(st, _args, _kwargs, result, _duration):
    st.add("quantum.analysis.rejected", 0 if result.ok else 1)


#: (module, attribute path, span name, before, after).  The attribute path
#: names a module-level binding or ``Class.method``.
HOOKS = [
    ("repro.llm.model", "SimulatedCodeLLM.generate", "llm.generate", None, None),
    ("repro.llm.model", "SimulatedCodeLLM.repair", "llm.repair", None, None),
    ("repro.rag.retriever", "Retriever.retrieve_context", "rag.retrieve", None, None),
    ("repro.agents.codegen", "CodeGenerationAgent.generate",
     "agents.codegen.generate", _start_episode, None),
    ("repro.agents.codegen", "CodeGenerationAgent.repair",
     "agents.codegen.repair", None, None),
    ("repro.agents.semantic", "run_code", "agents.sandbox", None,
     _ok("agents.sandbox.ok")),
    ("repro.agents.semantic", "SemanticAnalyzerAgent.analyze",
     "agents.semantic.analyze", None, None),
    ("repro.agents.semantic", "SemanticAnalyzerAgent.refine",
     "agents.semantic.refine", None, _end_episode),
    ("repro.evalsuite.runner", "build_pipeline", "evalsuite.build_pipeline",
     None, None),
    ("repro.agents.semantic", "analyze_circuit", "quantum.analysis", None,
     _rejected),
    ("repro.quantum.execution.service", "analyze_circuit", "quantum.analysis",
     None, _rejected),
    ("repro.quantum.transpiler.pipeline", "transpile_core", "quantum.transpiler",
     None, None),
    ("repro.quantum.execution.service", "ExecutionService.transpile",
     "execution.transpile", None, None),
    ("repro.quantum.execution.service", "ExecutionService.run",
     "execution.service.run", None, None),
    ("repro.quantum.execution.service", "ExecutionService.submit",
     "execution.service.submit", None, None),
    ("repro.quantum.execution.jobs", "ExecutionJob.result", "execution.job.wait",
     None, None),
    ("repro.quantum.execution.service", "circuit_fingerprint",
     "execution.fingerprint", None, None),
    ("repro.quantum.execution.cache", "ResultCache.get", "execution.cache.get",
     None, _hit("execution.cache.get.hits")),
    ("repro.quantum.execution.cache", "ResultCache.put", "execution.cache.put",
     None, None),
    ("repro.quantum.execution.disk_cache", "DiskResultCache.get",
     "execution.disk.get", None, _hit("execution.disk.get.hits")),
    ("repro.quantum.execution.disk_cache", "DiskResultCache.put",
     "execution.disk.put", None, _disk_put_bytes),
    ("repro.quantum.backend", "Backend.execute_circuit", _simulator_span, None,
     _count_shots),
    ("repro.quantum.statevector", "Statevector.from_circuit",
     "quantum.statevector.from_circuit", None, None),
    ("repro.quantum.simulator", "apply_matrix",
     "quantum.statevector.apply_matrix", None, _apply_matrix_bytes),
    ("repro.quantum.batchsim.dispatcher", "execute_group", "quantum.batchsim",
     None, _group_units),
    ("repro.qec.experiments", "sample_memory", "qec.sample", None, None),
    ("repro.qec.matching", "MWPMDecoder.decode", "qec.decode", None, _decode_ms),
    ("repro.agents.qec_agent", "QECAgent.apply", "agents.qec.apply", None, None),
]


def install(tracer: Tracer) -> None:
    """Wrap every hook target; raise if one no longer exists."""
    for module_name, path, name, before, after in HOOKS:
        owner = import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        raw = vars(owner).get(attr) if parents else getattr(owner, attr, None)
        if raw is None:
            raise LookupError(f"hook target {module_name}.{path} is missing")
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(name, raw.__func__, before, after))
        else:
            wrapped = tracer.wrap(name, raw, before, after)
        setattr(owner, attr, wrapped)


# -- per-layer metrics ----------------------------------------------------------------


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 when there are no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer, wall_s: float, service_stats: list[dict]) -> dict:
    """Every per-layer metric of one traced workload call."""
    total, main = tracer.merged()

    def calls(span: str) -> int:
        return total.calls.get(span, 0)

    def self_s(span: str) -> float:
        return total.self_s.get(span, 0.0)

    def count(name: str) -> float:
        return total.counts.get(name, 0)

    m: dict[str, float] = {}
    for prefix in (
        "llm.generate", "llm.repair", "rag.retrieve", "agents.sandbox",
        "agents.semantic.analyze", "quantum.analysis",
        "execution.service.run", "execution.service.submit",
        "execution.fingerprint", "execution.cache.get", "execution.cache.put",
        "execution.disk.get", "execution.disk.put",
        "quantum.simulator.noisy", "quantum.simulator.ideal",
        "quantum.statevector.from_circuit", "quantum.statevector.apply_matrix",
        "qec.sample", "qec.decode",
    ):
        m[f"{prefix}.calls"] = calls(prefix)
        m[f"{prefix}.self_s"] = self_s(prefix)
    m["agents.codegen.self_s"] = (
        self_s("agents.codegen.generate") + self_s("agents.codegen.repair")
    )
    m["agents.sandbox.ok_frac"] = _frac(count("agents.sandbox.ok"), calls("agents.sandbox"))
    m["agents.semantic.refine.self_s"] = self_s("agents.semantic.refine")
    m["agents.semantic.repair_fixed_frac"] = _frac(
        count("agents.semantic.repairs_fixed"), count("agents.semantic.repairs")
    )
    episodes = total.samples.get("evalsuite.episode_ms", [])
    m["evalsuite.episodes"] = len(episodes)
    m["evalsuite.episode_ms_p50"] = _percentile(episodes, 50)
    m["evalsuite.episode_ms_p99"] = _percentile(episodes, 99)
    m["evalsuite.build_pipeline.self_s"] = self_s("evalsuite.build_pipeline")
    m["quantum.analysis.reject_frac"] = _frac(
        count("quantum.analysis.rejected"), calls("quantum.analysis")
    )
    m["quantum.transpiler.calls"] = calls("quantum.transpiler")
    m["quantum.transpiler.self_s"] = (
        self_s("quantum.transpiler") + self_s("execution.transpile")
    )
    hits = sum(s.get("transpile_cache_hits", 0) for s in service_stats)
    misses = sum(s.get("transpiles", 0) for s in service_stats)
    m["execution.transpile.hit_frac"] = _frac(hits, hits + misses)
    m["execution.job.wait_s"] = self_s("execution.job.wait")
    for tier in ("cache", "disk"):
        m[f"execution.{tier}.get.hit_frac"] = _frac(
            count(f"execution.{tier}.get.hits"), calls(f"execution.{tier}.get")
        )
    m["execution.disk.put.bytes"] = count("execution.disk.put.bytes")
    m["quantum.simulator.noisy.shots"] = count("quantum.simulator.noisy.shots")
    kernel = "quantum.statevector.apply_matrix"
    m[f"{kernel}.us_per_call"] = 1e6 * _frac(self_s(kernel), calls(kernel))
    m[f"{kernel}.bytes_computed"] = count(f"{kernel}.bytes_computed")
    groups = total.samples.get("quantum.batchsim.group_units", [])
    m["quantum.batchsim.groups"] = calls("quantum.batchsim")
    m["quantum.batchsim.self_s"] = self_s("quantum.batchsim")
    m["quantum.batchsim.group_units_p50"] = _percentile(groups, 50)
    m["quantum.batchsim.group_units_max"] = max(groups, default=0)
    decodes = total.samples.get("qec.decode.ms", [])
    m["qec.decode.ms_p50"] = _percentile(decodes, 50)
    m["qec.decode.ms_p99"] = _percentile(decodes, 99)
    m["agents.qec.apply.self_s"] = self_s("agents.qec.apply")
    m["traced_wall_s"] = wall_s
    m["unattributed_s"] = wall_s - main.top_s
    return m


# -- the hook self-check --------------------------------------------------------------

_EVAL_BUSY = (
    "llm.generate", "rag.retrieve", "agents.codegen.generate", "agents.sandbox",
    "agents.semantic.analyze", "agents.semantic.refine", "quantum.analysis",
    "execution.service.run", "execution.fingerprint", "execution.cache.get",
)
_NO_LLM = ("llm.generate", "llm.repair", "rag.retrieve", "agents.sandbox",
           "agents.semantic.analyze")

#: Spans each workload must call (busy) and must not call (idle).
PREDICTIONS = {
    "eval-cold": {
        "busy": _EVAL_BUSY + (
            "quantum.transpiler", "execution.cache.put", "execution.disk.put",
            "quantum.simulator.ideal",
        ),
        "idle": ("quantum.batchsim",),
    },
    "eval-warm": {
        "busy": _EVAL_BUSY + ("execution.disk.get",),
        "idle": (
            "quantum.simulator.noisy", "quantum.simulator.ideal",
            "quantum.transpiler", "quantum.statevector.apply_matrix",
            "execution.disk.put", "quantum.batchsim",
        ),
    },
    "dj-qec": {
        "busy": (
            "quantum.transpiler", "execution.service.submit", "execution.job.wait",
            "quantum.simulator.noisy", "quantum.statevector.apply_matrix",
            "agents.qec.apply", "qec.sample", "qec.decode",
        ),
        "idle": _NO_LLM + ("quantum.batchsim",),
    },
    "qec-threshold": {
        "busy": ("execution.service.submit", "execution.job.wait", "qec.sample",
                 "qec.decode"),
        "idle": _NO_LLM + (
            "quantum.simulator.noisy", "quantum.simulator.ideal",
            "quantum.statevector.from_circuit", "quantum.statevector.apply_matrix",
            "quantum.transpiler", "quantum.batchsim",
        ),
    },
}


def self_check(workload: str, span_calls: dict[str, int]) -> list[str]:
    """Predictions the traced run broke; empty when every hook behaved."""
    expected = PREDICTIONS[workload]
    problems = [
        f"{span}: predicted busy on {workload}, recorded 0 calls"
        for span in expected["busy"]
        if not span_calls.get(span)
    ]
    problems += [
        f"{span}: predicted idle on {workload}, recorded {span_calls[span]} calls"
        for span in expected["idle"]
        if span_calls.get(span)
    ]
    return problems
