"""The four benchmark workloads, each one call into the paper pipeline.

A workload has a size (``sizes``, recorded with every result and every
reference file) and an operation count (``operations``).
``input_seed(seed)`` names the seed its inputs are made from.
``prepare(seed, cache_dir)`` is untimed set-up that belongs to the process,
such as installing the default execution service.  ``call()`` is the timed
call.  ``outputs(result)`` turns what the call returned into ``{operation
id: (checked value, weight)}``.  The weight is how many operations the
entry stands for: an evaluation task carries all of its samples, so a wrong
task counts each of its episodes as failed.  ``services()`` are the
execution services whose ``stats()`` counters go with the result.

Every workload uses only the program's public entry points and defaults —
no executor, worker or cache-limit knobs — so a later change that removes
such a knob is measured by the same definitions.
"""

from __future__ import annotations

#: Episodes per (arm, task) of one evaluation; the paper default is 6.
EVAL_SAMPLES_PER_TASK = 2
#: eval-cold always evaluates Figure 3's own base seed.  A cold evaluation's
#: cost is lumpy in its base seed: two teleportation tasks hold most of the
#: simulation time, and which distinct candidate circuits their episodes
#: produce (each simulated once per cache) depends on the seed, so over ten
#: seeds the run time spreads by a third — more than any bound allows, and
#: more than a run within the time budget can average out.
EVAL_COLD_BASE_SEED = 1234
#: Figure 3 arms and the size of the task suite.
EVAL_ARMS = 6
EVAL_TASKS = 34
#: Shots of each of Figure 4's two noisy-trajectory jobs (paper default 4096).
DJ_SHOTS = 2048
#: Surface-code threshold sweep: distances, physical rates spanning the
#: phenomenological threshold (~3%), and shots per (distance, rate) point.
QEC_DISTANCES = (3, 5, 7)
QEC_RATES = (0.02, 0.03, 0.04)
QEC_SHOTS = 60


class EvalWorkload:
    """The six Figure 3 arms over the 34-task suite, serially (``workers=1``),
    on a default service backed by ``cache_dir``: empty for ``eval-cold``,
    filled by an untimed priming run for ``eval-warm``."""

    operations = EVAL_ARMS * EVAL_TASKS * EVAL_SAMPLES_PER_TASK
    sizes = {"samples_per_task": EVAL_SAMPLES_PER_TASK}

    def __init__(self, base_seed: int | None = None) -> None:
        self.base_seed = base_seed

    def input_seed(self, seed: int) -> int:
        return seed if self.base_seed is None else self.base_seed

    def prepare(self, seed: int, cache_dir: str) -> None:
        from repro.evalsuite.suite import build_suite
        from repro.experiments import figure3
        from repro.quantum.execution import ExecutionService, set_default_service

        self.service = ExecutionService(cache_dir=cache_dir)
        set_default_service(self.service)
        self.arms = figure3.arms(EVAL_SAMPLES_PER_TASK, self.input_seed(seed))
        self.tasks = build_suite()

    def call(self):
        from repro.evalsuite.runner import evaluate_many

        return evaluate_many(self.arms, self.tasks, workers=1)

    def outputs(self, results) -> dict[str, tuple[object, int]]:
        out = {}
        for result in results:
            for o in result.outcomes:
                value = [
                    o.syntactic_successes,
                    o.full_successes,
                    o.static_errors,
                    list(o.passes_used),
                ]
                out[f"{result.label}/{o.case_id}"] = (value, o.samples)
        return out

    def services(self) -> list:
        return [self.service]


class DJQECWorkload:
    """Figure 4: the DJ circuit on FakeBrisbane, two async noisy jobs plus
    the QEC agent, on the default service."""

    #: Figure 4's table rows.
    operations = 4
    sizes = {"shots": DJ_SHOTS}

    def input_seed(self, seed: int) -> int:
        return seed

    def prepare(self, seed: int, cache_dir: str) -> None:
        from repro.experiments import figure4
        from repro.quantum.execution import default_service

        self.seed = seed
        self.run = figure4.run
        self.service = default_service()

    def call(self):
        return self.run(shots=DJ_SHOTS, seed=self.seed)

    def outputs(self, experiment) -> dict[str, tuple[object, int]]:
        return {row.name: (row.measured_value, 1) for row in experiment.rows}

    def services(self) -> list:
        return [self.service]


class ThresholdWorkload:
    """A surface-code threshold sweep on the ``qec_memory`` backend."""

    operations = len(QEC_DISTANCES) * len(QEC_RATES)
    sizes = {"distances": QEC_DISTANCES, "rates": QEC_RATES, "shots": QEC_SHOTS}

    def input_seed(self, seed: int) -> int:
        return seed

    def prepare(self, seed: int, cache_dir: str) -> None:
        from repro.qec.codes import SurfaceCode
        from repro.qec.experiments import threshold_sweep
        from repro.quantum.execution import ExecutionService

        self.seed = seed
        self.code = SurfaceCode
        self.sweep = threshold_sweep
        self.service_class = ExecutionService
        self.service = None

    def call(self):
        self.service = self.service_class()
        return self.sweep(
            self.code,
            list(QEC_DISTANCES),
            list(QEC_RATES),
            shots=QEC_SHOTS,
            seed=self.seed,
            service=self.service,
        )

    def outputs(self, sweep) -> dict[str, tuple[object, int]]:
        return {
            f"d={distance}/p={p}": (rate, 1)
            for distance, series in sweep.items()
            for p, rate in series
        }

    def services(self) -> list:
        return [self.service] if self.service is not None else []


WORKLOADS = {
    "eval-cold": lambda: EvalWorkload(EVAL_COLD_BASE_SEED),
    "eval-warm": EvalWorkload,
    "dj-qec": DJQECWorkload,
    "qec-threshold": ThresholdWorkload,
}
