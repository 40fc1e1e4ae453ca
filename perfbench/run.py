"""Repository benchmark: time the paper pipeline end to end, or trace it.

Usage (from the repository root)::

    python3 perfbench/run.py --workload eval-cold --seed 1234 --seconds 20 --trace 0

Each measured call runs in a fresh process (``child.py``) with every
``REPRO_*`` variable removed and fresh cache directories under
``.perfbench-tmp/``.  Calls repeat, one client in a closed loop, until
``--seconds`` have passed; the end-to-end metrics are medians over them,
with times rescaled to a reference CPU speed (``child.SpeedProbe``).
``--trace 1`` then makes one more call with every layer wrapped
(``spans.py``) and reports the per-layer metrics instead.

Every call's outputs are checked against the committed reference for the
seed (``refs/``) when there is one, and against the run's first call (for
``eval-warm``, its untimed priming run) always.  The last line of standard
output is the JSON result; the line before it is the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench-tmp"
REFS = HERE / "refs"
END_TO_END = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
#: The clock readings behind the rescaled times, kept in the metadata.
RAW_TIMES = ("raw_setup_s", "raw_wall_s", "raw_cpu_s")
#: A single call that takes longer than this is killed and counted as failed.
CALL_TIMEOUT_S = 45


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(workload: str, seed: int, cache_dir: Path, out: Path, trace: int) -> dict:
    """One fresh process running one workload call; returns its record."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "child.py"),
                "--workload", workload, "--seed", str(seed),
                "--cache-dir", str(cache_dir), "--out", str(out),
                "--spawned", repr(spawned), "--trace", str(trace),
            ],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CALL_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"call exceeded {CALL_TIMEOUT_S} s and was killed"}
    try:
        with open(out, encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError):
        record = {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    out.unlink(missing_ok=True)
    return record


def load_reference(workload: str, seed: int) -> dict | None:
    """The committed outputs of ``workload`` at ``seed``, or ``None`` when
    none ship.  A file holds the operation ids once and, per seed, the
    values in the same order."""
    path = REFS / f"{workload}.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as handle:
        refs = json.load(handle)
    if refs["sizes"] != json.loads(json.dumps(WORKLOADS[workload]().sizes)):
        raise RuntimeError(
            f"{path} was made at other workload sizes; regenerate it with "
            "perfbench/make_refs.py"
        )
    values = refs["seeds"].get(str(seed))
    return None if values is None else dict(zip(refs["ops"], values))


def differing(outputs: dict, expectations: list[dict]) -> list[str]:
    """Operations whose output is missing or differs from an expectation."""
    ops = set(outputs).union(*expectations)
    return sorted(
        op for op in ops
        if op not in outputs
        or any(exp.get(op) != outputs[op][0] for exp in expectations)
    )


def values_of(outputs: dict) -> dict:
    return {op: value for op, (value, _weight) in outputs.items()}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def unit_of(metric: str) -> str:
    if metric.endswith("_frac"):
        return "frac"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("ms_p50", "ms_p99")):
        return "ms"
    if metric.endswith("us_per_call"):
        return "us"
    if metric.endswith(("bytes", "bytes_computed")):
        return "B"
    return "count"


def measure(args: argparse.Namespace, tmp: Path) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]()
    operations = workload.operations
    reference = load_reference(args.workload, workload.input_seed(args.seed))
    expectations = [reference] if reference is not None else []
    warm = args.workload == "eval-warm"
    shared_cache = tmp / "cache"
    errors: list[str] = []
    if warm:
        # Untimed, uncounted: fills the disk cache the timed calls read.
        prime = spawn(args.workload, args.seed, shared_cache, tmp / "prime.json", 0)
        if "error" in prime:
            errors.append("priming run: " + prime["error"])
        else:
            expectations.append(values_of(prime["outputs"]))

    calls: list[dict] = []
    attempted = failed = 0

    def call(trace: int) -> dict:
        nonlocal attempted, failed
        index = attempted // operations
        cache = shared_cache if warm else tmp / f"cache-{index}"
        record = spawn(args.workload, args.seed, cache, tmp / f"call-{index}.json", trace)
        if not warm:
            shutil.rmtree(cache, ignore_errors=True)
        attempted += operations
        if "error" in record:
            errors.append(record["error"])
            failed += operations
            return record
        if not expectations:
            expectations.append(values_of(record["outputs"]))
        bad = differing(record["outputs"], expectations)
        if bad:
            errors.append(f"call {index}: {len(bad)} outputs differ, e.g. {bad[:3]}")
        passed = sum(w for op, (_v, w) in record["outputs"].items() if op not in bad)
        if warm and any(
            s["simulations"] or s["transpiles"] for s in record["service_stats"]
        ):
            errors.append(f"call {index}: a warm call simulated or transpiled")
            passed = 0
        failed += operations - min(passed, operations)
        calls.append(record)
        return record

    start = time.monotonic()
    while True:
        call(0)
        if time.monotonic() - start >= args.seconds:
            break
    if not calls:
        raise RuntimeError("no call succeeded:\n" + "\n".join(errors))
    medians = {m: statistics.median(c[m] for c in calls) for m in END_TO_END}

    timed = len(calls)
    if args.trace:
        traced = call(1)
        if "error" in traced:
            raise RuntimeError("traced call failed:\n" + traced["error"])
        problems = spans.self_check(args.workload, traced["span_calls"])
        if problems:
            raise RuntimeError("hook self-check failed:\n" + "\n".join(problems))
        metrics = dict(traced["layers"])
        # The traced call is not probed: compare clock readings.
        metrics["tracing_overhead_s"] = traced["wall_s"] - statistics.median(
            c["raw_wall_s"] for c in calls[:timed]
        )
        if metrics["unattributed_s"] > metrics["traced_wall_s"] / 5:
            print("perfbench: more than a fifth of the calling thread's wall "
                  "time is outside every layer span", file=sys.stderr)
        result_metrics = {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()}
    else:
        result_metrics = {
            m: {"value": medians[m], "unit": UNITS[m]} for m in END_TO_END
        }

    last = calls[-1]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calls": len(calls),
        "reference": reference is not None,
        "failed_frac": failed / attempted,
        "errors": errors,
        "per_call": {
            m: [c[m] for c in calls[:timed]]
            for m in (*END_TO_END, *RAW_TIMES, "probes", "probes_counted_frac")
        },
        "input_seed": workload.input_seed(args.seed),
        "sizes": workload.sizes,
        "cpu_count": os.cpu_count(),
        "python": last.get("python"),
        "numpy": last.get("numpy"),
        "git_sha": git_sha(),
        "service_stats": last.get("service_stats"),
    }
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    return result, meta


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    tmp = TMP / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    try:
        result, meta = measure(args, tmp)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still uses it
    meta["loadavg_before"] = load_before
    meta["loadavg_after"] = os.getloadavg()
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
