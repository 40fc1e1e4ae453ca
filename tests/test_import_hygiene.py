"""What a local run imports: no networkx, and no serving tier.

Every ``repro eval``, paper driver and fleet worker is a fresh process, so
module imports are paid on every run.  networkx is a test-only oracle
(``tests/test_graph.py``, ``tests/qec/test_blossom.py``), and the HTTP
serving tier loads only when a remote cache or the fleet is used.  Each check
runs in a fresh interpreter, since this test process has imported everything.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(script: str) -> str:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_local_run_imports_no_networkx_and_no_serving_tier():
    out = run_python("""
        import sys
        import repro.evalsuite.runner
        import repro.experiments.figure3
        import repro.experiments.figure4
        import repro.qec.experiments

        heavy = ("networkx", "http.server", "urllib.request", "ssl")
        print(sorted(name for name in heavy if name in sys.modules))
    """)
    assert out.strip() == "[]"


def test_paper_paths_run_with_networkx_blocked():
    out = run_python("""
        import sys
        sys.modules["networkx"] = None  # any import of it now raises

        from repro.experiments import figure4
        from repro.qec.codes import SurfaceCode
        from repro.qec.experiments import threshold_sweep
        from repro.quantum.execution import get_backend
        from repro.quantum.library import qft
        from repro.quantum.transpiler import transpile

        experiment = figure4.run(shots=256)
        sweep = threshold_sweep(SurfaceCode, [3, 5], [0.02, 0.08], shots=40, seed=1)
        backend = get_backend("brisbane")
        routed = transpile(qft(5), backend, optimization_level=1)
        uncoupled = [
            inst.qubits for inst in routed
            if len(inst.qubits) == 2
            and not backend.coupling_map.are_coupled(*inst.qubits)
        ]
        print(len(experiment.rows) > 0, sorted(sweep), len(routed.data) > 0, uncoupled)
    """)
    assert out.strip() == "True [3, 5] True []"


def test_every_execution_export_resolves():
    out = run_python("""
        import sys
        import repro.quantum.execution as execution

        assert "http.server" not in sys.modules
        missing = [name for name in execution.__all__ if not hasattr(execution, name)]
        print(missing, "http.server" in sys.modules)
    """)
    assert out.strip() == "[] True"
