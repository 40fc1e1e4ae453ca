"""Regenerate the committed reference outputs in ``perfbench/refs/``.

Usage (from the repository root)::

    python3 perfbench/make_refs.py [workload ...]

Runs each workload once per shipped seed, in a fresh process exactly as
``run.py`` does (``eval-warm`` on an empty cache, which must give what its
warm calls give), and writes ``refs/<workload>.json``.  Only regenerate after
a change that is meant to alter results, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import REFS, TMP, spawn, values_of
from workloads import WORKLOADS

#: Seeds with committed references: 0-31, plus Figure 3's default base seed
#: 1234 (Figure 4's default 9 is among them).  eval-cold evaluates one base
#: seed whatever its ``--seed``.
SEEDS = {
    "eval-cold": [1234],
    "eval-warm": list(range(32)) + [1234],
    "dj-qec": list(range(32)),
    "qec-threshold": list(range(32)),
}


def main(argv: list[str]) -> int:
    tmp = TMP / f"refs-{os.getpid()}"
    try:
        for workload in argv or SEEDS:
            seeds = SEEDS[workload]
            found = {}
            for seed in seeds:
                record = spawn(workload, seed, tmp / f"cache-{workload}-{seed}",
                               tmp / "out.json", 0)
                if "error" in record:
                    print(f"{workload} seed {seed}: {record['error']}", file=sys.stderr)
                    return 1
                found[seed] = values_of(record["outputs"])
                print(f"{workload} seed {seed}: {len(found[seed])} outputs")
            ops = sorted(found[seeds[0]])
            if any(sorted(values) != ops for values in found.values()):
                print(f"{workload}: seeds produced different operations", file=sys.stderr)
                return 1
            REFS.mkdir(exist_ok=True)
            with open(REFS / f"{workload}.json", "w", encoding="utf-8") as handle:
                handle.write('{"sizes": %s,\n"ops": %s,\n"seeds": {\n' % (
                    json.dumps(WORKLOADS[workload]().sizes), json.dumps(ops)))
                handle.write(",\n".join(
                    f'"{seed}": {json.dumps([found[seed][op] for op in ops], separators=(",", ":"))}'
                    for seed in seeds
                ))
                handle.write("\n}}\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
