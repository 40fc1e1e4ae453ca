#!/usr/bin/env python3
"""Repo-invariant AST lint: structural rules ruff/grep cannot express.

Each rule guards an invariant this codebase has been burned by before.  The
checks walk Python ASTs (never raw text), so backend names inside string
literals — the synthetic LLM corpus, RAG docs, prompt templates — are
invisible and never false-positive.

Rules
-----
R001  Direct ``FakeBrisbane()`` / ``LocalSimulator()`` / ``FakeFalcon()``
      construction outside the backend registry.  (``NoisySimulator`` is
      exempt: it is parameterized by a noise model, so derived instances —
      e.g. the QEC agent's noise-scaled backend — are legitimate.)
      Call sites must go through ``repro.quantum.execution.get_backend`` so
      every consumer shares one memoised instance per name and the execution
      result cache stays maximally effective.  Allowed only in
      ``quantum/backend.py`` (the definitions) and
      ``quantum/execution/registry.py`` (the factories).

R002  Two or more ``.stats()`` calls inside one function: the
      before/after-diff pattern.  Global-counter diffs race under
      concurrency; use ``stats_scope()`` from
      ``repro.quantum.execution`` for attribution instead.

R003  Column-folded batch kernel: ``matrix @ x.reshape(a, b)`` (or
      ``np.matmul`` with a direct 2-argument ``.reshape`` second operand)
      under ``batchsim/`` or in ``statevector.py``, where the one gate
      kernel lives.  Folding the batch into the GEMM's column dimension
      changes the BLAS kernel and breaks bit-identity between a batched row
      and its flat twin (see ``statevector.apply_matrix``); the sanctioned
      kernel stacks to 3-D and lets matmul broadcast.

R004  Dead transpiler pass: a public function in a pass-library module
      (``transpiler/passes.py``) referenced nowhere outside its own module.
      A pass nothing imports is silently skipped by every pass stack
      (``drop_barriers`` sat unused this way); wire it into the PassManager,
      export it, or delete it.  Cross-file by nature, so it runs from
      ``lint_paths`` over the whole linted tree, not per file — and only
      when the tree contains files beyond the pass modules themselves.

R005  Direct ``float()`` coercion of a gate parameter outside the binding
      module: ``float(inst.params[i])``, or ``float(p)`` where ``p`` loops
      over a ``.params`` sequence.  Since symbolic parameters landed, a gate
      param may be a ``Parameter``/``ParameterExpression`` whose ``__float__``
      raises [QA105] at runtime — ad-hoc coercion turns an unbound template
      into a crash deep inside a kernel instead of a pre-flight diagnostic.
      Route through ``repro.quantum.parameters`` (``as_concrete`` /
      ``bind_parameter`` / ``circuit.bind``) so symbolic values are either
      bound or rejected with the coded error.  Allowed only in
      ``quantum/parameters.py`` (the sanctioned coercions live there).

Usage::

    python tools/repo_lint.py [paths...]   # default: src/

Exit status 1 if any violation is found, 0 otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Backend classes that must be built by the registry, not call sites.
REGISTRY_ONLY = {"FakeBrisbane", "LocalSimulator", "FakeFalcon"}

#: Files (by trailing path parts) where direct construction is the point.
R001_ALLOWED = (
    ("quantum", "execution", "registry.py"),
    ("quantum", "backend.py"),
)

#: R003 only applies to paths with one of these directory or file names.
R003_DIRS = {"batchsim", "statevector.py"}

#: Pass-library modules (by trailing path parts) whose public functions R004
#: requires to be referenced somewhere outside their own module.
R004_PASS_MODULES = (("transpiler", "passes.py"),)

#: The one module allowed to coerce gate params with float() (R005).
R005_ALLOWED = (("quantum", "parameters.py"),)


class Violation:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path: Path, line: int, rule: str, message: str) -> None:
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _terminal_name(node: ast.expr) -> str | None:
    """The trailing identifier of a Name/Attribute chain (``a.b.C`` -> ``C``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_allowed_r001(path: Path) -> bool:
    parts = path.parts
    return any(parts[-len(suffix):] == suffix for suffix in R001_ALLOWED)


def _check_direct_backend_calls(path: Path, tree: ast.AST) -> list[Violation]:
    """R001: backend classes constructed outside the registry."""
    if _is_allowed_r001(path):
        return []
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            if name in REGISTRY_ONLY:
                found.append(
                    Violation(
                        path, node.lineno, "R001",
                        f"direct {name}() construction; use "
                        "repro.quantum.execution.get_backend(...) so the "
                        "instance is shared and cache-friendly",
                    )
                )
    return found


def _check_stats_diffs(path: Path, tree: ast.AST) -> list[Violation]:
    """R002: >=2 ``.stats()`` calls in one function (before/after diffing)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = [
            sub
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "stats"
        ]
        if len(calls) >= 2:
            lines = ", ".join(str(c.lineno) for c in calls)
            found.append(
                Violation(
                    path, calls[1].lineno, "R002",
                    f"{len(calls)} .stats() calls in {node.name}() "
                    f"(lines {lines}): global-counter diffs race under "
                    "concurrency; use stats_scope() for attribution",
                )
            )
    return found


def _is_two_arg_reshape(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "reshape"
        and len(node.args) == 2
        and not node.keywords
    )


def _check_column_folded_matmul(path: Path, tree: ast.AST) -> list[Violation]:
    """R003: ``matrix @ x.reshape(a, b)`` in the gate kernel's modules."""
    if not R003_DIRS.intersection(path.parts):
        return []
    found = []
    message = (
        "column-folded batch matmul (operand is a 2-arg .reshape): this "
        "widens the GEMM, changes the BLAS kernel, and breaks bit-identity "
        "with the serial simulator; stack to (batch, 2**k, rest) instead"
    )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.MatMult)
            and _is_two_arg_reshape(node.right)
        ):
            found.append(Violation(path, node.lineno, "R003", message))
        elif (
            isinstance(node, ast.Call)
            and _terminal_name(node.func) == "matmul"
            and len(node.args) >= 2
            and _is_two_arg_reshape(node.args[1])
        ):
            found.append(Violation(path, node.lineno, "R003", message))
    return found


def _is_pass_module(path: Path) -> bool:
    parts = path.parts
    return any(
        parts[-len(suffix):] == suffix for suffix in R004_PASS_MODULES
    )


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every identifier a module mentions: names, attributes, imports."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _check_dead_pass_functions(
    parsed: dict[Path, ast.AST]
) -> list[Violation]:
    """R004: public pass functions referenced nowhere outside their module.

    Cross-file: needs the whole linted tree.  Skipped when only pass modules
    were linted (there is no "outside" to reference them from).
    """
    pass_files = {f: t for f, t in parsed.items() if _is_pass_module(f)}
    if not pass_files or len(pass_files) == len(parsed):
        return []
    external: set[str] = set()
    for file, tree in parsed.items():
        if file not in pass_files:
            external |= _referenced_names(tree)
    found = []
    for file, tree in sorted(pass_files.items()):
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")
                and node.name not in external
            ):
                found.append(
                    Violation(
                        file, node.lineno, "R004",
                        f"dead transpiler pass: {node.name}() is public but "
                        "referenced nowhere outside this module, so no pass "
                        "stack can be running it; wire it into the "
                        "PassManager, export it, or delete it",
                    )
                )
    return found


def _is_params_attribute(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "params"


def _check_param_float_coercion(path: Path, tree: ast.AST) -> list[Violation]:
    """R005: ``float()`` applied to gate params outside the binding module."""
    if any(
        path.parts[-len(suffix):] == suffix for suffix in R005_ALLOWED
    ):
        return []
    # Names bound by ``for p in <expr>.params`` anywhere in the module; loop
    # variables are function-local in practice, so module-level collection
    # only widens the net (no false negatives, and a same-named variable
    # holding params elsewhere is exactly what the rule should catch).
    param_loop_names: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.For, ast.comprehension))
            and _is_params_attribute(node.iter)
            and isinstance(node.target, ast.Name)
        ):
            param_loop_names.add(node.target.id)
    found = []
    message = (
        "float() coercion of a gate parameter: symbolic "
        "Parameter/ParameterExpression values raise [QA105] here at "
        "runtime; use repro.quantum.parameters.as_concrete (or bind the "
        "circuit) so unbound templates fail with the coded diagnostic"
    )
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and len(node.args) == 1
            and not node.keywords
        ):
            continue
        arg = node.args[0]
        direct = (
            isinstance(arg, ast.Subscript)
            and _is_params_attribute(arg.value)
        ) or _is_params_attribute(arg)
        via_loop = isinstance(arg, ast.Name) and arg.id in param_loop_names
        if direct or via_loop:
            found.append(Violation(path, node.lineno, "R005", message))
    return found


CHECKS = (
    _check_direct_backend_calls,
    _check_stats_diffs,
    _check_column_folded_matmul,
    _check_param_float_coercion,
)


def lint_source(path: Path, source: str) -> list[Violation]:
    """All violations in one file's source text."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 0, "R000", f"syntax error: {exc.msg}")]
    violations = []
    for check in CHECKS:
        violations.extend(check(path, tree))
    violations.sort(key=lambda v: (v.line, v.rule))
    return violations


def lint_paths(paths: list[Path]) -> list[Violation]:
    """Lint every ``.py`` file under the given files/directories."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    violations = []
    parsed: dict[Path, ast.AST] = {}
    for file in files:
        source = file.read_text()
        violations.extend(lint_source(file, source))
        try:
            parsed[file] = ast.parse(source, filename=str(file))
        except SyntaxError:
            continue  # already reported as R000 by lint_source
    violations.extend(_check_dead_pass_functions(parsed))
    return violations


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    roots = [Path(a) for a in args] or [Path("src")]
    missing = [r for r in roots if not r.exists()]
    if missing:
        print(f"repo_lint: no such path: {', '.join(map(str, missing))}")
        return 2
    violations = lint_paths(roots)
    for violation in violations:
        print(violation.render())
    checked = sum(
        len(list(r.rglob("*.py"))) if r.is_dir() else 1 for r in roots
    )
    status = "FAIL" if violations else "ok"
    print(
        f"repo_lint: {checked} file(s), {len(violations)} violation(s) [{status}]"
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
