"""Per-detector tests for the repo-invariant AST lint (tools/repo_lint.py).

The tool is not a package (it lives in tools/, outside ``src``), so it is
loaded via importlib straight from its file path.
"""

import importlib.util
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "repo_lint.py"


def _load():
    spec = importlib.util.spec_from_file_location("repo_lint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


repo_lint = _load()


def lint(source: str, path: str = "src/repro/module.py"):
    return repo_lint.lint_source(Path(path), textwrap.dedent(source))


def codes(source: str, path: str = "src/repro/module.py"):
    return [v.rule for v in lint(source, path)]


class TestR001DirectBackendConstruction:
    @pytest.mark.parametrize(
        "name", ["FakeBrisbane", "LocalSimulator", "FakeFalcon"]
    )
    def test_direct_call_flagged(self, name):
        assert codes(f"backend = {name}()") == ["R001"]

    def test_attribute_call_flagged(self):
        assert codes("b = repro.quantum.FakeBrisbane()") == ["R001"]

    def test_class_reference_allowed(self):
        # The registry pattern: pass the class as a zero-arg factory.
        assert codes("register_backend('local', LocalSimulator)") == []

    def test_string_mention_invisible(self):
        # Backend names inside the synthetic corpus must never fire.
        assert codes("CODE = 'backend = LocalSimulator()'") == []

    def test_registry_file_allowed(self):
        src = "provider.register('x', FakeBrisbane())"
        assert codes(src, "src/repro/quantum/execution/registry.py") == []
        assert codes(src, "quantum/execution/registry.py") == []

    def test_backend_module_allowed(self):
        assert codes("DEFAULT = LocalSimulator()", "src/repro/quantum/backend.py") == []

    def test_noisy_simulator_exempt(self):
        # Parameterized derived backends are legitimate outside the registry.
        assert codes("corrected = NoisySimulator(noise_model=nm)") == []

    def test_violation_points_at_line(self):
        found = lint("x = 1\ny = FakeBrisbane()\n")
        assert [(v.rule, v.line) for v in found] == [("R001", 2)]
        assert "get_backend" in found[0].message


class TestR002StatsDiff:
    def test_before_after_diff_flagged(self):
        src = """
        def measure(service):
            before = service.stats()
            do_work()
            after = service.stats()
            return after["simulations"] - before["simulations"]
        """
        found = lint(src)
        assert [v.rule for v in found] == ["R002"]
        assert "stats_scope" in found[0].message

    def test_single_stats_call_allowed(self):
        src = """
        def report(service):
            return service.stats()["simulations"]
        """
        assert codes(src) == []

    def test_one_call_per_function_allowed(self):
        src = """
        def before(service):
            return service.stats()

        def after(service):
            return service.stats()
        """
        assert codes(src) == []

    def test_async_function_covered(self):
        src = """
        async def measure(service):
            a = service.stats()
            b = service.stats()
            return a, b
        """
        assert codes(src) == ["R002"]

    def test_nested_function_calls_count_toward_outer(self):
        src = """
        def outer(service):
            x = service.stats()
            def inner():
                return service.stats()
            return inner
        """
        # Both the outer scope (sees 2 via ast.walk) and inner-only would be
        # a diff risk; the detector flags the outer function.
        assert "R002" in codes(src)


class TestR003ColumnFoldedMatmul:
    BAD_OPERATOR = """
    def kernel(matrix, states, k, rest):
        return matrix @ states.reshape(2**k, rest)
    """
    BAD_NP_MATMUL = """
    def kernel(matrix, states, k, rest):
        return np.matmul(matrix, states.reshape(2**k, rest))
    """
    GOOD_STACKED = """
    def kernel(matrix, tensor, batch, k):
        stacked = np.ascontiguousarray(tensor).reshape(batch, 2**k, -1)
        return np.matmul(matrix, stacked)
    """

    def test_operator_form_flagged_in_batchsim(self):
        path = "src/repro/quantum/batchsim/state.py"
        assert codes(self.BAD_OPERATOR, path) == ["R003"]

    def test_np_matmul_form_flagged_in_batchsim(self):
        path = "src/repro/quantum/batchsim/state.py"
        assert codes(self.BAD_NP_MATMUL, path) == ["R003"]

    def test_sanctioned_three_d_kernel_allowed(self):
        path = "src/repro/quantum/batchsim/state.py"
        assert codes(self.GOOD_STACKED, path) == []

    @pytest.mark.parametrize("form", ["BAD_OPERATOR", "BAD_NP_MATMUL"])
    def test_column_folded_form_flagged_in_statevector(self, form):
        # The one gate kernel lives in statevector.py and serves stacks too.
        path = "src/repro/quantum/statevector.py"
        assert codes(getattr(self, form), path) == ["R003"]

    def test_outside_kernel_modules_not_flagged(self):
        assert codes(self.BAD_OPERATOR, "src/repro/quantum/simulator.py") == []

    def test_three_arg_reshape_allowed(self):
        src = """
        def kernel(matrix, states, batch, k):
            return np.matmul(matrix, states.reshape(batch, 2**k, -1))
        """
        assert codes(src, "src/repro/quantum/batchsim/state.py") == []


class TestR004DeadPassFunctions:
    """R004 is cross-file (it needs an "outside" to look for references in),
    so these tests drive ``lint_paths`` over a synthetic tree."""

    PASSES = """
    def used_pass(instructions):
        return instructions

    def dead_pass(instructions):
        return instructions

    def _private_helper(instructions):
        return instructions
    """
    CONSUMER_IMPORT = """
    from repro.quantum.transpiler.passes import used_pass
    """
    CONSUMER_ATTRIBUTE = """
    from repro.quantum.transpiler import passes

    def stack(instructions):
        return passes.used_pass(instructions)
    """

    def _tree(self, tmp_path, consumer_source):
        module_dir = tmp_path / "quantum" / "transpiler"
        module_dir.mkdir(parents=True)
        passes = module_dir / "passes.py"
        passes.write_text(textwrap.dedent(self.PASSES))
        consumer = module_dir / "passmanager.py"
        consumer.write_text(textwrap.dedent(consumer_source))
        return tmp_path

    def test_unreferenced_public_pass_flagged(self, tmp_path):
        tree = self._tree(tmp_path, self.CONSUMER_IMPORT)
        found = repo_lint.lint_paths([tree])
        assert [(v.rule) for v in found] == ["R004"]
        assert "dead_pass" in found[0].message
        assert found[0].path.name == "passes.py"

    def test_attribute_reference_counts(self, tmp_path):
        tree = self._tree(tmp_path, self.CONSUMER_ATTRIBUTE)
        found = repo_lint.lint_paths([tree])
        # used_pass is reached via passes.used_pass; dead_pass still dies.
        assert [v.rule for v in found] == ["R004"]
        assert "dead_pass" in found[0].message

    def test_private_helpers_exempt(self, tmp_path):
        module_dir = tmp_path / "quantum" / "transpiler"
        module_dir.mkdir(parents=True)
        (module_dir / "passes.py").write_text(
            "def _only_private(x):\n    return x\n"
        )
        (module_dir / "other.py").write_text("x = 1\n")
        assert repo_lint.lint_paths([tmp_path]) == []

    def test_skipped_when_only_pass_modules_linted(self, tmp_path):
        """Linting the pass file alone has no "outside"; the rule must not
        flag everything in that degenerate run."""
        module_dir = tmp_path / "quantum" / "transpiler"
        module_dir.mkdir(parents=True)
        passes = module_dir / "passes.py"
        passes.write_text(textwrap.dedent(self.PASSES))
        assert repo_lint.lint_paths([passes]) == []

    def test_self_reference_does_not_count(self, tmp_path):
        """A pass calling itself (or a sibling in the same module) is still
        dead to every pass stack outside."""
        module_dir = tmp_path / "quantum" / "transpiler"
        module_dir.mkdir(parents=True)
        (module_dir / "passes.py").write_text(textwrap.dedent("""
        def outer_pass(instructions):
            return inner_pass(instructions)

        def inner_pass(instructions):
            return instructions
        """))
        (module_dir / "other.py").write_text("x = 1\n")
        found = repo_lint.lint_paths([tmp_path])
        assert sorted(v.message.split(":")[1].split("(")[0].strip()
                      for v in found) == ["inner_pass", "outer_pass"]
        assert {v.rule for v in found} == {"R004"}

    def test_wired_tree_is_clean(self, tmp_path):
        tree = self._tree(
            tmp_path,
            """
            from repro.quantum.transpiler.passes import used_pass
            from repro.x import dead_pass
            """,
        )
        # Once something outside imports it, the pass is live.
        assert repo_lint.lint_paths([tree]) == []


class TestR005ParamFloatCoercion:
    def test_subscript_coercion_flagged(self):
        assert codes("v = float(inst.params[0])") == ["R005"]

    def test_loop_variable_coercion_flagged(self):
        assert codes(
            """
            def f(inst):
                for p in inst.params:
                    use(float(p))
            """
        ) == ["R005"]

    def test_comprehension_variable_flagged(self):
        assert codes("vals = [float(p) for p in inst.params]") == ["R005"]

    def test_unrelated_float_allowed(self):
        assert codes("x = float(shots)\ny = float('1.5')") == []

    def test_sanctioned_helper_allowed(self):
        assert codes("vals = as_concrete(inst.params, context=name)") == []

    def test_binding_module_exempt(self):
        assert codes(
            "v = float(inst.params[0])",
            path="src/repro/quantum/parameters.py",
        ) == []


class TestDriver:
    def test_syntax_error_reported_not_raised(self):
        found = lint("def broken(:\n")
        assert [v.rule for v in found] == ["R000"]

    def test_current_source_tree_is_clean(self):
        root = TOOL.parent.parent
        assert repo_lint.lint_paths([root / "src"]) == []

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert repo_lint.main([str(clean)]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text("b = FakeBrisbane()\n")
        assert repo_lint.main([str(dirty)]) == 1
        assert repo_lint.main([str(tmp_path / "missing.py")]) == 2
        out = capsys.readouterr().out
        assert "R001" in out and "no such path" in out

    def test_violation_render_format(self):
        v = repo_lint.Violation(Path("a/b.py"), 7, "R001", "msg")
        assert v.render() == "a/b.py:7: R001 msg"
