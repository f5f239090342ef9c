"""Every Hypothesis property draws the same examples on every run, and the
profile that tests/run_mutants.py selects reaches a test's own settings.

Without `derandomize=True` a property draws new examples each run (a fresh
checkout has no example database), so whether it kills a given mutant is
left to chance. This AST scan of tests/ fails on a `@given` test whose
`@settings` does not pass `derandomize=True`.
"""
import ast
import subprocess
import sys
from pathlib import Path

from hypothesis import Phase, settings

TESTS = Path(__file__).resolve().parent


def _called(decorator: ast.expr, name: str) -> bool:
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (isinstance(func, ast.Name) and func.id == name) or (
        isinstance(func, ast.Attribute) and func.attr == name
    )


def _derandomized(decorator: ast.expr) -> bool:
    return isinstance(decorator, ast.Call) and any(
        kw.arg == "derandomize" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in decorator.keywords
    )


def unseeded_properties(source: str) -> list[str]:
    """The `@given` functions of source without `@settings(...,
    derandomize=True)`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorators = node.decorator_list
            if any(_called(d, "given") for d in decorators) and not any(
                _called(d, "settings") and _derandomized(d) for d in decorators
            ):
                found.append(node.name)
    return found


def test_every_property_is_derandomized():
    # the scan itself: a bare @given, settings without the flag, with it off
    # and with it on
    probe = """
@given(st.integers())
def a(x): pass

@given(st.integers())
@settings(max_examples=5)
def b(x): pass

@settings(derandomize=False)
@hypothesis.given(st.integers())
def c(x): pass

@given(st.integers())
@hypothesis.settings(max_examples=5, derandomize=True)
def d(x): pass
"""
    assert unseeded_properties(probe) == ["a", "b", "c"]
    unseeded = {
        f"{path.name}:{name}"
        for path in sorted(TESTS.glob("*.py"))
        for name in unseeded_properties(path.read_text())
    }
    assert not unseeded, sorted(unseeded)


# a test's own settings, made when its module is imported, as an
# @settings(...) decorator's are
OWN = settings(max_examples=5, derandomize=True)


def test_own_settings_take_the_loaded_profiles_phases():
    print("phases:", ",".join(phase.name for phase in OWN.phases))
    assert OWN.phases == settings.default.phases


def test_the_mutants_profile_reaches_a_tests_own_settings(tmp_path):
    # run_mutants.py loads the conftest's "mutants" profile by pytest's
    # option: the test above, run under it, must see no shrink phase
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants",
         f"{__file__}::test_own_settings_take_the_loaded_profiles_phases"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "phases: explicit,reuse,generate\n" in proc.stdout
    assert Phase.shrink in OWN.phases  # tier-1 runs the default profile
