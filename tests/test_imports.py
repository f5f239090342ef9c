"""Import hygiene: every name a toolkit module imports is used in it, and
every function the benchmark's tracer wraps still exists where it looks.

No linter ships with the toolkit, so this AST walk is the check that keeps
dead imports (and the dead code they point at) from coming back.
"""
import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nonlocality"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    # the walk itself sees plain, dotted, from- and aliased imports
    assert _unused_imports("import os.path\nfrom a.b import c, d as e\nc()\n") == ["e", "os"]
    unused = {
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _unused_imports(path.read_text())
    }
    assert sorted(unused) == []


def test_cli_import_loads_no_process_pool():
    # only game_value_exact(jobs > 1) starts workers, and it imports the pool
    # itself; a fresh interpreter shows what importing the CLI alone loads
    code = "import sys, nonlocality.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr


def test_perfbench_trace_targets_resolve():
    # perfbench --trace 1 wraps each TARGETS entry in place: a module
    # attribute, or a method in its class's own __dict__; an entry a
    # refactor moved or renamed would crash the traced run instead
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for modname, attr, _ in spans.TARGETS:
        mod = importlib.import_module(f"nonlocality.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            found = isinstance(cls, type) and callable(cls.__dict__.get(meth))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{modname}.{attr}")
    assert missing == []
