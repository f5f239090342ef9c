"""Import hygiene: every name a toolkit module imports is used in it.

No linter ships with the toolkit, so this AST walk is the check that keeps
dead imports (and the dead code they point at) from coming back.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nonlocality"


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
