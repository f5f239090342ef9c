"""The toolkit on the oldest Python that pyproject.toml allows (3.10).

Each of the benchmark's three workloads runs one cycle at seed 0 under a
Python 3.10 interpreter, and every operation's output must match
perfbench/goldens.json. src/ and perfbench/ are copied to a temporary
directory first, so the run writes nothing in the checkout. Without a
working 3.10 interpreter the tests skip and say where they looked.
"""
import glob
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)
WORKLOADS = ("codec", "experiments", "oracles")


def _reports(exe: str, version: tuple) -> bool:
    """Whether exe runs and is that version of Python."""
    probe = "import sys; print(*sys.version_info[:2])"
    try:
        done = subprocess.run([exe, "-c", probe], capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return False
    return done.returncode == 0 and done.stdout.split() == list(map(str, version))


@pytest.fixture(scope="module")
def oldest_python():
    # a pyenv shim named python3.10 can sit on PATH without running, so the
    # pyenv builds come first and each candidate must report its version
    version = "%d.%d" % OLDEST
    pyenv = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    pattern = os.path.join(pyenv, "versions", f"{version}*", "bin", "python3")
    name = f"python{version}"
    candidates = [*sorted(glob.glob(pattern)), *filter(None, [shutil.which(name)])]
    for exe in candidates:
        if _reports(exe, OLDEST):
            return exe
    pytest.skip(f"no Python {version}: none at {pattern}, no working {name} on PATH")


@pytest.fixture(scope="module")
def checkout_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns("__pycache__"))
    return root


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_outputs_on_the_oldest_python(oldest_python, checkout_copy, workload):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [oldest_python, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "1"]
    done = subprocess.run(argv, cwd=checkout_copy, env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stderr
    assert result["attempted"] > 0
