"""Apply recorded mutants (tests/mutants.py) one at a time and run their tests.

    python3 tests/run_mutants.py [NAME ...]

With no NAME it runs every mutant. Each one is applied to a temporary copy
of src/, tests/, perfbench/, pyproject.toml and .gitignore, never to the
checkout, and only its listed tests run there, under the conftest's
"mutants" Hypothesis profile, which does not shrink a failing example. A
mutant is killed when pytest reports a failed test (exit status 1). The
last line counts the mutants that behaved as recorded: killed, or
surviving if equivalent.
Standard library only, apart from the pytest that runs the tests.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402

COPIED = ("src", "tests", "perfbench", "pyproject.toml", ".gitignore")


def run(mutant) -> bool:
    """Apply mutant in a fresh copy, run its tests, print one line, and
    return whether it behaved as recorded."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in COPIED:
            src, dst = ROOT / name, Path(tmp) / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            elif src.exists():
                shutil.copy2(src, dst)
        path = Path(tmp) / "src" / "nonlocality" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            print(f"{mutant.name}: stale (its old text does not occur once)", flush=True)
            return False
        path.write_text(text.replace(mutant.old, mutant.new))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--hypothesis-profile=mutants", *mutant.tests],
            cwd=tmp, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True, text=True,
        )
    seconds = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, f"error {proc.returncode}")
    expected = "survived" if mutant.equivalent else "killed"
    note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
    print(f"{mutant.name}: {outcome}{note} [{tail[0]}; {seconds:.0f} s]", flush=True)
    return outcome == expected


def main(names) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[n] for n in names] if names else MUTANTS
    ok = sum(run(m) for m in chosen)
    print(f"{ok} of {len(chosen)} as recorded")
    return 0 if ok == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
