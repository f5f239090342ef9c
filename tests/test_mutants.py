import ast
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nonlocality"


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_fits_the_code_once(mutant):
    # run_mutants.py replaces the one occurrence; a stale entry fails here
    assert (SRC / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    assert all(t.startswith("tests/test_") for t in mutant.tests)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_listed_test_is_defined(mutant):
    # a renamed or deleted test fails here, not only as pytest's usage
    # error in run_mutants.py; a [param] suffix is pytest's, not the name's
    for node in mutant.tests:
        path, _, name = node.partition("::")
        assert (ROOT / path).is_file(), node
        if name:
            tree = ast.parse((ROOT / path).read_text())
            defined = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
            assert name.split("[")[0] in defined, node
