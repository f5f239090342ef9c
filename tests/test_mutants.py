from pathlib import Path

import pytest

from mutants import MUTANTS

SRC = Path(__file__).resolve().parents[1] / "src" / "nonlocality"


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_fits_the_code_once(mutant):
    # run_mutants.py replaces the one occurrence; a stale entry fails here
    assert (SRC / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    assert all(t.startswith("tests/test_") for t in mutant.tests)
