"""Session checks that hold for the whole test run, and the Hypothesis
profile that tests/run_mutants.py selects."""
from fnmatch import fnmatch
from pathlib import Path

import pytest
from hypothesis import Phase, settings

ROOT = Path(__file__).resolve().parents[1]

# tests/run_mutants.py runs a mutant's tests under this profile: a kill
# needs only the first failure, so nothing is shrunk or explained. A
# test's own @settings inherits its phases (test_hypothesis_settings.py)
settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])


@pytest.fixture(scope="session", autouse=True)
def checkout_root_unchanged():
    """Fail the run if a test leaves a new entry in the checkout's root: a
    test writes under its own temp directory, never beside the sources. The
    caches that the root .gitignore lists (.hypothesis/ and the like) are
    allowed."""
    before = {p.name for p in ROOT.iterdir()}
    yield
    gitignore = ROOT / ".gitignore"
    lines = gitignore.read_text().splitlines() if gitignore.exists() else []
    ignored = [s.strip("/") for s in map(str.strip, lines) if s and not s.startswith("#")]
    added = sorted(
        p.name
        for p in ROOT.iterdir()
        if p.name not in before and not any(fnmatch(p.name, pat) for pat in ignored)
    )
    assert not added, f"the test run left {added} in {ROOT}"
