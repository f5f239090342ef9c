"""Session checks that hold for the whole test run."""
from fnmatch import fnmatch
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
