"""Every report and conditional bit count of tests/record_report_digests.py's
grid, recomputed against the recorded fixture.

The perfbench goldens pin seed 0; this pins seed 7 too, three estimators,
every theorem-1/2 strategy, theorem 3's noise rates and the conditional
candidates one by one. A mismatch is a change in what the toolkit computes.
"""
import json

import pytest
from record_report_digests import FIXTURE, compute


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def computed():
    return compute()


def test_the_grid_is_the_recorded_one(recorded, computed):
    assert len(recorded["reports"]) == 102
    assert sorted(computed["reports"]) == sorted(recorded["reports"])
    assert sorted(computed["cond_bits"]) == sorted(recorded["cond_bits"])


@pytest.mark.parametrize("table", ["reports", "cond_bits"])
def test_nothing_moved(recorded, computed, table):
    moved = {
        key: (value, computed[table][key])
        for key, value in recorded[table].items()
        if computed[table].get(key) != value
    }
    assert moved == {}


def test_the_clamp_fires_on_the_corpus(recorded):
    # x = c: the woven difference is below 0, so only the tag bits are left
    assert recorded["cond_bits"]["x_equals_c/ctx_2"] == 2.0
