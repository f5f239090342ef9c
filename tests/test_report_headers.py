"""The header of every runner's report, field by field, at a small n.

The perfbench goldens pin the bytes of the runs in its cycle; these pin the
headers of the runs they leave out: both theorem-1/2 strategies that are not
the sampler, theorem 3's default eps, and the locality suite's thresholds.
"""
import json

import pytest

from nonlocality.experiments import (
    SeedSet,
    run_locality_suite,
    run_magic_square,
    run_theorem1,
    run_theorem2,
    run_theorem3,
)
from nonlocality.games import LocalDeterministic, SignalingSampler
from nonlocality.strings import Seed

N = 1 << 10
SS = SeedSet.from_master(Seed.from_int(0))
SEEDS = {
    "inputs": "e1d9a33b349d76c029a20fc67eefd6a9b74343f12fdaa2b30e42195a0cc58510",
    "sampler": "41b2bfae37362ca9e63563d882b66b1d2e43ae91962b57dd26a7d604432525e2",
    "noise": "b0df683883328d625bb5970ae93e401944d0c11140242d617f5ebcfbd7234a6a",
}
LOCAL = {"kind": "local_deterministic", "fa": [0, 1], "fb": [1, 0]}
SIGNALING = {"kind": "signaling"}

CASES = {
    "theorem1_local": (
        lambda: run_theorem1(N, "lz77", SS, LocalDeterministic((0, 1), (1, 0))),
        {"game": "pr", "n": N, "strategy": LOCAL},
    ),
    "theorem1_signaling": (
        lambda: run_theorem1(N, "lz77", SS, SignalingSampler()),
        {"game": "pr", "n": N, "strategy": SIGNALING},
    ),
    "theorem2_local": (
        lambda: run_theorem2(N, "lz77", SS, LocalDeterministic((0, 1), (1, 0))),
        {"game": "pr", "n": N, "strategy": LOCAL, "classical_value": "3/4"},
    ),
    "theorem2_signaling": (
        lambda: run_theorem2(N, "lz77", SS, SignalingSampler()),
        {"game": "pr", "n": N, "strategy": SIGNALING, "classical_value": "3/4"},
    ),
    "theorem3_default_eps": (
        lambda: run_theorem3(8, N, None, "lz77", SS),
        {"game": "chained(8)", "m": 8, "n": N, "eps": "1/64", "classical_value": "15/16"},
    ),
    "magic_square": (
        lambda: run_magic_square(N, "lz77", SS),
        {"game": "magic_square", "n": N, "classical_value": "8/9"},
    ),
    "locality_suite": (
        lambda: run_locality_suite("lz77", SS, n=N),
        {"game": "pr", "n": N, "defect_threshold": 0.25, "output_threshold": 0.1},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_header_fields(case):
    run, params = CASES[case]
    header = json.loads(run().jsonl_lines()[0])
    assert header["kind"] == "header"
    assert header["params"] == params
    assert header["seeds"] == SEEDS
    assert header["estimator_id"] == "lz77"
