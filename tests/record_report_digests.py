"""The fixed point beyond seed 0, as data.

Two tables:
  * reports: the SHA-256 of each runner's JSONL and CSV report on a grid of
    seeds 0 and 7, n = 2^11 and the estimators lz77, ctx_2 and lz78:
    theorems 1 and 2 with a local, a signaling and a no-signaling strategy;
    theorem 3 at m = 3, 5 and 8 with eps None, 1/20 and 0; the magic
    square; and the locality suite (102 reports);
  * cond_bits: the bits of estimate_k_cond for every built-in estimator on
    a small corpus of conditions (random, aligned, woven, AND-woven and
    x = c, the case where the max(0, .) clamp fires).

    PYTHONPATH=src python tests/record_report_digests.py

writes tests/fixtures/report_digests.json and refuses to overwrite it.
tests/test_report_digests.py recomputes both tables and compares. A digest
that moves is a change in what the toolkit computes, to be explained; it
is never a reason to re-record.
"""
from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from nonlocality.complexity import estimate_k_cond
from nonlocality.estimators import default_registry
from nonlocality.experiments import (
    SeedSet,
    run_locality_suite,
    run_magic_square,
    run_theorem1,
    run_theorem2,
    run_theorem3,
)
from nonlocality.games import LocalDeterministic, NoSignalingSampler, SignalingSampler
from nonlocality.strings import Seed, SymbolString, gen_seeded_random

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "report_digests.json"

N = 1 << 11
SEEDS = (0, 7)
ESTIMATORS = ("lz77", "ctx_2", "lz78")
STRATEGIES = {
    "local": LocalDeterministic((0, 1), (1, 0)),
    "signaling": SignalingSampler(),
    "sampler": NoSignalingSampler(),
}
RING_SIZES = (3, 5, 8)
NOISE = {"default": None, "1/20": Fraction(1, 20), "0": Fraction(0)}


def _runs(seed_set: SeedSet, est: str):
    """(name, thunk) of each report of one seed and estimator."""
    for name, strategy in STRATEGIES.items():
        yield f"theorem1/{name}", lambda s=strategy: run_theorem1(N, est, seed_set, s)
        yield f"theorem2/{name}", lambda s=strategy: run_theorem2(N, est, seed_set, s)
    for m in RING_SIZES:
        for label, eps in NOISE.items():
            yield f"theorem3/m{m}/eps{label}", lambda m=m, e=eps: run_theorem3(m, N, e, est, seed_set)
    yield "magic_square", lambda: run_magic_square(N, est, seed_set)
    yield "locality_suite", lambda: run_locality_suite(est, seed_set, n=N)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digests() -> dict:
    digests = {}
    for seed in SEEDS:
        seed_set = SeedSet.from_master(Seed.from_int(seed))
        for est in ESTIMATORS:
            for name, run in _runs(seed_set, est):
                report = run()
                digests[f"seed{seed}/{est}/{name}"] = {
                    "jsonl": _sha(report.to_jsonl()),
                    "csv": _sha(report.to_csv()),
                }
    return digests


def _corpus() -> dict:
    """(subject, condition) pairs that reach each candidate of estimate_k_cond."""
    seed = Seed.from_int(17)

    def rand(label, n, q=2):
        return gen_seeded_random(n, q, seed.derive(label))

    x = rand("x", 1000)
    x_and = SymbolString(2, bytes(v & u for v, u in zip(x.data, b"\0" + x.data)))
    x3 = rand("x3", 1000, 3)
    return {
        # no condition divides the subject's length: separate and concat only
        "random": (x, rand("c", 600)),
        "aligned": (x, rand("c_aligned", 1000)),
        "woven_two_conditions": (x, [rand("a", 1000), rand("b", 1000)]),
        "woven_ratio_2": (rand("x_half", 500), rand("c_double", 1000)),
        "aligned_and_not": (x, [rand("c_aligned", 1000), rand("c", 600)]),
        # c_i = x_i AND x_(i-1): the woven candidate undercuts a decodable one
        "and_woven": (x, x_and),
        # the woven difference is negative, so the clamp sets it to 0
        "x_equals_c": (x3, x3),
        "empty_condition": (x, SymbolString(2, b"")),
    }


def cond_bits() -> dict:
    bits = {}
    for case, (x, cond) in _corpus().items():
        for est in default_registry():
            bits[f"{case}/{est}"] = estimate_k_cond(x, cond, est).bits
    return bits


def compute() -> dict:
    """Both tables; each run and each estimate_k_cond starts from an empty
    estimate store."""
    return {"reports": report_digests(), "cond_bits": cond_bits()}


def main() -> int:
    if FIXTURE.exists():
        print(f"{FIXTURE} exists; the fixed point is never re-recorded", file=sys.stderr)
        return 1
    FIXTURE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
