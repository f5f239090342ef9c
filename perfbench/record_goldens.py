"""Rewrite goldens.json from the current sources.

    python3 perfbench/record_goldens.py

Runs one traced cycle of every workload for each pinned seed and keeps each
operation's record (output hashes, bit counts, exact oracle results) and
each exact count. A value that is the same for every pinned seed is stored
once, under "*", and is then checked whatever the seed; the rest are checked
only for their own seed. Outputs are the toolkit's fixed point, so rerun
this only for a change that is meant to alter them, and say so.
"""
from __future__ import annotations

import json
import os
import sys

import run
import spans
from workloads import WORKLOADS

SEEDS = range(11)


def record(name: str, seed: int) -> tuple[dict, dict]:
    nl, wl, _ = run.setup(name, seed)
    tracer = spans.Tracer(nl)
    tracer.install()
    clock = run.Clock()
    try:
        _, _, records, failures = run.run_cycle(wl.ops(), clock, tracer)
    finally:
        clock.close()
        tracer.uninstall()
    if failures:
        raise SystemExit(f"{name} seed {seed}: {failures}")
    return records, run.exact_counts(tracer, 0, records)


def fold(per_seed: dict) -> dict:
    """{seed: {key: value}} -> {key: {"*": value}} or {key: {seed: value}}."""
    out = {}
    for key in next(iter(per_seed.values())):
        values = {str(seed): d[key] for seed, d in per_seed.items()}
        distinct = {json.dumps(v, sort_keys=True) for v in values.values()}
        out[key] = {"*": values[str(SEEDS[0])]} if len(distinct) == 1 else values
    return out


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    goldens = {}
    for name in WORKLOADS:
        records, counts = {}, {}
        for seed in SEEDS:
            records[seed], counts[seed] = record(name, seed)
            print(f"recorded {name} seed {seed}", flush=True)
        goldens[name] = {"ops": fold(records), "counts": fold(counts)}
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
