"""Benchmark of the nonlocality toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: experiments, codec, oracles
(see README.md). One caller in one process goes through the workload's
operation list in whole cycles: --seconds divided by the workload's typical
cycle time on the reference machine, rounded down, and at least one, so
every run does the same work. Every operation's output is checked; a wrong
output, a non-zero exit code or an exception counts the operation as
failed. Times are normalised to the machine's speed (see clock.py).

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced cycles, prints the per-layer metrics of the traced ones and the
tracing overhead, and writes the spans to .perfbench_out/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import spans
from clock import Clock
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
OUT = Path(".perfbench_out")
MODULES = (
    "strings", "coding", "estimators", "complexity", "games",
    "simplex", "oracles", "experiments", "cli",
)
SETUP_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The checkout does not hold the toolkit's sources."""


def import_toolkit() -> SimpleNamespace:
    """Import every nonlocality module afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m.split(".")[0] == "nonlocality"]:
        del sys.modules[name]
    try:
        nl = SimpleNamespace(
            MODULES=MODULES,
            **{m: importlib.import_module(f"nonlocality.{m}") for m in MODULES},
        )
    except ImportError as exc:
        raise SetupError(f"cannot import the toolkit: {exc}") from exc
    src = (ROOT / "src").resolve()
    if not Path(nl.cli.__file__).resolve().is_relative_to(src):
        raise SetupError(f"toolkit imported from {nl.cli.__file__}, not from {src}")
    return nl


def setup(name: str, seed: int):
    """Import the package, build the workload's pinned inputs, load goldens."""
    nl = import_toolkit()
    goldens = json.loads(GOLDENS.read_text()).get(name, {})
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return nl, WORKLOADS[name](nl, seed, work), goldens


def golden(goldens: dict, section: str, key: str, seed: int):
    """The pinned value for this seed, or the one pinned for every seed."""
    entry = goldens.get(section, {}).get(key)
    if entry is None:
        return None
    return entry.get(str(seed), entry.get("*"))


def run_cycle(ops, clock: Clock, tracer=None) -> tuple[list, list, dict, dict]:
    """One pass over the operation list: normalised and wall latencies, the
    record of each operation that passed its checks, and the failure of each
    that did not."""
    latencies, walls, records, failures = [], [], {}, {}
    for op in ops:
        try:
            with tracer.op(op.name) if tracer else contextlib.nullcontext() as span:
                raw, wall, scale = clock.call(op.run, own_samples=not op.spawns)
        except Exception as exc:  # any failure of one operation is counted
            failures[op.name] = f"{type(exc).__name__}: {exc}"
            continue
        if span is not None:
            span["scale"] = scale
        latencies.append(wall * scale)
        walls.append(wall)
        try:
            # a JSON round trip makes records comparable with goldens.json
            records[op.name] = json.loads(json.dumps(op.verify(raw)))
        except Exception as exc:
            failures[op.name] = f"{type(exc).__name__}: {exc}"
    return latencies, walls, records, failures


def measure(name: str, seed: int, seconds: float, trace: bool, clock: Clock) -> SimpleNamespace:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        (nl, wl, goldens), wall, scale = clock.call(lambda: setup(name, seed))
        setup_s.append(wall * scale)
    ops = wl.ops()
    tracer = spans.Tracer(nl) if trace else None
    m = SimpleNamespace(
        setup_s=setup_s, lat={False: [], True: []}, wall=[], attempted=0, failed=0,
        problems=[], counts=[], tracer=tracer,
        # the same whole number of cycles in every run, whatever the machine's
        # speed at the time: about --seconds of work on the reference machine
        cycles=max(2 if trace else 1, int(seconds // wl.cycle_s)),
    )
    first = None
    for cycle in range(m.cycles):
        traced = trace and cycle % 2 == 1
        if traced:
            tracer.cycle = cycle
            tracer.install()
        try:
            latencies, walls, records, failures = run_cycle(
                ops, clock, tracer if traced else None
            )
        finally:
            if traced:
                tracer.uninstall()
        for op_name, rec in records.items():
            want = golden(goldens, "ops", op_name, seed)
            if first is not None and rec != first.get(op_name, rec):
                failures[op_name] = "output differs from the first cycle"
            elif want is not None and rec != want:
                failures[op_name] = "output differs from goldens.json"
        first = first or records
        m.attempted += len(ops)
        m.failed += len(failures)
        m.problems += [f"cycle {cycle} {k}: {v}" for k, v in failures.items()]
        m.lat[traced] += latencies
        if traced:
            m.counts.append(exact_counts(tracer, cycle, records))
            m.problems += count_problems(goldens, seed, m.counts)
        else:
            m.wall += walls
    return m


def exact_counts(tracer, cycle: int, records: dict) -> dict:
    counts = spans.exact_counts([s for s in tracer.spans if s["cycle"] == cycle])
    counts["experiments.report_bytes"] = sum(r.get("bytes", 0) for r in records.values())
    return counts


def count_problems(goldens: dict, seed: int, counts: list) -> list:
    """The newest cycle's exact counts must equal the first cycle's and the
    pinned ones."""
    got = counts[-1]
    if got != counts[0]:
        return ["exact counts differ between traced cycles"]
    out = []
    for key, value in got.items():
        want = golden(goldens, "counts", key, seed)
        if want is not None and value != want:
            out.append(f"{key} = {value}, goldens.json has {want}")
    return out


def _rate(latencies: list) -> float:
    return len(latencies) / sum(latencies) if latencies else 0.0


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(m) -> dict:
    lat = m.lat[False]
    n = len(lat)
    return {
        "setup_s": (_median(m.setup_s), f"median of {len(m.setup_s)} set-ups"),
        "ops_per_s": (_rate(lat), f"{n} operations; wall clock {_rate(m.wall):.4g}"),
        "op_s_p50": (
            _median(lat),
            f"median of {n} operations; wall clock {_median(m.wall):.4g}",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "this process",
        ),
    }


def per_layer(m) -> dict:
    cycles = len(m.counts)
    metrics = spans.layer_metrics(m.tracer.spans, cycles)
    metrics["experiments.report_bytes"] = m.counts[0]["experiments.report_bytes"]
    untraced, traced = _rate(m.lat[False]), _rate(m.lat[True])
    metrics["trace.overhead_frac"] = (untraced - traced) / untraced if untraced else 0.0
    note = f"{cycles} traced cycles"
    return {k: (v, note) for k, v in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    clock = Clock()
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), clock)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        clock.close()
    for line in m.problems:
        print(f"perfbench: {line}", file=sys.stderr)
    if args.trace:
        m.tracer.write_jsonl(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics, unit = per_layer(m), spans.unit
    else:
        metrics, unit = end_to_end(m), END_TO_END_UNITS.get
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {m.cycles} cycles, "
        f"{m.attempted} operations attempted, failed_op_frac {m.failed / m.attempted:.4f}; "
        f"nproc {os.cpu_count()}, Python {platform.python_version()}, {_cpu_model()}"
    )
    for key, (value, note) in metrics.items():
        print(f"  {key:42s} {value:14.6g} {unit(key):7s} ({note})")
    result = {
        "correct": not m.problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, (v, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown CPU"


if __name__ == "__main__":
    sys.exit(main())
