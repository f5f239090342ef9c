#!/usr/bin/env python3
"""Paired A/B runs of the benchmark: a parent commit against the working tree.

    python3 tools/ab.py PARENT --pr N [--workload W ...] [--pairs N]
        [--first-seed K] [--claim TEXT] [--note TEXT ...]

Copies PARENT (through `git archive`) and the working tree into two
temporary directories outside the checkout and gives both the working
tree's perfbench/, so each side runs the same unchanged perfbench/run.py
against its own src/ for BENCHMARK.json's run_seconds. Pair k runs seed
K + k on both sides, one run at a time, the parent first in even k, with
PYTHONDONTWRITEBYTECODE=1 and no __pycache__. For each workload it
writes BENCH_<N>_<W>.json in the checkout's root: every run's result
line, and per end-to-end metric of BENCHMARK.json the quartiles of each
side, the ratio of the medians, the parent's IQR and the pairs in which
the change was better. Each run's line goes to stderr; the notes (one
line per metric, with its bound verdict and whether it shows a gain by
the claim rule of gain_shown) go to stdout and into the file. Standard
library only.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROTOCOL = (
    "alternating parent/change pairs on fresh seeds, the parent first in the pairs of "
    "even index; each side runs from its own copy of the tree outside the checkout, "
    "one run at a time, with PYTHONDONTWRITEBYTECODE=1 and no __pycache__; quartiles "
    "by statistics.quantiles(n=4, method='inclusive')"
)


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def copy_trees(parent: str, into: Path) -> tuple[Path, Path]:
    """The parent's files and the working tree's tracked and untracked
    (not ignored) files, each with the working tree's perfbench/."""
    old, new = into / "parent", into / "change"
    with tarfile.open(fileobj=io.BytesIO(_git("archive", parent))) as tar:
        tar.extractall(old, filter="data")
    for name in _git("ls-files", "-co", "--exclude-standard", "-z").decode().split("\0"):
        if name and (ROOT / name).is_file():
            (new / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, new / name)
    shutil.rmtree(old / "perfbench", ignore_errors=True)
    shutil.copytree(new / "perfbench", old / "perfbench")
    return old, new


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> str:
    """The last stdout line of one benchmark run: its JSON result."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, *argv], cwd=tree, env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip().splitlines()[-1]


def _better(better: str, parent: float, change: float) -> bool:
    return change < parent if better == "lower" else change > parent


def summarize(pairs: list, better: dict) -> dict:
    """Per metric: each side's quartiles and extremes, the median ratio
    (change over parent), the parent's IQR and the pairs the change won.
    pairs holds one (parent metrics, change metrics) per pair."""
    summary = {}
    for name, way in better.items():
        old = [p[name] for p, _ in pairs]
        new = [c[name] for _, c in pairs]
        oq = statistics.quantiles(old, n=4, method="inclusive")
        nq = statistics.quantiles(new, n=4, method="inclusive")
        wins = sum(_better(way, p, c) for p, c in zip(old, new))
        summary[name] = {
            "better": way,
            "parent_q1_median_q3": [round(v, 6) for v in oq],
            "change_q1_median_q3": [round(v, 6) for v in nq],
            "median_ratio": round(nq[1] / oq[1], 4),
            "parent_iqr": round(oq[2] - oq[0], 6),
            "change_better_pairs": f"{wins}/{len(pairs)}",
            "parent_min_max": [round(min(old), 6), round(max(old), 6)],
            "change_min_max": [round(min(new), 6), round(max(new), 6)],
        }
    return summary


def gain_shown(s: dict) -> bool:
    """The rule for claiming a gain on one metric's summary: the change was
    better in at least nine tenths of the pairs (a tie is no win), and its
    median is better than the parent's by more than the parent's IQR."""
    wins, pairs = map(int, s["change_better_pairs"].split("/"))
    old, new = s["parent_q1_median_q3"][1], s["change_q1_median_q3"][1]
    gain = old - new if s["better"] == "lower" else new - old
    return 10 * wins >= 9 * pairs and gain > s["parent_iqr"]


def describe(summary: dict, bounds: dict) -> list:
    """One line per metric: the medians, whether they show a gain by the
    claim rule (gain_shown), and whether the change's median is worse than
    the parent's by more than the metric's bound, or cannot be told because
    the parent's own IQR is wider than the bound."""
    lines = []
    for name, s in summary.items():
        old, new = s["parent_q1_median_q3"][1], s["change_q1_median_q3"][1]
        worse = s["median_ratio"] - 1 if s["better"] == "lower" else 1 - s["median_ratio"]
        if s["parent_iqr"] > bounds[name] * old:
            verdict = f"unresolved: the parent's IQR is wider than the {bounds[name]:g} bound"
        elif worse > bounds[name]:
            verdict = f"worse than the parent by more than the {bounds[name]:g} bound"
        else:
            verdict = f"within the {bounds[name]:g} bound"
        lines.append(
            f"{name} {old:g} -> {new:g} ({s['median_ratio']}x, {s['change_better_pairs']}; "
            f"medians {abs(new - old):g} apart against a parent IQR of {s['parent_iqr']:g}); "
            f"claim rule: {'gain shown' if gain_shown(s) else 'no gain shown'}; " + verdict
        )
    return lines


def document(workload, claim, seconds, parent, runs, notes, metrics) -> dict:
    """The BENCH file: runs holds per pair its seed, the side that ran first
    and each side's result line."""
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics}
    results = [[json.loads(r[side]) for side in ("parent", "change")] for r in runs]
    ok = all(x["correct"] and x["failed"] == 0 for pair in results for x in pair)
    values = [[{k: v["value"] for k, v in x["metrics"].items()} for x in pair] for pair in results]
    summary = summarize(values, better)
    seeds = [r["seed"] for r in runs]
    return {
        "workload": workload,
        "claim": claim,
        "command": f"python3 perfbench/run.py --workload {workload} --seed SEED "
        f"--seconds {seconds:g} --trace 0",
        "protocol": PROTOCOL,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "summary": summary,
        "notes": [
            f"seeds {min(seeds)}-{max(seeds)}: {len(runs)} pairs; "
            "the parent runs first in the pairs of even index",
            f"every run: correct and 0 failed: {ok}",
            *describe(summary, bounds),
            *notes,
        ],
        "pairs": [
            {
                "seed": r["seed"],
                "first": r["first"],
                "runs": [{"side": s, "line": r[s]} for s in (r["first"], _other(r["first"]))],
            }
            for r in runs
        ],
        "parent": {"commit": parent},
    }


def _other(side: str) -> str:
    return "change" if side == "parent" else "parent"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="the commit to compare the working tree with")
    p.add_argument("--pr", type=int, required=True, help="the N of BENCH_<N>_<W>.json")
    p.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--claim", default="none")
    p.add_argument("--note", action="append", default=[])
    args = p.parse_args(argv)
    parent = _git("rev-parse", "--verify", args.parent + "^{commit}").decode().strip()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = dict(zip(("parent", "change"), copy_trees(parent, Path(tmp))))
        for workload in workloads:
            runs = []
            for k in range(args.pairs):
                seed = args.first_seed + k
                run = {"seed": seed, "first": "parent" if k % 2 == 0 else "change"}
                for side in (run["first"], _other(run["first"])):
                    run[side] = run_once(trees[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: {run[side]}", file=sys.stderr)
                runs.append(run)
            doc = document(
                workload, args.claim, seconds, parent, runs, args.note, spec["end_to_end"]
            )
            out = ROOT / f"BENCH_{args.pr}_{workload}.json"
            out.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"{workload}:", *doc["notes"], sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
