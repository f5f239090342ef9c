"""The benchmark's codec, experiments and oracles records at seed 0 against
perfbench/goldens.json.

perfbench compares every operation's record with goldens.json and refuses a
change whose outputs drift. These tests build its codec workload (every
built-in estimator on its five strings), its experiments workload (the
`nlbox exp` runs and the testers, called as argv through cli.main) and its
oracles workload (exact game values, memberships and marginal programs),
run each operation once and check the same records here, so drift shows up
in the test suite first. The benchmark's files are only read: nothing is
written under perfbench/.

The experiments cycle is run once per session, by `experiments_cycle`,
which also records what test_roundtrip_audit.py audits.
"""
import functools
import importlib
import json
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from nonlocality.complexity import EstimateStore
from nonlocality.estimators import ContextEstimator, LZ77Estimator, LZ78Estimator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 0


def _pinned(entry: dict):
    """The value pinned for SEED, or the one pinned for every seed."""
    return entry.get(str(SEED), entry.get("*"))


def _records(name: str, modules: tuple, tmp_path, monkeypatch) -> tuple[dict, dict]:
    """Each operation's record from one pass over the workload's cycle, and
    the workload's section of goldens.json."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    nl = SimpleNamespace(**{m: importlib.import_module(f"nonlocality.{m}") for m in modules})
    goldens = json.loads((PERFBENCH / "goldens.json").read_text())[name]
    # the relative directory perfbench/run.py works in: reports echo paths
    monkeypatch.chdir(tmp_path)
    work = Path(".perfbench_out") / name
    work.mkdir(parents=True)
    ops = workloads.WORKLOADS[name](nl, SEED, work).ops()
    assert sorted(op.name for op in ops) == sorted(goldens["ops"])
    # the JSON round trip that perfbench/run.py applies to every record
    return {op.name: json.loads(json.dumps(op.verify(op.run()))) for op in ops}, goldens


@functools.cache
def experiments_cycle() -> SimpleNamespace:
    """One pass over the experiments cycle: its records and goldens, every
    encode call as (estimator, symbols, q, period, bits, blob), the resume
    points kept as estimator id -> (count, sum of positions), and the points
    found as (hits, symbols they let encodes skip)."""
    calls, kept, found = [], {}, [0, 0]
    keep, find = EstimateStore.keep, EstimateStore.find

    def counted(self, est, symbols, q, period, point):
        count, total = kept.get(est.estimator_id, (0, 0))
        kept[est.estimator_id] = (count + 1, total + point.i)
        assert 0 < point.i <= len(symbols)
        keep(self, est, symbols, q, period, point)

    def counted_find(self, est, symbols, q, period):
        point = find(self, est, symbols, q, period)
        if point is not None:
            found[0] += 1
            found[1] += point.i
        return point

    modules = (
        "strings", "coding", "estimators", "complexity", "games",
        "simplex", "oracles", "experiments", "cli",
    )
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        for cls in (LZ78Estimator, LZ77Estimator, ContextEstimator):

            def audited(self, symbols, q, period=1, _encode=cls.encode, **kwargs):
                bits, blob = _encode(self, symbols, q, period, **kwargs)
                calls.append((self, bytes(symbols), q, period, bits, blob))
                return bits, blob

            mp.setattr(cls, "encode", audited)
        mp.setattr(EstimateStore, "keep", counted)
        mp.setattr(EstimateStore, "find", counted_find)
        records, goldens = _records("experiments", modules, Path(tmp), mp)
    return SimpleNamespace(
        records=records, goldens=goldens, calls=calls, kept=kept, found=tuple(found)
    )


def test_codec_records_match_goldens(tmp_path, monkeypatch):
    records, goldens = _records(
        "codec", ("coding", "estimators", "games", "strings"), tmp_path, monkeypatch
    )
    for name, record in records.items():
        assert record == _pinned(goldens["ops"][name]), name
    bits = sum(r["bits"] for r in records.values())
    assert bits == _pinned(goldens["counts"]["coding.bits_written"])


def test_experiments_records_match_goldens():
    # every report file's and every stdout's sha256: the conditional
    # estimates behind them resume from the coder state of their condition
    cycle = experiments_cycle()
    records, goldens = cycle.records, cycle.goldens
    for name, record in records.items():
        assert record == _pinned(goldens["ops"][name]), name
    report_bytes = sum(r["bytes"] for r in records.values())
    assert report_bytes == _pinned(goldens["counts"]["experiments.report_bytes"])


def test_oracles_records_match_goldens(tmp_path, monkeypatch):
    # each value's witness, nodes and prunes, each membership's weights or
    # certificate digest, value and vertex maximum, each marginal pair
    records, goldens = _records("oracles", ("games", "oracles"), tmp_path, monkeypatch)
    for name, record in records.items():
        assert record == _pinned(goldens["ops"][name]), name
    counts = goldens["counts"]
    nodes = sum(r["nodes"] for r in records.values() if "nodes" in r)
    prunes = sum(r["prunes"] for r in records.values() if "prunes" in r)
    assert nodes == _pinned(counts["oracles.search_nodes"])
    assert prunes == _pinned(counts["oracles.search_prunes"])
