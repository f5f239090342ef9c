"""The benchmark's codec records at seed 0 against perfbench/goldens.json.

perfbench compares every operation's record with goldens.json and refuses a
change whose outputs drift. This builds its codec workload (every built-in
estimator on its five strings), runs each operation once and checks the
same records here, so drift shows up in the test suite first. The
benchmark's files are only read: nothing is written under perfbench/.
"""
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 0


def _pinned(entry: dict):
    """The value pinned for SEED, or the one pinned for every seed."""
    return entry.get(str(SEED), entry.get("*"))


def test_codec_records_match_goldens(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    nl = SimpleNamespace(
        **{m: importlib.import_module(f"nonlocality.{m}") for m in ("coding", "estimators", "games", "strings")}
    )
    goldens = json.loads((PERFBENCH / "goldens.json").read_text())["codec"]
    ops = workloads.Codec(nl, SEED, tmp_path).ops()
    assert sorted(op.name for op in ops) == sorted(goldens["ops"])
    bits = 0
    for op in ops:
        # the JSON round trip that perfbench/run.py applies to every record
        record = json.loads(json.dumps(op.verify(op.run())))
        assert record == _pinned(goldens["ops"][op.name]), op.name
        bits += record["bits"]
    assert bits == _pinned(goldens["counts"]["coding.bits_written"])
