"""tools/ab.py's summary and file layout, on synthetic pairs: no test here
runs the benchmark."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _pairs(parent: dict, change: dict) -> list:
    names = list(parent)
    return [
        ({n: parent[n][k] for n in names}, {n: change[n][k] for n in names})
        for k in range(len(parent[names[0]]))
    ]


def test_the_summary_of_five_pairs_is_worked_out_by_hand():
    pairs = _pairs(
        {"ops_per_s": [10, 12, 11, 13, 9], "setup_s": [0.10, 0.12, 0.11, 0.13, 0.14]},
        {"ops_per_s": [12, 12, 13, 15, 10], "setup_s": [0.09, 0.12, 0.12, 0.10, 0.15]},
    )
    got = ab.summarize(pairs, {"ops_per_s": "higher", "setup_s": "lower"})
    # five values: the inclusive quartiles are the 2nd, 3rd and 4th smallest
    assert got["ops_per_s"] == {
        "better": "higher",
        "parent_q1_median_q3": [10, 11, 12],
        "change_q1_median_q3": [12, 12, 13],
        "median_ratio": 1.0909,  # 12 / 11
        "parent_iqr": 2,
        "change_better_pairs": "4/5",  # a tie (12 against 12) is no win
        "parent_min_max": [9, 13],
        "change_min_max": [10, 15],
    }
    assert got["setup_s"] == {
        "better": "lower",
        "parent_q1_median_q3": [0.11, 0.12, 0.13],
        "change_q1_median_q3": [0.10, 0.12, 0.12],
        "median_ratio": 1.0,
        "parent_iqr": 0.02,
        "change_better_pairs": "2/5",  # lower wins: 0.09 < 0.10 and 0.10 < 0.13
        "parent_min_max": [0.10, 0.14],
        "change_min_max": [0.09, 0.15],
    }


def test_quartiles_of_four_pairs_interpolate():
    pairs = _pairs({"op_s_p50": [4, 1, 3, 2]}, {"op_s_p50": [2, 2, 2, 2]})
    got = ab.summarize(pairs, {"op_s_p50": "lower"})["op_s_p50"]
    # positions 1 + 3k/4 of 1, 2, 3, 4: 1.75, 2.5 and 3.25
    assert got["parent_q1_median_q3"] == [1.75, 2.5, 3.25]
    assert got["change_q1_median_q3"] == [2, 2, 2]
    assert (got["median_ratio"], got["parent_iqr"], got["change_better_pairs"]) == (0.8, 1.5, "2/4")


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        ([10, 10, 10, 10, 10], [9.9, 9.9, 9.9, 9.9, 9.9], "within the 0.25 bound"),
        ([10] * 5, [7] * 5, "worse than the parent by more than the 0.25 bound"),
        ([4, 8, 10, 12, 16], [10] * 5, "unresolved: the parent's IQR is wider than the 0.25 bound"),
    ],
)
def test_each_metric_is_judged_against_its_bound(parent, change, verdict):
    pairs = _pairs({"ops_per_s": parent}, {"ops_per_s": change})
    summary = ab.summarize(pairs, {"ops_per_s": "higher"})
    (line,) = ab.describe(summary, {"ops_per_s": 0.25})
    assert line.endswith("; " + verdict)


@pytest.mark.parametrize(
    "parent, change, shown",
    [
        # parent sorted 10,10,10,11,11,11,11,12,12,12: quartiles 10.25, 11
        # and 11.75, an IQR of 1.5; the change wins 9 of 10 and its median,
        # 9, is 2 lower
        ([10, 11, 12, 10, 11, 12, 10, 11, 12, 11], [8, 9, 9, 8, 9, 9, 8, 9, 9, 13], True),
        # the same gap, but 8 wins: the tenth pair is a tie (11 against 11)
        ([10, 11, 12, 10, 11, 12, 10, 11, 12, 11], [8, 9, 9, 8, 9, 9, 8, 9, 13, 11], False),
        # 10 wins, but the medians (10 and 9) are 1 apart against an IQR of
        # 10 (quartiles 5, 10 and 15)
        ([5, 15] * 5, [4, 14] * 5, False),
        # 10 wins and a gap of exactly the IQR (1.5) is not wider than it
        ([10, 11, 12, 10, 11, 12, 10, 11, 12, 11], [8.5, 9.5, 10.5, 8.5, 9.5, 10.5, 8.5, 9.5, 10.5, 9.5],
         False),
    ],
)
def test_a_gain_is_shown_by_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_iqr(
    parent, change, shown
):
    pairs = _pairs({"op_s_p50": parent}, {"op_s_p50": change})
    summary = ab.summarize(pairs, {"op_s_p50": "lower"})
    assert ab.gain_shown(summary["op_s_p50"]) is shown
    (line,) = ab.describe(summary, {"op_s_p50": 0.25})
    assert ("; claim rule: gain shown; " in line) is shown
    assert ("; claim rule: no gain shown; " in line) is not shown
    # the sides swapped where higher is better: the same verdict (the
    # swapped parents' IQRs are 0.75, 0.75, 10 and 1.5)
    flipped = ab.summarize(_pairs({"x": change}, {"x": parent}), {"x": "higher"})
    assert ab.gain_shown(flipped["x"]) is shown


def _line(value: float) -> str:
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in METRICS}
    return json.dumps({"correct": True, "attempted": 35, "failed": 0, "metrics": metrics})


def test_a_written_file_has_the_keys_of_an_earlier_bench_file(tmp_path):
    runs = [
        {"seed": 7 + k, "first": first, "parent": _line(1.0 + k), "change": _line(1.5 + k)}
        for k, first in enumerate(["parent", "change", "parent"])
    ]
    doc = ab.document("codec", "none", 30, "0" * 40, runs, ["a note"], METRICS)
    path = tmp_path / "BENCH_0_codec.json"
    path.write_text(json.dumps(doc, indent=1))
    written = json.loads(path.read_text())
    earlier = json.loads((ROOT / "BENCH_42_codec.json").read_text())
    assert list(written) == list(earlier)
    assert written["summary"].keys() == earlier["summary"].keys()
    for name, entry in written["summary"].items():
        assert entry.keys() == earlier["summary"][name].keys()
    assert written["pairs"][1]["runs"][0]["side"] == "change"
    assert written["notes"][1] == "every run: correct and 0 failed: True"
    assert written["notes"][-1] == "a note"
