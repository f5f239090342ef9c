import argparse
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nonlocality import cli
from nonlocality.cli import main
from nonlocality.estimators import LZ77Estimator
from nonlocality.games import GameSpec
from nonlocality.strings import SymbolString, write_syms


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    # an exception that main does not map to an exit code by its type is a
    # fault of the toolkit, which no test here provokes
    assert "internal error" not in out.err
    return code, out.out, out.err


def test_oracle_pr_value(capsys):
    code, out, _ = run(capsys, "oracle", "--game", "pr", "--reps", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "3/4"
    assert payload["replay"] == "3/4"


def test_oracle_chained_and_magic_square(capsys):
    code, out, _ = run(capsys, "oracle", "--game", "chained", "--m", "5")
    assert code == 0 and json.loads(out)["value"] == "9/10"
    code, out, _ = run(capsys, "oracle", "--game", "magic_square")
    assert code == 0 and json.loads(out)["value"] == "8/9"


def test_oracle_marginals(capsys):
    code, out, _ = run(capsys, "oracle", "--marginals")
    assert code == 0
    assert json.loads(out) == {"min": "1/2", "max": "1/2"}


def test_oracle_fine_membership(capsys, tmp_path):
    # the perfect XOR box: uniform over the two winning pairs per input
    p = {}
    for a in range(2):
        for b in range(2):
            for x in range(2):
                p[f"{a},{b},{x},{x ^ (a & b)}"] = "1/2"
    dist = tmp_path / "pr.json"
    dist.write_text(json.dumps({"game": "pr", "p": p}))
    code, out, _ = run(capsys, "oracle", "--fine", str(dist))
    assert code == 0
    payload = json.loads(out)
    assert payload["membership"] == "NonLocal"
    assert payload["value_on_dist"] != payload["vertex_max"]


def test_gen_zeros_header_and_payload(capsys, tmp_path):
    out_file = tmp_path / "zeros.syms"
    code, _, _ = run(capsys, "gen", "--kind", "zeros", "--n", "4", "--out", str(out_file))
    assert code == 0
    raw = out_file.read_bytes()
    assert raw == b"SYMS q=2 n=4\n\x00"


def test_estimate_zeros_low_rate(capsys, tmp_path):
    out_file = tmp_path / "zeros.syms"
    run(capsys, "gen", "--kind", "zeros", "--n", "65536", "--out", str(out_file))
    code, out, _ = run(capsys, "estimate", "--in", str(out_file), "--estimator", "lz78")
    assert code == 0
    assert json.loads(out)["rate"] <= 0.05


def test_play_nosig_and_downstream_testers(capsys, tmp_path):
    a = tmp_path / "a.syms"
    b = tmp_path / "b.syms"
    run(capsys, "gen", "--kind", "random", "--n", "2048", "--seed", "7", "--out", str(a))
    run(capsys, "gen", "--kind", "random", "--n", "2048", "--seed", "8", "--out", str(b))
    code, out, _ = run(
        capsys, "play", "--game", "pr", "--strategy", "nosig", "--eps", "0",
        "--a", str(a), "--b", str(b), "--seed", "9",
        "--out-dir", str(tmp_path), "--stem", "q",
    )
    assert code == 0
    assert json.loads(out)["satisfaction"] == "1/1"
    quad = str(tmp_path / "q.json")
    code, out, _ = run(capsys, "nosig", "--quad", quad, "--estimator", "ctx_2")
    assert code == 0 and json.loads(out)["passes"] is True
    code, out, _ = run(capsys, "locality", "--quad", quad, "--estimator", "ctx_2")
    assert code == 0 and json.loads(out)["verdict"] == "NotWitnessed"


@pytest.mark.parametrize("stem", ["../q", "sub/q", "..", ".", ""])
def test_play_stem_that_is_not_a_file_name_is_usage_error(capsys, tmp_path, stem):
    # ../q once wrote q.json beside --out-dir, naming ../q.a.syms, which
    # load_quadruple refuses; sub/q failed at its first .syms write
    bits = SymbolString(2, bytes(v & 1 for v in range(64)))
    write_syms(tmp_path / "a.syms", bits)
    write_syms(tmp_path / "b.syms", bits)
    out_dir = tmp_path / "d"
    (out_dir / "sub").mkdir(parents=True)
    code, stdout, err = run(
        capsys, "play", "--game", "pr", "--strategy", "nosig", "--a", str(tmp_path / "a.syms"),
        "--b", str(tmp_path / "b.syms"), "--out-dir", str(out_dir), "--stem", stem,
    )
    assert code == 1 and stdout == "" and "Traceback" not in err
    written = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
    assert written == ["a.syms", "b.syms"]


def test_each_run_starts_with_an_empty_store(capsys, tmp_path, monkeypatch):
    # a run in a long-lived process sees what a fresh nlbox process sees:
    # the second of two identical runs codes every string again, from an
    # empty store, and finds no point that the first kept
    _quad_files(tmp_path)
    seen = []
    encode = LZ77Estimator.encode

    def spy(self, symbols, q, period=1, resume=None):
        seen.append((len(symbols), len(resume.bits), len(resume.points), resume.hits))
        return encode(self, symbols, q, period, resume)

    monkeypatch.setattr(LZ77Estimator, "encode", spy)
    argv = ["estimate", "--in", str(tmp_path / "x.syms"), "--cond", str(tmp_path / "a.syms")]
    runs = []
    for _ in range(2):
        seen.clear()
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        runs.append((out, seen[:]))
    assert runs[0] == runs[1]
    assert runs[0][1][0][1:] == (0, 0, 0)


def test_play_out_writes_the_summary_line_stdout_gets_without_it(capsys, tmp_path):
    bits = SymbolString(2, bytes(v & 1 for v in range(64)))
    write_syms(tmp_path / "a.syms", bits)
    write_syms(tmp_path / "b.syms", bits)
    argv = ["play", "--game", "pr", "--strategy", "local", "--fa", "0,1", "--fb", "1,0",
            "--a", str(tmp_path / "a.syms"), "--b", str(tmp_path / "b.syms"),
            "--out-dir", str(tmp_path)]
    code, line, _ = run(capsys, *argv)
    assert code == 0 and line.endswith("\n") and line.count("\n") == 1
    summary = tmp_path / "summary.json"
    code, out, _ = run(capsys, *argv, "--out", str(summary))
    assert code == 0 and out == ""
    assert summary.read_text() == line


def test_exit_code_usage_error(capsys):
    code, _, _ = run(capsys, "oracle", "--bogus-flag")
    assert code == 1
    code, _, _ = run(capsys, "no-such-subcommand")
    assert code == 1


def test_exit_code_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.syms"
    bad.write_bytes(b"NOT A SYMS FILE")
    code, _, _ = run(capsys, "estimate", "--in", str(bad), "--estimator", "lz78")
    assert code == 2
    missing = tmp_path / "missing.syms"
    code, _, _ = run(capsys, "estimate", "--in", str(missing), "--estimator", "lz78")
    assert code == 2


def test_exit_code_estimator_error(capsys, tmp_path):
    f = tmp_path / "x.syms"
    run(capsys, "gen", "--kind", "zeros", "--n", "16", "--out", str(f))
    for name in ("nope", "external:z"):
        code, _, _ = run(capsys, "estimate", "--in", str(f), "--estimator", name)
        assert code == 3


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--in", "--estimator", "--cond", "--theta-zero", "--config"):
        assert flag in out


def test_config_roundtrip_reproduces_run(capsys, tmp_path):
    out1 = tmp_path / "r1.jsonl"
    cfg = tmp_path / "cfg.json"
    code, _, _ = run(
        capsys, "exp", "--which", "theorem3", "--m", "8", "--n", "4096",
        "--eps", "1/64", "--estimator", "lz78", "--seed", "11",
        "--out", str(out1), "--emit-config", str(cfg),
    )
    assert code == 0
    first = out1.read_bytes()
    out1.unlink()
    code, _, _ = run(capsys, "exp", "--which", "theorem3", "--config", str(cfg))
    assert code == 0
    assert out1.read_bytes() == first


def test_config_flag_overrides_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"game": "pr", "reps": 1}))
    code, out, _ = run(capsys, "oracle", "--config", str(cfg), "--game", "chained", "--m", "3")
    assert code == 0
    assert json.loads(out)["value"] == "5/6"


def test_exp_writes_report_and_echoes_config(capsys, tmp_path):
    out_file = tmp_path / "r.jsonl"
    csv_file = tmp_path / "r.csv"
    code, _, _ = run(
        capsys, "exp", "--which", "magic_square", "--n", "2048",
        "--estimator", "ctx_2", "--seed", "3",
        "--out", str(out_file), "--csv", str(csv_file),
    )
    assert code == 0
    header = json.loads(out_file.read_text().splitlines()[0])
    assert header["config"]["which"] == "magic_square"
    assert header["config"]["seed"] == "3"
    assert header["config"]["external"] is None
    assert csv_file.read_text().startswith("experiment,quantity,n,value,rate,class")


_PR_BOX = {f"{a},{b},{x},{x ^ (a & b)}": "1/2" for a in range(2) for b in range(2) for x in range(2)}


@pytest.mark.parametrize(
    "dist",
    [
        [1, 2],  # not an object
        {"game": "pr", "p": [1]},  # "p" not an object
        {"game": "pr", "p": {"a,b,c,d": "1/2"}},  # non-integer key
        {"game": "chained", "m": "x", "p": {}},  # non-integer ring size
        {"game": "pr", "p": {**_PR_BOX, "5,5,0,0": "1/2"}},  # outside the alphabets
        {  # (0, 2) is off the chained(3) promise; the rest is a local box
            "game": "chained",
            "m": 3,
            "p": {**{f"{a},{b},0,0": "1" for a in range(3) for b in (a, (a + 1) % 3)},
                  "0,2,0,0": "0"},
        },
        '{"game": "pr", "p": {',  # a string is the file's text: not JSON
        {"game": "pr", "p": {**_PR_BOX, "0,0,0": "1/2"}},  # a key of three integers
        {"game": "pr", "p": {k: "1/4" for k in _PR_BOX}},  # each input pair sums to 1/2
        # the cell (0,0,0,0) twice: json.loads would keep the last value
        '{"game": "pr", "p": {"0,0,0,0": "1", ' + json.dumps(_PR_BOX)[1:] + "}",
        # int() reads each key below as a cell of the box, but no int prints so
        {"game": "pr", "p": {**_PR_BOX, "+0, 0,0,0": "1/2"}},
        {"game": "pr", "p": {**_PR_BOX, "\u0661,\u0661,\u0660,\u0661": "1/2"}},
        {"game": "pr", "p": {f"{a},{b},0,0": True for a in range(2) for b in range(2)}},
        # a denominator of 5001 digits, which frac_str could not print
        {"game": "pr", "p": {**_PR_BOX, "0,0,0,0": "1e-5000"}},
        '{"game": "pr", "p": {"0,0,0,0": ' + "1" * 5001 + "}}",  # json.loads refuses the int
        {"game": "pr", "m": "garbage", "p": _PR_BOX},
    ],
    ids=[
        "array", "p_array", "key", "m", "outside_alphabet", "off_promise",
        "not_json", "key_of_three", "sum_not_one",
        "repeated_key", "signed_spaced_key", "non_ascii_digit_key", "boolean_value",
        "huge_exponent_value", "int_of_5001_digits", "pr_m_not_an_int",
    ],
)
def test_oracle_fine_malformed_distribution_is_data_error(capsys, tmp_path, dist):
    path = tmp_path / "dist.json"
    path.write_text(dist if isinstance(dist, str) else json.dumps(dist))
    code, _, err = run(capsys, "oracle", "--fine", str(path))
    assert code == 2
    assert "Traceback" not in err
    # an entry too large to print is refused as an entry, not met later
    # as Python's int-str limit where a message prints its sum
    assert not err.startswith("error: Exceeds the limit")


def test_oracle_fine_reads_json_numbers_as_exact_fractions(capsys, tmp_path):
    # x is 0 with probability 1/10 whatever the inputs and y is always 0; as
    # binary floats, 0.1 + 0.9 is not 1
    table = {
        f"{a},{b},{x},0": Fraction(1 + 8 * x, 10) for a in range(2) for b in range(2) for x in range(2)
    }
    outs = []
    for value in (str, float):
        path = tmp_path / f"{value.__name__}.json"
        path.write_text(json.dumps({"game": "pr", "p": {k: value(p) for k, p in table.items()}}))
        code, out, _ = run(capsys, "oracle", "--fine", str(path))
        assert code == 0
        outs.append(out)
    assert '"0,0,0,0": 0.1' in (tmp_path / "float.json").read_text()
    assert outs[0] == outs[1]


def test_oracle_fine_local_distribution_weights_rebuild_it(capsys, tmp_path):
    # half the box where both always answer 0, half where each answers its input
    p = {}
    for a in range(2):
        for b in range(2):
            for x, y in ((0, 0), (a, b)):
                p[(a, b, x, y)] = p.get((a, b, x, y), Fraction(0)) + Fraction(1, 2)
    path = tmp_path / "dist.json"
    table = {",".join(map(str, k)): str(v) for k, v in p.items()}
    path.write_text(json.dumps({"game": "pr", "p": table}))
    code, out, _ = run(capsys, "oracle", "--fine", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["membership"] == "Local"
    rebuilt = {}
    for vertex in payload["weights"]:
        for a in range(2):
            for b in range(2):
                key = (a, b, vertex["fa"][a], vertex["fb"][b])
                rebuilt[key] = rebuilt.get(key, Fraction(0)) + Fraction(vertex["weight"])
    assert {k: v for k, v in rebuilt.items() if v} == p


@pytest.mark.parametrize("m", [2000, 10**9])
def test_oracle_fine_empty_table_of_huge_ring_is_refused_at_once(capsys, tmp_path, m):
    # the table cannot cover the 2m promise pairs; no pair is listed to see it
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"game": "chained", "m": m, "p": {}}))
    start = time.perf_counter()
    code, _, err = run(capsys, "oracle", "--fine", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "Traceback" not in err


def test_oracle_fine_chained7_is_refused_by_the_oracle(capsys, tmp_path):
    # a valid distribution, but 2**14 deterministic vertices exceed MAX_VERTICES
    pairs = [(a, b) for a in range(7) for b in sorted({a, (a + 1) % 7})]
    path = tmp_path / "dist.json"
    table = {f"{a},{b},0,0": "1" for a, b in pairs}
    path.write_text(json.dumps({"game": "chained", "m": 7, "p": table}))
    code, _, err = run(capsys, "oracle", "--fine", str(path))
    assert code == 3 and "too many deterministic vertices" in err


def test_oracle_fine_chained24_is_refused_before_listing_any_vertex(tmp_path):
    # the no-signaling box of chained(24) is a valid distribution with 2**48
    # deterministic vertices: listing Alice's 2**24 functions alone would
    # take GBs, so under a 1 GiB address-space limit, set in the child only,
    # only a refusal decided from the count exits 3 with an oracle error
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    game = GameSpec.chained(24)
    table = {
        f"{a},{b},{x},{x ^ game.target_bit(a, b)}": "1/2"
        for a, b in game.promise_pairs()
        for x in range(2)
    }
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"game": "chained", "m": 24, "p": table}))
    proc = subprocess.run(
        [sys.executable, "-m", "nonlocality.cli", "oracle", "--fine", str(path)],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        preexec_fn=cap,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert proc.stderr.splitlines() == [
        "oracle error: too many deterministic vertices to enumerate"
    ]


def test_oracle_strategy_space_too_large_exits_3_with_one_line(capsys):
    # Alice has 2**40 block functions on chained(40), over MAX_ALICE_FUNCTIONS:
    # an OracleError, raised from the count alone
    code, out, err = run(capsys, "oracle", "--game", "chained", "--m", "40")
    assert (code, out) == (3, "")
    assert err.splitlines() == ["oracle error: strategy space too large to search exactly"]


def _raise_key_error(*args):
    raise KeyError("row")


@pytest.mark.parametrize(
    "handler",
    [
        _raise_key_error,
        # the fault comes from a write, once its temp file is staged
        lambda args: (None, [(args.out, lambda temp: (temp.write_text("x"), _raise_key_error()))]),
    ],
    ids=["handler", "write"],
)
def test_unmapped_exception_exits_3_with_one_internal_error_line(
    capsys, tmp_path, monkeypatch, handler
):
    # a KeyError is no input's fault: main names its type and where it was
    # raised on one stderr line, with no traceback, no file written and
    # nothing on stdout
    monkeypatch.setattr(cli, "_cmd_gen", handler)
    argv = ["gen", "--kind", "zeros", "--n", "8", "--out", str(tmp_path / "z.syms"),
            "--emit-config", str(tmp_path / "c.json")]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    # the line names the frame that raised, here _raise_key_error's raise
    where = f"test_cli.py:{_raise_key_error.__code__.co_firstlineno + 1}"
    assert err.splitlines() == [f"internal error: KeyError: 'row' (at {where})"]
    assert list(tmp_path.iterdir()) == []


_THEOREM1 = ["exp", "--which", "theorem1", "--config"]


@pytest.mark.parametrize(
    "argv, cfg",
    [
        *((_THEOREM1, cfg) for cfg in (
            {"n": [1]}, {"seed": 5}, {"estimator": []}, {"csv": 5}, {"m": 1},
            {"eps": "1/0"}, {"eps": float("inf")}, {"eps": "2"}, {"fa": 5}, {"func": "x"},
        )),
        (["exp", "--which", "theorem1", "--config="], {"n": [1]}),  # PATH joined to the flag
        (_THEOREM1, None),  # no file at PATH
        (_THEOREM1, '{"n": '),  # a string is the file's text: not JSON
        (_THEOREM1, [1, 2]),
        (["oracle", "--config"], {"marginals": "true"}),
        (_THEOREM1, '{"n": "64", "n": "32"}'),  # json.loads would keep the last value
        (["exp", "--which", "theorem3", "--n", "8", "--m", "2", "--config"], {"eps": "1e-5000"}),
    ],
    ids=[
        "n_list", "seed_int", "estimator_list", "csv_int", "m_1",
        "eps_zero_denominator", "eps_infinite", "eps_above_one", "fa_int", "unknown_key",
        "config_equals_path", "missing_file", "not_json", "array", "switch_string",
        "repeated_key", "eps_huge_exponent",
    ],
)
def test_config_value_of_wrong_type_is_data_error(capsys, tmp_path, argv, cfg):
    path = tmp_path / "cfg.json"
    if cfg is not None:
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    *head, flag = argv
    argv = [*head, flag + str(path)] if flag.endswith("=") else [*argv, str(path)]
    out = tmp_path / "r.jsonl"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["play", "--a", "{d}/a.syms", "--out-dir", "{d}/d"], {"stem": "a\0b"}),
        (["estimate", "--in", "{d}/x.syms"], {"out": "{d}/r\0.json"}),
        (["play", "--a", "{d}/a.syms", "--out-dir", "{d}/d"], {"a": "{d}/a\0.syms"}),
    ],
    ids=["play_stem", "estimate_out", "play_a"],
)
def test_nul_in_config_string_is_data_error(capsys, tmp_path, argv, cfg):
    # no command line can hold a NUL, so the config is refused before any work
    _quad_files(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({k: v.format(d=tmp_path) for k, v in cfg.items()}))
    if argv[0] == "play":
        argv = [*argv, "--game", "pr", "--strategy", "nosig", "--b", "{d}/b.syms"]
    before = sorted(tmp_path.iterdir())
    code, _, err = run(capsys, *[a.format(d=tmp_path) for a in argv], "--config", str(path))
    assert code == 2 and "bad config value" in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "zeros", "--n", "8", "--out", "\0"],
        ["estimate", "--in", "\0"],
        ["estimate", "--in", "{d}/x.syms", "--config", "{d}/\0.json"],
    ],
    ids=["output_path", "input_path", "config_path"],
)
def test_nul_in_an_argument_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    # a library caller of main can pass what no shell can: refused before any work
    ran = []
    for name in ("gen", "estimate"):
        monkeypatch.setattr(cli, f"_cmd_{name}", lambda args: ran.append(args) or (None, []))
    monkeypatch.chdir(tmp_path)
    _quad_files(tmp_path)
    before = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, *(a.format(d=tmp_path) for a in argv))
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "NUL" in err and ran == []
    assert sorted(tmp_path.iterdir()) == before


def test_oracle_fine_and_marginals_are_mutually_exclusive(capsys, tmp_path):
    # one oracle mode per run: --marginals once dropped --fine without a word
    code, out, err = run(capsys, "oracle", "--marginals", "--fine", str(tmp_path / "d.json"))
    assert code == 1 and out == ""
    assert "not allowed with argument" in err


@pytest.mark.parametrize(
    "seed", ["-1", str(2**256), "zz", "ab" * 33], ids=["negative", "too_big", "not_hex", "65_bytes"]
)
def test_bad_seed_is_usage_error(capsys, tmp_path, seed):
    out = tmp_path / "s.syms"
    argv = ["gen", "--kind", "random", "--n", "8", "--out", str(out)]
    code, _, err = run(capsys, *argv, "--seed", seed)
    assert code == 1 and "--seed" in err and not out.exists()
    code, _, err = run(
        capsys, "play", "--game", "pr", "--strategy", "nosig",
        "--a", "a.syms", "--b", "b.syms", "--noise-seed", seed,
    )
    assert code == 1 and "--noise-seed" in err
    # the largest seeds still parse, and the text is echoed as given
    cfg = tmp_path / "cfg.json"
    code, _, _ = run(
        capsys, *argv, "--seed", "ab" * 32, "--emit-config", str(cfg)
    )
    assert code == 0 and json.loads(cfg.read_text())["seed"] == "ab" * 32


@pytest.mark.parametrize(
    "argv",
    [
        ["exp", "--which", "theorem1", "--n", "0"],
        ["exp", "--which", "theorem1", "--n", "-5"],
        ["exp", "--which", "magic_square", "--n", "x"],
        ["gen", "--kind", "random", "--n", "-1"],
        ["gen", "--kind", "random", "--n", "8", "--q", "1"],
        ["gen", "--kind", "random", "--n", "8", "--q", "257"],
        ["oracle", "--game", "pr", "--reps", "0"],
        ["gen", "--kind", "promise", "--n", "8", "--m", "1", "--out-b", "b.syms"],
        ["gen", "--kind", "promise", "--n", "8", "--m", "300", "--out-b", "b.syms"],
        ["exp", "--which", "theorem3", "--n", "8", "--m", "1"],
        ["exp", "--which", "theorem3", "--n", "8", "--m", "65"],
        ["exp", "--which", "theorem3", "--n", "8", "--eps", "1/0"],
        ["oracle", "--marginals", "--pr-weight", "1/0"],
        ["exp", "--which", "theorem3", "--n", "8", "--eps", "2"],
        ["play", "--game", "pr", "--strategy", "nosig", "--a", "a.syms", "--b", "b.syms",
         "--eps", "2"],
        ["oracle", "--marginals", "--pr-weight", "2"],
        ["oracle", "--marginals", "--pr-weight=-1/2"],
        ["oracle", "--game", "pr", "--jobs", "0"],
        ["oracle", "--game", "pr", "--jobs", "-3"],
        ["exp", "--which", "theorem3", "--n", "8", "--jobs", "0"],
        ["exp", "--which", "theorem3", "--n", "8", "--jobs", "-3"],
        ["estimate", "--in", "x.syms", "--theta-zero", "0.9", "--theta-full", "0.1"],
        ["estimate", "--in", "x.syms", "--theta-zero", "0.5", "--theta-full", "0.5"],
        ["estimate", "--in", "x.syms", "--theta-zero", "nan"],
        ["estimate", "--in", "x.syms", "--theta-full", "inf"],
        ["estimate", "--in", "x.syms", "--theta-full", "1.5"],
        ["estimate", "--in", "x.syms", "--theta-zero=-1"],
        ["nosig", "--quad", "q.json", "--theta-ns", "nan"],
        ["nosig", "--quad", "q.json", "--theta-ns=-0.5"],
        ["locality", "--quad", "q.json", "--defect-threshold", "nan"],
        ["locality", "--quad", "q.json", "--output-threshold", "inf"],
        ["oracle", "--game", "chained", "--m", "1"],
        ["play", "--game", "chained", "--m", "1", "--strategy", "nosig", "--a", "a.syms",
         "--b", "b.syms"],
        # frac_str cannot print a denominator of 5001 digits: refused before any file is written
        ["play", "--game", "pr", "--strategy", "nosig", "--a", "{d}/a.syms", "--b", "{d}/b.syms",
         "--out-dir", "{d}/quad", "--eps", "1e-5000"],
        ["exp", "--which", "theorem3", "--n", "8", "--m", "2", "--eps", "1e-5000"],
        # Fraction alone takes seconds to build 10**3000000
        ["oracle", "--marginals", "--pr-weight", "1e-3000000"],
    ],
    ids=[
        "exp_n_zero", "exp_n_negative", "exp_n_text", "gen_n_negative", "q_1", "q_257",
        "reps_0", "gen_m_1", "gen_m_300", "exp_m_1", "exp_m_65", "eps_zero_denominator",
        "pr_weight_zero_denominator", "exp_eps_above_one", "play_eps_above_one",
        "pr_weight_above_one", "pr_weight_negative", "jobs_0", "jobs_negative",
        "exp_jobs_0", "exp_jobs_negative",
        "theta_zero_above_full", "theta_zero_equals_full", "theta_zero_nan", "theta_full_inf",
        "theta_full_above_one", "theta_zero_negative", "theta_ns_nan", "theta_ns_negative",
        "defect_threshold_nan", "output_threshold_inf", "oracle_m_1", "play_m_1",
        "play_eps_huge_exponent", "exp_eps_huge_exponent", "pr_weight_huge_exponent",
    ],
)
def test_bad_size_is_usage_error(capsys, tmp_path, argv):
    _quad_files(tmp_path)  # inputs under {d} exist, so only the flag can refuse the run
    before = sorted(tmp_path.rglob("*"))
    argv = [*(a.format(d=tmp_path) for a in argv), "--out", str(tmp_path / "out")]
    if "1e-3000000" in argv:
        # a parse that stalls fails the test at the timeout instead of hanging it
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "nonlocality.cli", *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=10,
        )
        code, err = proc.returncode, proc.stderr
    else:
        code, _, err = run(capsys, *argv)
    assert code == 1
    assert "Traceback" not in err and sorted(tmp_path.rglob("*")) == before


def test_emit_config_round_trip_fills_required_flags(capsys, tmp_path):
    first = tmp_path / "z.syms"
    cfg = tmp_path / "gen.json"
    argv = ["gen", "--kind", "zeros", "--n", "8", "--out", str(first)]
    assert run(capsys, *argv, "--emit-config", str(cfg))[0] == 0
    first.unlink()
    assert run(capsys, "gen", "--config", str(cfg))[0] == 0
    assert first.read_bytes() == b"SYMS q=2 n=8\n\x00"

    est_cfg = tmp_path / "est.json"
    code, out, _ = run(
        capsys, "estimate", "--in", str(first), "--estimator", "ctx_0",
        "--emit-config", str(est_cfg),
    )
    assert code == 0
    code, again, _ = run(capsys, "estimate", "--config", str(est_cfg))
    assert code == 0 and again == out


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["estimate", "--in", "x.syms"], {"theta_zero": float("nan")}),
        (["estimate", "--in", "x.syms"], {"theta_full": 2}),
        (["nosig", "--quad", "q.json"], {"theta_ns": "inf"}),
        (["locality", "--quad", "q.json"], {"defect_threshold": -1}),
    ],
    ids=["theta_zero_nan", "theta_full_2", "theta_ns_inf", "defect_threshold_negative"],
)
def test_bad_threshold_in_config_is_data_error(capsys, tmp_path, argv, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, *argv, "--config", str(path))
    assert code == 2 and "bad config value" in err


def _fit_files(d):
    """Input files for play: pr-game bits, a q=3 string, a shorter pr
    string and a chained(3) pair whose second round is off the promise."""
    write_syms(d / "a.syms", SymbolString(2, bytes([0, 1, 1, 0] * 2)))
    write_syms(d / "short.syms", SymbolString(2, bytes([0, 1, 1])))
    write_syms(d / "q3.syms", SymbolString(3, bytes([0, 1, 2, 0] * 2)))
    write_syms(d / "ca.syms", SymbolString(3, bytes([0, 0])))
    write_syms(d / "cb.syms", SymbolString(3, bytes([1, 2])))


_PLAY = ["play", "--out-dir", "{d}/quad", "--seed", "1"]
_LOCAL = ["--game", "pr", "--strategy", "local", "--a", "{d}/a.syms", "--b", "{d}/a.syms"]
_EXP = ["exp", "--which", "theorem1", "--n", "8", "--strategy", "local", "--out", "{d}/r.jsonl"]


@pytest.mark.parametrize(
    "argv",
    [
        _PLAY + ["--game", "pr", "--strategy", "nosig", "--a", "{d}/q3.syms", "--b", "{d}/q3.syms"],
        _PLAY + ["--game", "pr", "--strategy", "nosig", "--a", "{d}/a.syms", "--b", "{d}/short.syms"],
        _PLAY + ["--game", "chained", "--m", "3", "--strategy", "nosig",
                 "--a", "{d}/ca.syms", "--b", "{d}/cb.syms"],
        _PLAY + ["--game", "magic_square", "--strategy", "signaling",
                 "--a", "{d}/q3.syms", "--b", "{d}/q3.syms"],
        _PLAY + _LOCAL + ["--fa", "0,1,1", "--fb", "1,0"],
        _PLAY + _LOCAL + ["--fa", "0,5", "--fb", "1,0"],
        _EXP + ["--fa", "0,1,1", "--fb", "1,0"],
        _EXP + ["--fa", "0,5", "--fb", "1,0"],
    ],
    ids=[
        "pr_q3_inputs", "unequal_lengths", "chained_promise_violation", "signaling_magic_square",
        "play_fa_wrong_length", "play_fa_outside_outputs", "exp_fa_wrong_length",
        "exp_fa_outside_outputs",
    ],
)
def test_inputs_that_do_not_fit_the_game_are_data_errors(capsys, tmp_path, argv):
    _fit_files(tmp_path)
    code, out, err = run(capsys, *[a.format(d=tmp_path) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "quad").exists() and not (tmp_path / "r.jsonl").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "--kind", "zeros", "--n", "8"], "--out"),
        (["exp", "--which", "theorem1", "--n", "8"], "--out"),
        (["gen", "--kind", "promise", "--n", "8", "--out", "{d}/p.syms"], "--out-b"),
        (_PLAY + _LOCAL, "--fa"),
        (_EXP, "--fa"),
        ([*_EXP[:2], "theorem2", *_EXP[3:]], "--fa"),
    ],
    ids=["gen", "exp", "promise_out_b", "play_local", "theorem1_local", "theorem2_local"],
)
def test_missing_out_is_usage_error(capsys, tmp_path, argv, flag):
    # a flag missing from the command line is a usage error, whether argparse
    # requires it or only another flag's value does
    _fit_files(tmp_path)
    code, _, err = run(capsys, *[a.format(d=tmp_path) for a in argv])
    assert code == 1 and flag in err and "Traceback" not in err


def _quad_files(directory):
    """The four .syms files of a pr-game quadruple, written without a manifest."""
    bits = SymbolString(2, bytes([0, 1, 1, 0] * 8))
    for name in "abxy":
        write_syms(directory / f"{name}.syms", bits)


_BESIDE = {k: f"{k}.syms" for k in "abxy"}  # the manifest's own directory


@pytest.mark.parametrize(
    "manifest",
    [
        {"schema": 1, "game": "pr", "files": {**_BESIDE, "a": 5}},
        {"schema": 1, "game": "pr", "files": ["a", "b", "x", "y"]},
        {"schema": 1, "game": "pr", "files": "ABSOLUTE"},
        {"schema": 1, "game": "pr", "files": {k: f"../{k}.syms" for k in "abxy"}},
        '{"schema": 1,',  # a string is the file's text: not JSON
        [1, "pr", _BESIDE],
        {"schema": 1, "game": "pr"},
        {"schema": 2, "game": "pr", "files": _BESIDE},
        {"schema": 1, "game": "chained", "m": 3, "files": _BESIDE},  # binary strings
        # json.loads would keep the last "game", which the strings fit
        '{"schema": 1, "game": "chained", "game": "pr", "files": ' + json.dumps(_BESIDE) + "}",
        # each equals 1, but the schema is the JSON integer 1
        {"schema": True, "game": "pr", "files": _BESIDE},
        {"schema": 1.0, "game": "pr", "files": _BESIDE},
        {"schema": 1, "game": "pr", "m": "garbage", "files": _BESIDE},
        '{"schema": ' + "1" * 5001 + ', "game": "pr", "files": ' + json.dumps(_BESIDE) + "}",
    ],
    ids=[
        "int_name", "list", "absolute", "dotdot",
        "not_json", "array", "missing_files", "schema_2", "strings_do_not_fit",
        "repeated_key", "schema_true", "schema_float", "pr_m_not_an_int", "schema_of_5001_digits",
    ],
)
def test_malformed_manifest_is_data_error(capsys, tmp_path, manifest):
    inner = tmp_path / "m"
    inner.mkdir()
    for directory in (tmp_path, inner):  # the targets exist, so only the check can refuse them
        _quad_files(directory)
    if isinstance(manifest, dict) and manifest.get("files") == "ABSOLUTE":
        manifest = {**manifest, "files": {k: str(tmp_path / f"{k}.syms") for k in "abxy"}}
    path = inner / "quad.json"
    path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
    code, out, err = run(capsys, "nosig", "--quad", str(path), "--estimator", "ctx_0")
    assert code == 2 and out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field",
    [{"eps": "banana"}, {"eps": "2"}, {"eps": "-1/2"}, {"eps": 0.5}, {"eps": True},
     {"eps": "1e-5000"}, {"seeds": 5}, {"seeds": ["sampler"]}, {"seeds": "x"}],
    ids=["eps_banana", "eps_above_one", "eps_negative", "eps_a_number", "eps_true",
         "eps_huge_exponent", "seeds_int", "seeds_list", "seeds_string"],
)
def test_manifest_eps_and_seeds_are_checked_when_it_is_loaded(capsys, tmp_path, field):
    # eps is null or a fraction in [0, 1] as save_quadruple writes it, and
    # seeds an object: a manifest is rejected, never half-read
    _quad_files(tmp_path)
    path = tmp_path / "quad.json"
    path.write_text(json.dumps({"schema": 1, "game": "pr", "files": _BESIDE, **field}))
    code, out, err = run(capsys, "nosig", "--quad", str(path), "--estimator", "ctx_0")
    assert (code, out) == (2, "") and "Traceback" not in err
    assert "manifest" in err and err.count("\n") == 1


@pytest.mark.parametrize("how", ["flag", "config"])
def test_removed_external_flag_is_usage_error(capsys, tmp_path, how):
    # every estimator is a built-in; the parser keeps an unlisted --external
    # only so that report headers still echo "external": null
    out = tmp_path / "r.jsonl"
    if how == "flag":
        _quad_files(tmp_path)
        argv = ["estimate", "--in", str(tmp_path / "x.syms"), "--external", "z=cat"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"external": ["z=cat"]}))
        argv = ["exp", "--which", "theorem3", "--n", "64", "--config", str(cfg)]
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 1 and stdout == ""
    assert "Traceback" not in err and "--external was removed" in err
    assert not out.exists()


def test_out_of_memory_exits_3_with_one_line_and_no_traceback(tmp_path):
    # 10^11 zeros are one allocation of 100 GB, refused at once under the 1
    # GiB address-space limit that only the child runs with; never run this
    # size without the limit
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(cli.__file__).parents[1])
    argv = ["gen", "--kind", "zeros", "--n", str(10**11), "--out", str(tmp_path / "z.syms")]
    proc = subprocess.run(
        [sys.executable, "-m", "nonlocality.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=cap,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["resource failure: out of memory"]
    # the run fails before its one write: no output and no temp file
    assert not (tmp_path / "z.syms").exists()
    assert list(tmp_path.glob(".z.syms.*.tmp")) == []


def test_abbreviated_flag_is_usage_error(capsys, tmp_path):
    # argparse took --conf for --config while the config scan did not, so
    # the file was never read; no flag has a second spelling now
    _quad_files(tmp_path)
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"estimator": "lz78"}))
    out = tmp_path / "o.json"
    argv = ["estimate", "--in", str(tmp_path / "x.syms"), "--out", str(out)]
    for extra in (["--conf", str(cfg)], ["--est", "lz78"]):
        code, stdout, err = run(capsys, *argv, *extra)
        assert code == 1 and stdout == "" and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["exp", "--which", "magic_square", "--out", "{d}/r.jsonl"], {"n": None}),
        (["gen", "--kind", "random", "--n", "8", "--out", "{d}/g.syms"], {"q": None}),
        (["estimate", "--in", "{d}/x.syms"], {"theta_zero": None}),
        (["oracle"], {"reps": None}),
        (["play", "--game", "pr", "--strategy", "nosig", "--a", "{d}/a.syms",
          "--b", "{d}/b.syms", "--out-dir", "{d}"], {"stem": None}),
    ],
    ids=["exp_n", "gen_q", "estimate_theta_zero", "oracle_reps", "play_stem"],
)
def test_config_null_leaves_the_flag_at_its_default(capsys, tmp_path, monkeypatch, argv, cfg):
    monkeypatch.setattr(cli, "DEFAULT_N", 64)  # exp's default n, kept small here
    _quad_files(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    argv = [a.format(d=tmp_path) for a in argv]
    runs = []
    for extra in ([], ["--config", str(tmp_path / "cfg.json")]):
        emitted = tmp_path / "emitted" / "cfg.json"
        emitted.parent.mkdir(exist_ok=True)
        code, out, err = run(capsys, *argv, *extra, "--emit-config", str(emitted))
        assert code == 0, err
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        runs.append((out, emitted.read_bytes(), files))
    # the same stdout, config echo and files: play writes no None.json
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["exp", "--which", "theorem3", "--m", "2", "--out", "{d}/r.jsonl"], {"n": 64.9}),
        (["exp", "--which", "theorem3", "--m", "2", "--out", "{d}/r.jsonl"], {"n": True}),
        (["gen", "--kind", "random", "--n", "8", "--out", "{d}/r.jsonl"], {"q": 2.5}),
        (["oracle", "--out", "{d}/r.jsonl"], {"help": True}),
    ],
    ids=["n_float", "n_true", "q_float", "help_key"],
)
def test_config_number_its_flag_text_would_refuse_is_data_error(capsys, tmp_path, argv, cfg):
    # --n 64.9 is refused, so {"n": 64.9} is too: it once ran n = 64
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, *[a.format(d=tmp_path) for a in argv], "--config", str(path))
    assert code == 2 and out == "" and "Traceback" not in err
    assert not (tmp_path / "r.jsonl").exists()


def test_config_number_is_read_as_its_json_text(capsys, tmp_path):
    # {"eps": 0.1} is the fraction 1/10, as --eps 0.1 is, not the float's value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eps": 0.1, "n": 64}))
    emitted = tmp_path / "emitted.json"
    code, _, err = run(
        capsys, "exp", "--which", "theorem3", "--m", "2", "--config", str(path),
        "--out", str(tmp_path / "r.jsonl"), "--emit-config", str(emitted),
    )
    assert code == 0, err
    echo = json.loads(emitted.read_text())
    assert echo["eps"] == "1/10" and echo["n"] == 64


def test_promise_gen_without_out_b_is_refused_before_it_generates(capsys, tmp_path, monkeypatch):
    def never(*args):
        pytest.fail("the promise inputs were generated before --out-b was checked")

    monkeypatch.setattr(cli, "gen_promise_inputs", never)
    out = tmp_path / "a.syms"
    code, _, err = run(capsys, "gen", "--kind", "promise", "--n", "8", "--out", str(out))
    assert code == 1 and "--out-b" in err and not out.exists()


_PLAY = ["play", "--game", "pr", "--strategy", "nosig", "--a", "{d}/a.syms", "--b", "{d}/b.syms"]


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "promise", "--m", "3", "--n", "8", "--out", "{d}/a.syms",
         "--out-b", "{d}/a.syms"],
        ["exp", "--which", "theorem2", "--n", "64", "--out", "{d}/r.txt", "--csv", "{d}/r.txt"],
        [*_PLAY, "--out-dir", "{d}/d", "--stem", "quad", "--out", "{d}/d/quad.json"],
        ["gen", "--kind", "zeros", "--n", "8", "--out", "{d}/z.syms", "--emit-config",
         "{d}/./z.syms"],
    ],
    ids=["gen_out_b", "exp_csv", "play_manifest", "emit_config"],
)
def test_two_outputs_that_name_one_file_are_refused_before_any_work(capsys, tmp_path, argv):
    # one output would overwrite the other: the run writes nothing
    _quad_files(tmp_path)
    before = {path: path.read_bytes() for path in tmp_path.rglob("*")}
    code, out, err = run(capsys, *(a.format(d=tmp_path) for a in argv))
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "name the same file" in err
    assert {path: path.read_bytes() for path in tmp_path.rglob("*")} == before


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "zeros", "--n", "8", "--out", "{d}/a.syms", "--emit-config", "{d}/dir"],
        ["exp", "--which", "theorem2", "--out", ""],
        ["exp", "--which", "theorem2", "--n", "64", "--out", "{d}/r.jsonl", "--csv", "{d}/dir"],
        ["estimate", "--in", "{d}/x.syms", "--out", ""],
        ["estimate", "--in", "{d}/x.syms", "--emit-config", ""],
        [*_PLAY, "--out-dir", "{d}", "--stem", "dir"],
        [*_PLAY, "--out", "{d}/dir"],
    ],
    ids=["emit_config_dir", "exp_empty_out", "exp_csv_dir", "estimate_empty_out",
         "empty_emit_config", "play_manifest_dir", "play_out_dir"],
)
def test_an_output_that_is_empty_or_a_directory_is_refused_before_any_work(
    capsys, tmp_path, monkeypatch, argv
):
    # such an output could never be written: the run does no work and
    # writes nothing (an empty --out once meant stdout for estimate)
    ran = []
    for name in ("gen", "play", "estimate", "exp"):
        monkeypatch.setattr(cli, f"_cmd_{name}", lambda args: ran.append(args) or (None, []))
    _quad_files(tmp_path)
    (tmp_path / "dir.json").mkdir()
    (tmp_path / "dir").mkdir()
    before = {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")}
    code, out, err = run(capsys, *(a.format(d=tmp_path) for a in argv))
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "an output must name a file" in err and ran == []
    assert {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")} == before


def test_play_writes_its_quadruple_all_or_nothing(capsys, tmp_path, monkeypatch):
    _quad_files(tmp_path)
    argv = [a.format(d=tmp_path) for a in _PLAY]
    quad = tmp_path / "quad"
    assert run(capsys, *argv, "--seed", "1", "--out-dir", str(quad))[0] == 0
    before = {path.name: path.read_bytes() for path in quad.iterdir()}
    assert sorted(before) == [
        "quad.a.syms", "quad.b.syms", "quad.json", "quad.x.syms", "quad.y.syms"
    ]

    def full(self, *args, **kwargs):
        raise OSError(28, "No space left on device")

    # the manifest, staged last, cannot be written: the .syms files staged
    # before it go, the old quadruple stays, and a missing --out-dir is not made
    monkeypatch.setattr(Path, "write_text", full)
    for out_dir in (quad, tmp_path / "new" / "quad"):
        code, _, err = run(capsys, *argv, "--seed", "2", "--out-dir", str(out_dir))
        assert code == 2 and "No space left" in err and "Traceback" not in err
        assert {path.name: path.read_bytes() for path in quad.iterdir()} == before
        assert not (tmp_path / "new").exists()
    monkeypatch.undo()
    assert run(capsys, *argv, "--seed", "2", "--out-dir", str(tmp_path / "new" / "quad"))[0] == 0
    after = {path.name: path.read_bytes() for path in (tmp_path / "new" / "quad").iterdir()}
    assert sorted(after) == sorted(before) and after != before


def test_exp_writes_its_report_and_csv_all_or_nothing(capsys, tmp_path):
    report = tmp_path / "ok.jsonl"
    report.write_bytes(b"kept\n")
    argv = ["exp", "--which", "theorem2", "--estimator", "ctx_2", "--n", "256", "--seed", "1"]
    code, _, err = run(
        capsys, *argv, "--out", str(report), "--csv", str(tmp_path / "missing" / "x.csv")
    )
    assert code == 2 and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == [report] and report.read_bytes() == b"kept\n"
    code, _, _ = run(capsys, *argv, "--out", str(report), "--csv", str(tmp_path / "x.csv"))
    assert code == 0 and report.read_bytes() != b"kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.jsonl", "x.csv"]


def test_gen_writes_both_promise_inputs_or_neither(capsys, tmp_path):
    first = tmp_path / "a.syms"
    argv = ["gen", "--kind", "promise", "--m", "3", "--n", "8", "--seed", "1", "--out", str(first)]
    code, _, err = run(capsys, *argv, "--out-b", str(tmp_path / "missing" / "b.syms"))
    assert code == 2 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
    assert run(capsys, *argv, "--out-b", str(tmp_path / "b.syms"))[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.syms", "b.syms"]


def test_a_failed_run_writes_neither_its_out_nor_its_emitted_config(capsys, tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "est.json"
    argv = ["estimate", "--in", str(tmp_path / "missing.syms"), "--out", str(out)]
    code, _, err = run(capsys, *argv, "--emit-config", str(cfg))
    assert code == 2 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
    write_syms(tmp_path / "missing.syms", SymbolString(2, bytes(64)))
    assert run(capsys, *argv, "--emit-config", str(cfg))[0] == 0
    assert json.loads(cfg.read_text())["infile"] == str(tmp_path / "missing.syms")
    assert json.loads(out.read_text())["n"] == 64


def test_a_run_whose_write_fails_prints_nothing_on_stdout(capsys, tmp_path, monkeypatch):
    # the result describes files that exist: stdout is written only after
    # every output, so a run that fails to write one prints no result
    monkeypatch.chdir(tmp_path)
    write_syms(tmp_path / "tm.syms", SymbolString(2, bytes(v & 1 for v in range(64))))
    code, out, err = run(capsys, "estimate", "--in", "tm.syms", "--emit-config", "nodir/cfg.json")
    assert (code, out) == (2, "") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tm.syms"]


def test_a_play_whose_manifest_cannot_be_staged_prints_no_summary(capsys, tmp_path, monkeypatch):
    _quad_files(tmp_path)
    argv = [a.format(d=tmp_path) for a in _PLAY]

    def full(self, *args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", full)
    code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path / "quad"))
    assert (code, out) == (2, "") and "No space left" in err
    assert not (tmp_path / "quad").exists()


def test_a_failed_write_names_the_output_not_its_temp_file(tmp_path):
    # each run stages under its own PID: two runs in two processes print
    # the same line, which names the path the user gave
    write_syms(tmp_path / "tm.syms", SymbolString(2, bytes(64)))
    argv = [sys.executable, "-m", "nonlocality.cli", "estimate", "--in", "tm.syms",
            "--emit-config", "nodir/cfg.json"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    lines = []
    for _ in range(2):
        proc = subprocess.run(
            argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        lines.append(proc.stderr)
    assert lines[0] == lines[1] and lines[0].count("\n") == 1
    assert "'nodir/cfg.json'" in lines[0] and ".tmp" not in lines[0]


# the flags that read numbers; seeds, tables and paths are strings, and a
# JSON number for one of them is refused
NUMERIC_DESTS = {
    "n", "q", "m", "reps", "jobs", "eps", "pr_weight", "theta_zero", "theta_full", "theta_ns",
    "defect_threshold", "output_threshold",
}
# each subcommand's required flags, so that any one flag can be drawn
REQUIRED = {
    "gen": {"--kind": "zeros", "--n": "8", "--out": "o.syms"},
    "play": {"--game": "pr", "--strategy": "nosig", "--a": "a.syms", "--b": "b.syms"},
    "estimate": {"--in": "x.syms"},
    "nosig": {"--quad": "q.json"},
    "locality": {"--quad": "q.json"},
    "oracle": {},
    "exp": {"--which": "theorem1", "--out": "r.jsonl"},
}
TEXTS = st.one_of(
    st.sampled_from(
        ["0", "1", "2", "8", "64", "257", "-1", "0.1", "1e3", "1/2", "1/0", "nan", "inf",
         "ab", "zz", "0,1", "1,0", "pr", "lz77", ""]
    ),
    st.text(max_size=5),
)
NUMBERS = st.one_of(
    st.integers(-3, 300), st.floats(), st.sampled_from([0.1, 0.25, 64.9, 2.5, 1e300])
)


def _config_flags():
    """(subcommand, action) for every flag a config can set."""
    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (cmd, action)
        for cmd, sp in commands.choices.items()
        for action in sp._actions
        if action.dest not in ("help", "config", "emit_config")
    ]


def _quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_config_value_is_read_as_its_flag_text(monkeypatch, data):
    # the handlers are not run: this is about what the parser hands them
    for name in ("gen", "play", "estimate", "nosig", "locality", "oracle", "exp"):
        monkeypatch.setattr(cli, f"_cmd_{name}", lambda args: (None, []))
    cmd, action = data.draw(st.sampled_from(_config_flags()), label="flag")
    flag = action.option_strings[0]
    if action.nargs == 0:  # a switch: the bare flag unless the value is the default
        value = data.draw(st.booleans(), label="value")
        flags = [flag] if value != action.default else []
    else:
        texts = st.sampled_from(action.choices) | TEXTS if action.choices else TEXTS
        if isinstance(action, argparse._AppendAction):
            value = data.draw(st.lists(texts, min_size=1, max_size=2), label="value")
        else:
            value = data.draw(texts | NUMBERS, label="value")
        items = value if isinstance(value, list) else [value]
        flags = [f"{flag}={v if isinstance(v, str) else json.dumps(v)}" for v in items]
    base = [t for opt, v in REQUIRED[cmd].items() if opt != flag for t in (opt, v)]
    with tempfile.TemporaryDirectory() as tmp, monkeypatch.context() as mp:
        # a drawn --out-dir such as "2.5" is made relative to the working
        # directory, so that is the temp directory, not the checkout
        mp.chdir(tmp)
        d = Path(tmp)
        (d / "cfg.json").write_text(json.dumps({action.dest: value}))
        code_flag, err_flag = _quiet_main([cmd, *base, *flags, "--emit-config", str(d / "a")])
        code_cfg, err_cfg = _quiet_main(
            [cmd, *base, "--config", str(d / "cfg.json"), "--emit-config", str(d / "b")]
        )
        if type(value) in (int, float) and action.dest not in NUMERIC_DESTS:
            assert code_cfg == 2 and not (d / "b").exists(), err_cfg
            return
        drawn = value if isinstance(value, list) else [value]
        if any(isinstance(v, str) and "\0" in v for v in drawn):
            # no command line can hold a NUL, so a config refuses it as data
            assert code_cfg == 2 and not (d / "b").exists(), err_cfg
            return
        assert code_flag in (0, 1), err_flag
        if code_flag == 0:
            assert code_cfg == 0, err_cfg
            assert (d / "b").read_bytes() == (d / "a").read_bytes()
        else:
            # a value its flag's type or choices refuse is a data error in a
            # config; the checks across flags are usage errors either way
            expected = 2 if f"argument {flag}" in err_flag else 1
            assert code_cfg == expected, (err_flag, err_cfg)
            assert not (d / "b").exists()


def test_an_interrupt_exits_130_with_one_line_and_no_file(capsys, monkeypatch, tmp_path):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_gen", interrupted)
    try:
        code = main(["gen", "--kind", "zeros", "--n", "8", "--out", str(tmp_path / "z.syms"),
                     "--emit-config", str(tmp_path / "cfg.json")])
    except KeyboardInterrupt:  # would stop the whole test run
        pytest.fail("KeyboardInterrupt escaped main")
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (130, "", "interrupted\n")
    assert list(tmp_path.iterdir()) == []


def test_a_sigint_at_a_fixed_point_exits_130_and_leaves_no_file(tmp_path):
    # the child sends SIGINT to itself once --out's temp file is written, so
    # the test has no timing race and signals no other process
    child = (
        "import os, signal, sys\n"
        "from nonlocality import cli\n"
        "write = cli.write_syms\n"
        "def write_then_interrupt(path, s):\n"
        "    write(path, s)\n"
        "    os.kill(os.getpid(), signal.SIGINT)\n"
        "cli.write_syms = write_then_interrupt\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["gen", "--kind", "zeros", "--n", "8", "--out", "z.syms", "--emit-config", "cfg.json"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, "", "interrupted\n")
    assert list(tmp_path.iterdir()) == []
