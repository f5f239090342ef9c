import json
import sys

import pytest

from nonlocality.cli import main
from nonlocality.strings import SymbolString, write_syms


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
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
    code, _, _ = run(capsys, "estimate", "--in", str(f), "--estimator", "nope")
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
    ],
    ids=["array", "p_array", "key", "m", "outside_alphabet", "off_promise"],
)
def test_oracle_fine_malformed_distribution_is_data_error(capsys, tmp_path, dist):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(dist))
    code, _, err = run(capsys, "oracle", "--fine", str(path))
    assert code == 2
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "cfg",
    [
        {"n": [1]}, {"seed": 5}, {"estimator": []}, {"csv": 5}, {"m": 1},
        {"eps": "1/0"}, {"eps": float("inf")}, {"fa": 5}, {"func": "x"},
    ],
    ids=[
        "n_list", "seed_int", "estimator_list", "csv_int", "m_1",
        "eps_zero_denominator", "eps_infinite", "fa_int", "unknown_key",
    ],
)
def test_config_value_of_wrong_type_is_data_error(capsys, tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r.jsonl"
    code, _, err = run(
        capsys, "exp", "--which", "theorem1", "--config", str(path), "--out", str(out)
    )
    assert code == 2
    assert not out.exists()


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
    ],
    ids=[
        "exp_n_zero", "exp_n_negative", "exp_n_text", "gen_n_negative", "q_1", "q_257",
        "reps_0", "gen_m_1", "gen_m_300", "exp_m_1", "exp_m_65", "eps_zero_denominator",
        "pr_weight_zero_denominator",
    ],
)
def test_bad_size_is_usage_error(capsys, tmp_path, argv):
    out = tmp_path / "out"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 1
    assert "Traceback" not in err and not out.exists()


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
    "argv",
    [["gen", "--kind", "zeros", "--n", "8"], ["exp", "--which", "theorem1", "--n", "8"]],
    ids=["gen", "exp"],
)
def test_missing_out_is_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1 and "--out" in err and "Traceback" not in err


def _quad_files(directory):
    """The four .syms files of a pr-game quadruple, written without a manifest."""
    bits = SymbolString(2, bytes([0, 1, 1, 0] * 8))
    for name in "abxy":
        write_syms(directory / f"{name}.syms", bits)


@pytest.mark.parametrize(
    "files",
    [
        {"a": 5, "b": "b.syms", "x": "x.syms", "y": "y.syms"},
        ["a", "b", "x", "y"],
        "ABSOLUTE",
        {k: f"../{k}.syms" for k in "abxy"},
    ],
    ids=["int_name", "list", "absolute", "dotdot"],
)
def test_malformed_manifest_is_data_error(capsys, tmp_path, files):
    _quad_files(tmp_path)  # the targets exist, so only the check can refuse them
    if files == "ABSOLUTE":
        files = {k: str(tmp_path / f"{k}.syms") for k in "abxy"}
    inner = tmp_path / "m"
    inner.mkdir()
    manifest = inner / "quad.json"
    manifest.write_text(json.dumps({"schema": 1, "game": "pr", "files": files}))
    code, out, err = run(capsys, "nosig", "--quad", str(manifest), "--estimator", "ctx_0")
    assert code == 2 and out == ""
    assert "Traceback" not in err


def test_external_estimator_through_the_cli(capsys, tmp_path):
    cat = f"{sys.executable} -c 'import sys;sys.stdout.buffer.write(sys.stdin.buffer.read())'"
    ext = ["--external", f"z={cat}", "--estimator", "external:z"]
    _quad_files(tmp_path)
    manifest = tmp_path / "quad.json"
    files = {k: f"{k}.syms" for k in "abxy"}
    manifest.write_text(json.dumps({"schema": 1, "game": "pr", "files": files}))
    code, out, _ = run(capsys, "estimate", "--in", str(tmp_path / "x.syms"), *ext)
    assert code == 0
    payload = json.loads(out)
    # the payload is 32 bits packed into 4 bytes, echoed by cat
    assert payload["estimator"] == "external:z" and payload["bits"] == 8 * 4 + 32
    code, out, _ = run(capsys, "nosig", "--quad", str(manifest), *ext)
    assert code == 0 and json.loads(out)["estimator"] == "external:z"
