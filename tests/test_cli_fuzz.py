"""Fuzz of the CLI's exit-code contract: whatever the argv and the contents
of the files it names, `nlbox` exits 0, 1, 2 or 3 and prints no traceback.

Sizes stay small (n <= 64, reps <= 2, no magic-square repetition) so every
example runs in well under a second; `--jobs` is never drawn, so no process
is started.
"""
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nonlocality.cli import main
from nonlocality.strings import SymbolString, pack_symbols, write_syms

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.5, float("inf"), float("nan"), 1e300]),
    st.sampled_from(["", "x", "1/0", "1/2", "0,1", "..", "/", "lz77", "pr", "-1"]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# config keys: flags of every subcommand plus junk; never jobs or reps
CONFIG_KEYS = [
    "kind", "n", "q", "m", "seed", "game", "strategy", "eps", "fa", "fb", "a", "b",
    "in", "cond", "theta_zero", "theta-ns", "witness", "estimator", "external",
    "which", "fine", "marginals", "pr_weight", "out", "csv", "func", "cmd", "bogus",
]
FILES = ["s.syms", "a.syms", "b.syms", "quad.json", "dist.json", "cfg.json", "missing", "."]
VALID_QUAD = {"schema": 1, "game": "pr", "files": dict(zip("abxy", ["a.syms", "b.syms"] * 2))}


def _syms_bytes(draw) -> bytes:
    kind = draw(st.sampled_from(["valid", "random", "header"]))
    if kind == "random":
        return draw(st.binary(max_size=24))
    if kind == "header":
        q, n = draw(st.integers(-1, 300)), draw(st.integers(-2, 70))
        return f"SYMS q={q} n={n}\n".encode() + draw(st.binary(max_size=12))
    q = draw(st.integers(2, 5))
    symbols = bytes(v % q for v in draw(st.binary(max_size=64)))
    return f"SYMS q={q} n={len(symbols)}\n".encode() + pack_symbols(symbols, q)


def _manifest(draw):
    choice = draw(st.integers(0, 3))
    if choice < 2:
        return VALID_QUAD
    if choice == 2:
        return draw(JSON_VALUES)
    names = st.sampled_from(["s.syms", "a.syms", "b.syms", "../a.syms", "/a.syms", "", 5])
    files = draw(
        st.one_of(
            st.fixed_dictionaries({k: names for k in "abxy"}),
            st.dictionaries(st.sampled_from("abxyz"), names, max_size=5),
            JSON_VALUES,
        )
    )
    manifest = {"schema": draw(st.sampled_from([1, 2, "1"])), "files": files}
    manifest["game"] = draw(st.sampled_from(["pr", "chained", "magic_square", "x", 1]))
    if draw(st.booleans()):
        manifest["m"] = draw(JSON_SCALARS)
    return manifest


def _distribution(draw):
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    keys = st.sampled_from(["0,0,0,0", "0,1,1,1", "1,1,0,1", "1,1,1,0", "5,5,0,0", "0,0", "a"])
    values = st.one_of(JSON_SCALARS, st.sampled_from(["1/2", "1", "-1/2"]))
    dist = {"game": draw(st.sampled_from(["pr", "chained", "magic_square", None]))}
    dist["p"] = draw(st.one_of(st.dictionaries(keys, values, max_size=6), JSON_VALUES))
    if draw(st.booleans()):
        dist["m"] = draw(JSON_SCALARS)
    return dist


def _config(draw):
    if _rare(draw):
        return draw(JSON_VALUES)
    return draw(st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES, max_size=4))


def _rare(draw) -> bool:
    # Hypothesis leans towards the ends of a range, so test a middle value
    return draw(st.integers(0, 7)) == 5


def _argv(draw, d: Path) -> list:
    def pick(good, bad=()):
        """Mostly a value the flag accepts, sometimes one it must refuse."""
        pool = bad if bad and _rare(draw) else good
        return draw(st.sampled_from(pool))

    def path(name):
        return str(d / pick([name], FILES))

    def opt(flag, good, bad=()):
        if draw(st.booleans()):
            argv.extend([flag, pick(good, bad)])

    sizes, bad_sizes = ["8", "64", "1"], ["0", "-1", "x", "1e3"]
    estimators = ["lz77", "lz78", "ctx_0", "ctx_3"], ["nope", "external:z"]
    cmd = pick(["gen", "play", "estimate", "nosig", "locality", "oracle", "exp"])
    argv = [cmd]
    if cmd == "gen":
        argv += ["--kind", pick(["zeros", "thue_morse", "random", "promise"], ["x"])]
        argv += ["--n", pick(sizes, bad_sizes), "--out-b", str(d / "out_b")]
        opt("--q", ["2", "7", "256"], ["1", "257"])
        opt("--m", ["2", "5", "256"], ["1", "300"])
        opt("--seed", ["0", "ab"], ["-1", "zz"])
    elif cmd == "play":
        argv += ["--game", pick(["pr", "chained", "magic_square"])]
        argv += ["--strategy", pick(["nosig", "signaling", "local"])]
        argv += ["--a", path("a.syms"), "--b", path("b.syms"), "--out-dir", str(d / "quad")]
        opt("--m", ["2", "3"], ["0"])
        opt("--eps", ["0", "1/8"], ["2", "1/0", "x"])
        opt("--fa", ["0,1", "1,1"], ["0,9", "x", "0,1,2"])
        opt("--fb", ["1,0"], ["0"])
        opt("--noise-seed", ["1"], ["-1"])
    elif cmd == "estimate":
        argv += ["--in", path("s.syms"), "--estimator", pick(*estimators)]
        opt("--cond", [str(d / "s.syms")], [str(d / "quad.json")])
        opt("--theta-zero", ["0.1"], ["0.95", "nan"])
    elif cmd in ("nosig", "locality"):
        argv += ["--quad", path("quad.json"), "--estimator", pick(*estimators)]
        if cmd == "locality":
            opt("--witness", [str(d / "s.syms")], [str(d / "missing")])
            opt("--defect-threshold", ["0.25"], ["x"])
    elif cmd == "oracle":
        mode = pick(["value", "fine", "marginals"])
        if mode == "fine":
            argv += ["--fine", path("dist.json")]
        elif mode == "marginals":
            argv += ["--marginals"]
            opt("--pr-weight", ["1", "3/4"], ["2", "1/0", "x"])
        else:
            # magic_square and chained(4) are left out at reps=2: seconds each
            game, m, reps = pick(
                [("pr", "2", "1"), ("pr", "2", "2"), ("chained", "3", "2"), ("chained", "9", "1"),
                 ("magic_square", "2", "1")],
                [("pr", "2", "0"), ("pr", "2", "x"), ("chained", "1", "1"), ("chained", "5", "2")],
            )
            argv += ["--game", game, "--m", m, "--reps", reps]
    else:
        argv += ["--which", pick(
            ["theorem1", "theorem2", "theorem3", "magic_square", "locality_suite"], ["x"])]
        argv += ["--n", pick(sizes, bad_sizes)]
        opt("--m", ["2", "8", "64"], ["1", "65"])
        opt("--eps", ["1/64"], ["2", "1/0"])
        opt("--strategy", ["nosig", "signaling", "local"])
        opt("--fa", ["0,1"], ["x", "5,5"])
        opt("--fb", ["1,0"], ["5,5"])
        opt("--csv", [str(d / "out.csv")])
    if cmd in ("gen", "exp"):  # --out is required there
        argv += ["--out", pick([str(d / "out")], [str(d)])]
    else:
        opt("--out", [str(d / "out")], [str(d)])
    if _rare(draw):
        argv += ["--config", path("cfg.json")]
    opt("--emit-config", [str(d / "emitted.json")])
    if _rare(draw):
        argv.insert(draw(st.integers(0, len(argv))), pick(["--bogus", "x", "--"]))
    return argv


@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.data())
def test_cli_exit_code_contract(data):
    draw = data.draw
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "s.syms").write_bytes(_syms_bytes(draw))
        pr_inputs = SymbolString(2, bytes(v & 1 for v in range(draw(st.integers(0, 64)))))
        write_syms(d / "a.syms", pr_inputs)
        write_syms(d / "b.syms", pr_inputs)
        (d / "quad.json").write_text(json.dumps(_manifest(draw)))
        (d / "dist.json").write_text(json.dumps(_distribution(draw)))
        (d / "cfg.json").write_text(json.dumps(_config(draw)))
        argv = _argv(draw, d)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
