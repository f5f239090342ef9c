"""Command-line front end.

Subcommands: gen, play, estimate, nosig, locality, oracle, exp.
Exit codes: 0 success, 1 usage error, 2 data/format error (FormatError,
OSError), 3 estimator or oracle failure (EstimatorError, OracleError,
MemoryError) or any other exception, a fault of the toolkit, which prints
"internal error: TYPE: message (at FILE:LINE)", FILE:LINE being the frame
that raised it, and 130 interrupted (KeyboardInterrupt, as SIGINT raises),
which prints "interrupted". Results go to stdout or --out; logs go to
stderr. Each handler returns (text, writes): its JSON result (None for gen
and exp) and its files as (path, write) pairs. main writes them, --out and
--emit-config too, in one strings.write_all, all or none, then prints text.

A JSON config file (--config) stands for the flags it names, read before
the command line, so explicit flags win. Its keys are flag dests, as
--emit-config writes them; each value is read as its flag's text, a JSON
number only by a numeric flag, and null leaves the flag unset. No flag can
be abbreviated. --emit-config writes the effective configuration, which
reproduces the run when fed back via --config.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .complexity import (
    THETA_FULL_DEFAULT,
    THETA_ZERO_DEFAULT,
    classify_value,
    estimate_k,
    estimate_k_cond,
    frac_str,
)
from .estimators import EstimatorError, get_estimator
from .experiments import (
    DEFAULT_N,
    SeedSet,
    run_locality_suite,
    run_magic_square,
    run_theorem1,
    run_theorem2,
    run_theorem3,
)
from .games import (
    GAME_KINDS,
    LocalDeterministic,
    LocalityThresholds,
    NoSignalingSampler,
    Quadruple,
    SignalingSampler,
    THETA_NS_DEFAULT,
    file_stem,
    load_quadruple,
    locality_verdict,
    ns_report,
    parse_game,
    play,
    quadruple_files,
    satisfaction_fraction,
    save_quadruple,
)
from .oracles import (
    Distribution,
    OracleError,
    fine_membership,
    game_value_exact,
    marginal_extremes,
    replay_witness,
)
from .strings import (
    COMPUTABLE_KINDS,
    FormatError,
    Seed,
    SymbolString,
    gen_computable,
    gen_promise_inputs,
    gen_seeded_random,
    parse_fraction,
    read_json,
    read_syms,
    write_all,
    write_syms,
)

class _Parser(argparse.ArgumentParser):
    """argparse, but no flag is abbreviated."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


class _UsageError(Exception):
    """A usage error that argparse cannot see: a flag that only some values
    of another flag require, two outputs that name one file, or an argument
    that holds a NUL. Exit 1, like argparse's own."""


def _parse_seed(text: str) -> Seed:
    try:
        return Seed.from_int(int(text, 10))
    except ValueError:
        return Seed.from_hex(text)


def _seed_text(text: str) -> str:
    """argparse type of --seed/--noise-seed: a decimal integer in
    [0, 2**256) or at most 64 hex digits. The text itself is kept, so the
    emitted config and the report header echo it verbatim."""
    try:
        _parse_seed(text)
    except (TypeError, ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"bad seed: {text!r}") from exc
    return text


def _bounded_int(text, lo: int, hi: int | None = None) -> int:
    try:
        value = int(text)
    except (TypeError, ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < lo or (hi is not None and value > hi):
        bound = f"in {lo}..{hi}" if hi is not None else f">= {lo}"
        raise argparse.ArgumentTypeError(f"must be {bound}: {text!r}")
    return value


def _length(text) -> int:
    """argparse type of gen --n: a string length, 0 allowed."""
    return _bounded_int(text, 0)


def _positive(text) -> int:
    """argparse type of exp --n and --jobs, and of oracle --reps and --jobs."""
    return _bounded_int(text, 1)


def _alphabet(text) -> int:
    """argparse type of --q and of the --m of gen, play and oracle: symbols
    are stored one per byte, a chained game's inputs too."""
    return _bounded_int(text, 2, 256)


def _ring(text) -> int:
    """argparse type of exp --m: the ring sizes of the theorem-3 run."""
    return _bounded_int(text, 2, 64)


def _probability(text) -> Fraction:
    """argparse type of --eps and --pr-weight: strings.parse_fraction."""
    try:
        return parse_fraction(text)
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _threshold(text) -> float:
    """argparse type of --theta-ns, --defect-threshold and
    --output-threshold: a finite number >= 0, so reports stay JSON."""
    try:
        value = float(text)
    except (TypeError, ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0 <= value < float("inf"):  # NaN fails every comparison
        raise argparse.ArgumentTypeError(f"must be finite and >= 0: {text!r}")
    return value


def _rate_threshold(text) -> float:
    """argparse type of --theta-zero and --theta-full: a rate in [0, 1]."""
    value = _threshold(text)
    if value > 1:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1]: {text!r}")
    return value


def _parse_table(text) -> tuple:
    """argparse type of --fa/--fb: comma-separated output symbols."""
    try:
        return tuple(int(v) for v in text.split(","))
    except (AttributeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated table: {text!r}") from exc


def _strategy_from_args(args):
    if args.strategy == "nosig":
        return NoSignalingSampler(args.eps if args.eps is not None else Fraction(0))
    if args.strategy == "signaling":
        return SignalingSampler()
    if args.fa is None or args.fb is None:
        raise _UsageError("local strategy requires --fa and --fb")
    return LocalDeterministic(args.fa, args.fb)


def _outputs(args) -> list:
    """Every file the run writes, as its flags name them."""
    paths = [getattr(args, dest, None) for dest in ("out", "out_b", "csv", "emit_config")]
    if args.cmd == "play":
        paths += quadruple_files(args.out_dir, args.stem)
    return [path for path in paths if path is not None]


def _json(payload: dict, indent: int | None = 2) -> str:
    return json.dumps(payload, indent=indent, sort_keys=True) + "\n"


# --- subcommand handlers -------------------------------------------------------


def _cmd_gen(args) -> tuple:
    seed = _parse_seed(args.seed) if args.seed else Seed.from_int(0)
    if args.kind == "random":
        strings = {args.out: gen_seeded_random(args.n, args.q, seed)}
    elif args.kind == "promise":
        if not args.out_b:
            raise _UsageError("promise generation needs --out and --out-b")
        strings = dict(zip((args.out, args.out_b), gen_promise_inputs(args.m, args.n, seed)))
    else:
        strings = {args.out: gen_computable(args.kind, args.n)}
    return None, [(path, lambda temp, s=s: write_syms(temp, s)) for path, s in strings.items()]


def _cmd_play(args) -> tuple:
    game = parse_game(args.game, args.m)
    strategy = _strategy_from_args(args)
    a = read_syms(args.a)
    b = read_syms(args.b)
    seed = _parse_seed(args.seed)
    noise = _parse_seed(args.noise_seed) if args.noise_seed else None
    x, y = play(strategy, game, a, b, seed, noise)
    quad = Quadruple(game, a, b, x, y)
    eps = args.eps if args.strategy == "nosig" else None
    seeds = {"sampler": seed.hex(), "noise": noise.hex() if noise else None}
    writes = save_quadruple(quad, args.out_dir, args.stem, eps=eps, seeds=seeds)
    manifest = writes[-1][0]
    # one line, as play has always printed it
    summary = {"manifest": str(manifest), "satisfaction": frac_str(satisfaction_fraction(quad))}
    return _json(summary, indent=None), writes


def _cmd_estimate(args) -> tuple:
    estimator = get_estimator(args.estimator)
    s = read_syms(args.infile)
    if args.cond:
        conds = [read_syms(p) for p in args.cond]
        est = estimate_k_cond(s, conds, estimator)
    else:
        est = estimate_k(s, estimator)
    payload = {
        "estimator": est.estimator_id,
        "n": est.n,
        "q": est.q,
        "bits": est.bits,
        "rate": est.rate,
        "class": classify_value(est.rate, args.theta_zero, args.theta_full),
        "thresholds": {"theta_zero": args.theta_zero, "theta_full": args.theta_full},
    }
    return _json(payload), []


def _cmd_nosig(args) -> tuple:
    estimator = get_estimator(args.estimator)
    quad = load_quadruple(args.quad)
    rep = ns_report(quad, estimator, args.theta_ns)
    payload = {
        "estimator": rep.estimator_id,
        "rate_x_given_a": rep.rate_x_given_a,
        "rate_x_given_ab": rep.rate_x_given_ab,
        "rate_y_given_b": rep.rate_y_given_b,
        "rate_y_given_ab": rep.rate_y_given_ab,
        "delta_x": rep.delta_x,
        "delta_y": rep.delta_y,
        "theta_ns": rep.theta_ns,
        "x_side_ok": rep.x_side_ok,
        "y_side_ok": rep.y_side_ok,
        "passes": rep.passes,
    }
    return _json(payload), []


def _cmd_locality(args) -> tuple:
    estimator = get_estimator(args.estimator)
    quad = load_quadruple(args.quad)
    if args.witness:
        lam = read_syms(args.witness)
    else:
        lam = SymbolString(2, b"")
    thresholds = LocalityThresholds(
        defect=args.defect_threshold, output=args.output_threshold
    )
    v = locality_verdict(quad, lam, estimator, thresholds)
    payload = {
        "estimator": v.estimator_id,
        "verdict": v.verdict,
        "independence_defect": v.independence_defect,
        "rate_x": v.rate_x,
        "rate_y": v.rate_y,
        "thresholds": {
            "defect": thresholds.defect,
            "output": thresholds.output,
        },
    }
    return _json(payload), []


def _read_distribution(path) -> Distribution:
    """The --fine distribution file. Each "p" key is spelled exactly
    f"{a},{b},{x},{y}", as its four ints print, and each value is an exact
    fraction: a string, or a JSON number read from its text (0.1 is 1/10)."""
    data = read_json(path, "distribution", parse_float=_JSONNumber, parse_constant=_JSONNumber)
    if not isinstance(data.get("p", {}), dict):
        raise FormatError('distribution "p" must be a JSON object')
    game = parse_game(data.get("game"), data.get("m", 2))
    table = {}
    for key, val in data.get("p", {}).items():
        try:
            parts = tuple(int(v) for v in key.split(","))
            if isinstance(val, bool) or not isinstance(val, (int, str)):
                raise TypeError("a probability is a string or a number")
            table[parts] = parse_fraction(str(val))
        except (TypeError, ValueError) as exc:
            raise FormatError(f"bad distribution entry {key!r}: {val!r}") from exc
        if len(parts) != 4 or key != ",".join(map(str, parts)):
            raise FormatError(f"bad distribution key: {key!r}")
    return Distribution(game, table)


def _cmd_oracle(args) -> tuple:
    if args.marginals:
        weight = args.pr_weight if args.pr_weight is not None else Fraction(1)
        lo, hi = marginal_extremes(weight, args.no_signaling)
        return _json({"min": frac_str(lo), "max": frac_str(hi)}), []
    if args.fine:
        res = fine_membership(_read_distribution(args.fine))
        if res.local:
            payload = {
                "membership": "Local",
                "weights": [
                    {"weight": frac_str(w), "fa": list(fa), "fb": list(fb)}
                    for w, fa, fb in res.weights
                ],
            }
        else:
            payload = {
                "membership": "NonLocal",
                "certificate": {
                    ",".join(map(str, k)): frac_str(v)
                    for k, v in res.certificate.items()
                },
                "value_on_dist": frac_str(res.value_on_dist),
                "vertex_max": frac_str(res.vertex_max),
            }
        return _json(payload), []
    game = parse_game(args.game, args.m)
    res = game_value_exact(game, reps=args.reps, jobs=args.jobs)
    payload = {
        "game": res.game_label,
        "reps": res.reps,
        "value": frac_str(res.value),
        "replay": frac_str(replay_witness(game, res)),
        "fa": [list(v) for v in res.fa],
        "fb": [list(v) for v in res.fb],
        "a_blocks": [list(v) for v in res.a_blocks],
        "b_blocks": [list(v) for v in res.b_blocks],
        "nodes": res.nodes,
        "prunes": res.prunes,
    }
    return _json(payload), []


def _cmd_exp(args) -> tuple:
    estimator = get_estimator(args.estimator)
    seed_set = SeedSet.from_master(_parse_seed(args.seed))
    t0 = time.monotonic()
    if args.which == "theorem1":
        report = run_theorem1(args.n, estimator, seed_set, _strategy_from_args(args))
    elif args.which == "theorem2":
        report = run_theorem2(args.n, estimator, seed_set, _strategy_from_args(args))
    elif args.which == "theorem3":
        report = run_theorem3(args.m, args.n, args.eps, estimator, seed_set)
    elif args.which == "magic_square":
        report = run_magic_square(args.n, estimator, seed_set)
    else:
        report = run_locality_suite(estimator, seed_set, n=args.n)
    seconds = time.monotonic() - t0
    report = report.replace(config=_effective_config(args))
    writes = [(args.out, lambda temp: temp.write_text(report.to_jsonl()))]
    if args.csv is not None:
        writes.append((args.csv, lambda temp: temp.write_text(report.to_csv())))
    sys.stderr.write(f"ran {args.which} in {seconds:.1f}s\n")
    return None, writes


# --- parser construction ----------------------------------------------------------

_SKIP_CONFIG_KEYS = {"config", "emit_config", "cmd"}


def _effective_config(args) -> dict:
    cfg = {}
    for k, v in vars(args).items():
        if k in _SKIP_CONFIG_KEYS or callable(v):
            continue
        if isinstance(v, Fraction):
            v = frac_str(v)
        elif isinstance(v, tuple):
            v = ",".join(map(str, v))
        cfg[k] = v
    return cfg


def _add_common(p, out_required=False):
    p.add_argument("--config", help="JSON file with default values for this subcommand")
    p.add_argument("--emit-config", help="write the effective config as JSON to this path")
    default = "" if out_required else " (default: stdout)"
    p.add_argument("--out", required=out_required, help="result file" + default)


def _add_estimator_opts(p):
    p.add_argument("--estimator", default="lz77")
    # --external was removed; this unlisted entry stays only because report
    # headers echo vars(args) and the pinned goldens hold "external": null.
    # It goes at ROADMAP item 1's goldens re-record, with exp --jobs
    p.add_argument("--external", action="append", help=argparse.SUPPRESS)


def build_parser() -> _Parser:
    top = _Parser(prog="nlbox", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)
    top.commands = sub.choices  # subcommand -> its parser, for _config_argv

    p = sub.add_parser("gen", help="generate symbol strings")
    _add_common(p, out_required=True)
    p.add_argument("--kind", required=True, choices=COMPUTABLE_KINDS + ("random", "promise"))
    p.add_argument("--n", type=_length, required=True)
    p.add_argument("--q", type=_alphabet, default=2)
    p.add_argument("--m", type=_alphabet, default=2)
    p.add_argument("--seed", type=_seed_text, default="0")
    p.add_argument("--out-b", dest="out_b", help="second output (promise inputs)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("play", help="play a strategy on input files")
    _add_common(p)
    p.add_argument("--game", required=True, choices=GAME_KINDS)
    p.add_argument("--m", type=_alphabet, default=2)
    p.add_argument("--strategy", required=True, choices=("nosig", "signaling", "local"))
    p.add_argument("--eps", type=_probability)
    p.add_argument("--fa", type=_parse_table)
    p.add_argument("--fb", type=_parse_table)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--seed", type=_seed_text, default="0")
    p.add_argument("--noise-seed", dest="noise_seed", type=_seed_text)
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.add_argument("--stem", type=file_stem, default="quad")
    p.set_defaults(func=_cmd_play)

    p = sub.add_parser("estimate", help="complexity estimates")
    _add_common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cond", action="append", help="conditioning string (repeatable)")
    p.add_argument(
        "--theta-zero", dest="theta_zero", type=_rate_threshold, default=THETA_ZERO_DEFAULT
    )
    p.add_argument(
        "--theta-full", dest="theta_full", type=_rate_threshold, default=THETA_FULL_DEFAULT
    )
    _add_estimator_opts(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("nosig", help="complexity-based no-signaling test")
    _add_common(p)
    p.add_argument("--quad", required=True, help="quadruple manifest JSON")
    p.add_argument("--theta-ns", dest="theta_ns", type=_threshold, default=THETA_NS_DEFAULT)
    _add_estimator_opts(p)
    p.set_defaults(func=_cmd_nosig)

    p = sub.add_parser("locality", help="witness-based locality test")
    _add_common(p)
    p.add_argument("--quad", required=True)
    p.add_argument("--witness", help="witness .syms file (omit for the empty witness)")
    p.add_argument("--defect-threshold", type=_threshold, default=LocalityThresholds.defect)
    p.add_argument("--output-threshold", type=_threshold, default=LocalityThresholds.output)
    _add_estimator_opts(p)
    p.set_defaults(func=_cmd_locality)

    p = sub.add_parser("oracle", help="exact game values, membership, marginal LPs")
    _add_common(p)
    p.add_argument("--game", default="pr", choices=GAME_KINDS)
    p.add_argument("--m", type=_alphabet, default=2)
    p.add_argument("--reps", type=_positive, default=1)
    p.add_argument("--jobs", type=_positive, default=1)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--fine", help="distribution JSON for membership testing")
    mode.add_argument("--marginals", action="store_true", help="marginal extremes LP")
    p.add_argument("--pr-weight", dest="pr_weight", type=_probability)
    p.add_argument(
        "--allow-signaling",
        dest="no_signaling",
        action="store_false",
        help="drop the no-signaling constraints in the marginal LP",
    )
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("exp", help="experiment harnesses")
    _add_common(p, out_required=True)
    p.add_argument(
        "--which",
        required=True,
        choices=("theorem1", "theorem2", "theorem3", "magic_square", "locality_suite"),
    )
    p.add_argument("--n", type=_positive, default=DEFAULT_N)
    p.add_argument("--m", type=_ring, default=8)
    p.add_argument("--eps", type=_probability)
    p.add_argument("--strategy", default="nosig", choices=("nosig", "signaling", "local"))
    p.add_argument("--fa", type=_parse_table)
    p.add_argument("--fb", type=_parse_table)
    p.add_argument("--seed", type=_seed_text, default="0")
    p.add_argument("--jobs", type=_positive, default=1)
    p.add_argument("--csv", help="also write the CSV projection here")
    _add_estimator_opts(p)
    p.set_defaults(func=_cmd_exp)
    return top


class _JSONNumber(str):
    """A number of a config or distribution file, kept as its JSON text."""
    __repr__ = str.__str__


# flag types that read text only: a JSON number is refused by them
_TEXT_TYPES = (None, _seed_text, file_stem, _parse_table)


def _config_argv(parser: _Parser, argv: list) -> list:
    """argv with the flags that its --config file stands for put right after
    the subcommand, so explicit flags, coming later, still win."""
    cfg_path = None
    for i, tok in enumerate(argv[1:], 1):
        if tok == "--config" and i + 1 < len(argv):
            cfg_path = argv[i + 1]
        elif tok.startswith("--config="):
            cfg_path = tok.split("=", 1)[1]
    sp = parser.commands.get(argv[0]) if argv else None
    if cfg_path is None or sp is None:
        return argv
    numbers = dict.fromkeys(("parse_int", "parse_float", "parse_constant"), _JSONNumber)
    cfg = read_json(cfg_path, "config", **numbers)
    actions = {a.dest: a for a in sp._actions if a.dest != "help"}  # noqa: SLF001
    flags = []
    for dest, value in cfg.items():
        if dest in _SKIP_CONFIG_KEYS or value is None:
            continue
        if dest not in actions:
            raise FormatError(f"unknown config key for {argv[0]}: {dest!r}")
        flags += _config_flags(actions[dest], value)
    return [argv[0], *flags, *argv[1:]]


def _config_flags(action, value) -> list:
    """The flags one config value stands for, each checked with its flag's
    own type and choices first, so a bad value is a data error."""
    bad = FormatError(f"bad config value for {action.dest}: {value!r}")
    flag = action.option_strings[0]
    if action.nargs == 0:  # a switch
        if not isinstance(value, bool):
            raise bad
        return [flag] if value != action.default else []
    repeatable = isinstance(action, argparse._AppendAction)  # noqa: SLF001
    if repeatable != isinstance(value, list):
        raise bad
    items = value if repeatable else [value]
    text_only = action.type in _TEXT_TYPES
    for item in items:
        # no command-line argument can hold a NUL, so no flag's text can
        if not isinstance(item, str) or "\0" in item or text_only and isinstance(item, _JSONNumber):
            raise bad
        try:
            parsed = action.type(item) if action.type else item
        except (argparse.ArgumentTypeError, TypeError, ValueError) as exc:
            raise bad from exc
        if action.choices is not None and parsed not in action.choices:
            raise bad
    return [f"{flag}={item}" for item in items]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if any("\0" in token for token in argv):  # no shell can pass one
            raise _UsageError("an argument holds a NUL byte")
        argv = _config_argv(parser, argv)
        try:
            args = parser.parse_args(argv)
            if getattr(args, "theta_zero", 0) >= getattr(args, "theta_full", 1):
                parser.error("--theta-zero must be below --theta-full")
            if getattr(args, "external", None) is not None:
                parser.error("--external was removed: every estimator is a built-in")
        except SystemExit as exc:  # argparse has written its message and exits 2
            if exc.code == 0:  # --help
                raise
            return 1
        named = set()
        for path in _outputs(args):
            if not path or os.path.isdir(path):
                raise _UsageError(f"an output must name a file, not {str(path)!r}")
            path = os.path.realpath(path)
            if path in named:
                raise _UsageError(f"two outputs name the same file: {path}")
            named.add(path)
        text, writes = args.func(args)
        if text is not None and args.out:
            writes.append((args.out, lambda temp: temp.write_text(text)))
        if args.emit_config:
            config = _json(_effective_config(args))
            writes.append((args.emit_config, lambda temp: temp.write_text(config)))
        write_all(writes, getattr(args, "out_dir", "."))
        if text is not None and not args.out:  # stdout, once every file is written
            sys.stdout.write(text)
        return 0
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (FormatError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (EstimatorError, OracleError) as exc:
        kind = "oracle" if isinstance(exc, OracleError) else "estimator"
        sys.stderr.write(f"{kind} error: {exc}\n")
        return 3
    except MemoryError:
        sys.stderr.write("resource failure: out of memory\n")
        return 3
    except KeyboardInterrupt:  # write_all has removed its temps by now
        sys.stderr.write("interrupted\n")
        return 130
    except Exception as exc:  # a fault of the toolkit, not of its input
        tb = exc.__traceback__
        while tb.tb_next:  # the frame that raised, so a report can be located
            tb = tb.tb_next
        where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc} (at {where})\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
