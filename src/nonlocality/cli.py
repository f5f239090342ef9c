"""Command-line front end.

Subcommands: gen, play, estimate, nosig, locality, oracle, exp.
Exit codes: 0 success, 1 usage error, 2 data/format error, 3 estimator or
oracle failure. Results go to stdout or --out; logs go to stderr.

A JSON config file (--config) supplies defaults for any flag of the chosen
subcommand; explicit flags win. --emit-config writes the effective
configuration, which reproduces the run when fed back via --config.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .complexity import (
    THETA_FULL_DEFAULT,
    THETA_ZERO_DEFAULT,
    classify_value,
    estimate_k,
    estimate_k_cond,
    frac_str,
)
from .estimators import EstimatorError, get_estimator, make_registry
from .experiments import (
    DEFAULT_N,
    SeedSet,
    run_locality_suite,
    run_magic_square,
    run_theorem1,
    run_theorem2,
    run_theorem3,
    write_report,
)
from .games import (
    GAME_KINDS,
    LocalDeterministic,
    LocalityThresholds,
    NoSignalingSampler,
    Quadruple,
    SignalingSampler,
    THETA_NS_DEFAULT,
    load_quadruple,
    locality_verdict,
    ns_report,
    parse_game,
    play,
    satisfaction_fraction,
    save_quadruple,
)
from .oracles import (
    Distribution,
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
    read_syms,
    write_syms,
)

class _Parser(argparse.ArgumentParser):
    """argparse, but every usage problem exits with code 1."""

    def exit(self, status=0, message=None):
        if message:
            sys.stderr.write(message)
        sys.exit(1 if status else 0)


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
    """argparse type of exp --n and oracle --reps."""
    return _bounded_int(text, 1)


def _alphabet(text) -> int:
    """argparse type of --q and gen --m: symbols are stored one per byte."""
    return _bounded_int(text, 2, 256)


def _ring(text) -> int:
    """argparse type of exp --m: the ring sizes of the theorem-3 run."""
    return _bounded_int(text, 2, 64)


def _fraction(text) -> Fraction:
    """argparse type of --eps and --pr-weight: an exact rational."""
    try:
        return Fraction(text)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from exc


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
    if args.strategy == "local":
        if args.fa is None or args.fb is None:
            raise FormatError("local strategy requires --fa and --fb")
        return LocalDeterministic(args.fa, args.fb)
    raise FormatError(f"unknown strategy: {args.strategy}")


def _estimator_from_args(args):
    """The one estimator of a run: --estimator names a built-in or an
    --external compressor."""
    ext = {}
    for spec in args.external or []:
        name, _, command = spec.partition("=")
        if not command:
            raise FormatError("--external must look like name=command")
        ext[name] = command
    return get_estimator(args.estimator, make_registry(ext) if ext else None)


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# --- subcommand handlers -------------------------------------------------------


def _cmd_gen(args) -> int:
    seed = _parse_seed(args.seed) if args.seed else Seed.from_int(0)
    if args.kind == "random":
        s = gen_seeded_random(args.n, args.q, seed)
        write_syms(args.out, s)
    elif args.kind == "promise":
        a, b = gen_promise_inputs(args.m, args.n, seed)
        if not args.out_b:
            raise FormatError("promise generation needs --out and --out-b")
        write_syms(args.out, a)
        write_syms(args.out_b, b)
    elif args.kind in COMPUTABLE_KINDS:
        write_syms(args.out, gen_computable(args.kind, args.n))
    else:
        raise FormatError(f"unknown kind: {args.kind}")
    return 0


def _cmd_play(args) -> int:
    game = parse_game(args.game, args.m)
    strategy = _strategy_from_args(args)
    a = read_syms(args.a)
    b = read_syms(args.b)
    seed = _parse_seed(args.seed)
    noise = _parse_seed(args.noise_seed) if args.noise_seed else None
    x, y = play(strategy, game, a, b, seed, noise)
    quad = Quadruple(game, a, b, x, y)
    manifest = save_quadruple(
        quad,
        args.out_dir,
        args.stem,
        eps=args.eps if args.strategy == "nosig" else None,
        seeds={"sampler": seed.hex(), "noise": noise.hex() if noise else None},
    )
    sys.stderr.write(f"wrote {manifest}\n")
    sys.stdout.write(
        json.dumps(
            {"manifest": str(manifest), "satisfaction": frac_str(satisfaction_fraction(quad))},
            sort_keys=True,
        )
        + "\n"
    )
    return 0


def _cmd_estimate(args) -> int:
    estimator = _estimator_from_args(args)
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
    _emit(args, payload)
    return 0


def _cmd_nosig(args) -> int:
    estimator = _estimator_from_args(args)
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
    _emit(args, payload)
    return 0


def _cmd_locality(args) -> int:
    estimator = _estimator_from_args(args)
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
    _emit(args, payload)
    return 0


def _read_distribution(path) -> Distribution:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad distribution JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("p", {}), dict):
        raise FormatError('distribution must be a JSON object whose "p" is an object')
    game = parse_game(data.get("game"), data.get("m", 2))
    table = {}
    for key, val in data.get("p", {}).items():
        try:
            parts = tuple(int(v) for v in key.split(","))
            table[parts] = Fraction(val)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise FormatError(f"bad distribution entry {key!r}: {val!r}") from exc
        if len(parts) != 4:
            raise FormatError(f"bad distribution key: {key!r}")
    try:
        return Distribution(game, table)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _cmd_oracle(args) -> int:
    if args.marginals:
        weight = args.pr_weight if args.pr_weight is not None else Fraction(1)
        lo, hi = marginal_extremes(weight, args.no_signaling)
        _emit(args, {"min": frac_str(lo), "max": frac_str(hi)})
        return 0
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
        _emit(args, payload)
        return 0
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
    _emit(args, payload)
    return 0


def _cmd_exp(args) -> int:
    estimator = _estimator_from_args(args)
    seed_set = SeedSet.from_master(_parse_seed(args.seed))
    if args.which == "theorem1":
        report = run_theorem1(args.n, estimator, seed_set, _strategy_from_args(args))
    elif args.which == "theorem2":
        report = run_theorem2(args.n, estimator, seed_set, _strategy_from_args(args))
    elif args.which == "theorem3":
        report = run_theorem3(args.m, args.n, args.eps, estimator, seed_set)
    elif args.which == "magic_square":
        report = run_magic_square(args.n, estimator, seed_set)
    elif args.which == "locality_suite":
        report = run_locality_suite(estimator, seed_set, n=args.n)
    else:
        raise FormatError(f"unknown experiment: {args.which}")
    report.config = _effective_config(args)
    write_report(report, args.out, args.csv)
    sys.stderr.write(f"wrote {args.out} ({report.wall_clock:.1f}s)\n")
    return 0


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
    p.add_argument(
        "--external",
        action="append",
        help="register an external compressor as name=command (repeatable)",
    )


def build_parser() -> _Parser:
    top = _Parser(prog="nlbox", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

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
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--strategy", required=True, choices=("nosig", "signaling", "local"))
    p.add_argument("--eps", type=_fraction)
    p.add_argument("--fa", type=_parse_table)
    p.add_argument("--fb", type=_parse_table)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--seed", type=_seed_text, default="0")
    p.add_argument("--noise-seed", dest="noise_seed", type=_seed_text)
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.add_argument("--stem", default="quad")
    p.set_defaults(func=_cmd_play)

    p = sub.add_parser("estimate", help="complexity estimates")
    _add_common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cond", action="append", help="conditioning string (repeatable)")
    p.add_argument("--theta-zero", dest="theta_zero", type=float, default=THETA_ZERO_DEFAULT)
    p.add_argument("--theta-full", dest="theta_full", type=float, default=THETA_FULL_DEFAULT)
    _add_estimator_opts(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("nosig", help="complexity-based no-signaling test")
    _add_common(p)
    p.add_argument("--quad", required=True, help="quadruple manifest JSON")
    p.add_argument("--theta-ns", dest="theta_ns", type=float, default=THETA_NS_DEFAULT)
    _add_estimator_opts(p)
    p.set_defaults(func=_cmd_nosig)

    p = sub.add_parser("locality", help="witness-based locality test")
    _add_common(p)
    p.add_argument("--quad", required=True)
    p.add_argument("--witness", help="witness .syms file (omit for the empty witness)")
    p.add_argument("--defect-threshold", dest="defect_threshold", type=float, default=0.25)
    p.add_argument(
        "--output-threshold", dest="output_threshold", type=float, default=THETA_ZERO_DEFAULT
    )
    _add_estimator_opts(p)
    p.set_defaults(func=_cmd_locality)

    p = sub.add_parser("oracle", help="exact game values, membership, marginal LPs")
    _add_common(p)
    p.add_argument("--game", default="pr", choices=GAME_KINDS)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--reps", type=_positive, default=1)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--fine", help="distribution JSON for membership testing")
    p.add_argument("--marginals", action="store_true", help="marginal extremes LP")
    p.add_argument("--pr-weight", dest="pr_weight", type=_fraction)
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
    p.add_argument("--eps", type=_fraction)
    p.add_argument("--strategy", default="nosig", choices=("nosig", "signaling", "local"))
    p.add_argument("--fa", type=_parse_table)
    p.add_argument("--fb", type=_parse_table)
    p.add_argument("--seed", type=_seed_text, default="0")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--csv", help="also write the CSV projection here")
    _add_estimator_opts(p)
    p.set_defaults(func=_cmd_exp)
    return top


def _apply_config(parser: _Parser, argv: list) -> None:
    """Read --config (if present) and inject its values as defaults for the
    chosen subcommand, so explicit flags still win."""
    cfg_path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            cfg_path = argv[i + 1]
        elif tok.startswith("--config="):
            cfg_path = tok.split("=", 1)[1]
    if cfg_path is None:
        return
    try:
        cfg = json.loads(Path(cfg_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"bad config file: {exc}") from exc
    if not isinstance(cfg, dict):
        raise FormatError("config must be a JSON object")
    sp = parser._subparsers._group_actions[0].choices.get(argv[0])  # noqa: SLF001
    if sp is None:
        return
    dests = {action.dest for action in sp._actions}  # noqa: SLF001
    cleaned = {}
    for k, v in cfg.items():
        dest = k.replace("-", "_")
        if dest in _SKIP_CONFIG_KEYS:
            continue
        if dest not in dests:
            raise FormatError(f"unknown config key for {argv[0]}: {k!r}")
        cleaned[dest] = _coerce_config_value(sp, dest, v)
    sp.set_defaults(**cleaned)
    # argparse checks a required flag on the command line even when it has
    # a default, so a flag the config supplies stops being required
    for action in sp._actions:  # noqa: SLF001
        if cleaned.get(action.dest) is not None:
            action.required = False


# flag types that parse every config value, not only text: a JSON number is
# read like the flag's text, and a seed that is not text is rejected
_CHECKED_TYPES = (
    int, float, _length, _positive, _alphabet, _ring, _fraction, _parse_table, _seed_text
)


def _coerce_config_value(subparser, dest, value):
    """Parse a config value as its flag would parse it; a value of the
    wrong type is a format error, never a traceback."""
    for action in subparser._actions:  # noqa: SLF001
        if action.dest != dest or value is None:
            continue
        if action.type is None:
            # untyped flags hold what argparse would store: a switch's
            # bool, a list of texts for repeatable flags, or else a text
            if action.nargs == 0:
                ok = isinstance(value, bool)
            elif isinstance(action, argparse._AppendAction):  # noqa: SLF001
                ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
            else:
                ok = isinstance(value, str)
            if not ok:
                raise FormatError(f"bad config value for {dest}: {value!r}")
        # numbers go to int/float; a seed must be text, like the echo
        elif isinstance(value, str) or action.type in _CHECKED_TYPES:
            try:
                return action.type(value)
            except (TypeError, ValueError, ArithmeticError, argparse.ArgumentTypeError) as exc:
                raise FormatError(f"bad config value for {dest}: {value!r}") from exc
    return value


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config(parser, argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            if exc.code == 0:  # --help
                raise
            return 1
        if args.emit_config:
            Path(args.emit_config).write_text(
                json.dumps(_effective_config(args), indent=2, sort_keys=True) + "\n"
            )
        return args.func(args)
    except FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        # a JSON file (config, manifest, distribution) that is not UTF-8 text
        # is a format error like any other
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except EstimatorError as exc:
        sys.stderr.write(f"estimator error: {exc}\n")
        return 3
    except (ValueError, KeyError, AssertionError) as exc:
        sys.stderr.write(f"oracle/estimator failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
