"""End-to-end harnesses: play a strategy on seeded inputs, estimate the
complexity quantities the finite-scale claims are about, and emit a
structured, deterministic report.

Reports serialize to JSONL (one object per line: a header, then quantity
rows, then diagnostics) and to a CSV projection. Wall-clock time is kept on
the in-memory object only, never serialized, so identical configurations
produce byte-identical files.

Diagnostic slack convention: for a claimed inequality lhs >= rhs the slack
is lhs - rhs (nonnegative means satisfied); for a claimed approximation
lhs ~= rhs it is the signed deviation lhs - rhs.
"""
from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .complexity import (
    THETA_FULL_DEFAULT,
    THETA_ZERO_DEFAULT,
    binary_entropy,
    classify_value,
    estimate_k,
    estimate_k_cond,
    frac_str,
)
from .estimators import Estimator
from .games import (
    GameSpec,
    LocalDeterministic,
    LocalityThresholds,
    NoSignalingSampler,
    Quadruple,
    Strategy,
    locality_verdict,
    play,
    satisfaction_fraction,
)
from .oracles import chained_value_upper_bound, game_value_exact
from .strings import (
    Seed,
    SymbolString,
    chi_event,
    gen_computable,
    gen_promise_inputs,
    gen_seeded_random,
    interleave,
    pointwise_product,
)

DEFAULT_N = 1 << 15


@dataclass(frozen=True)
class SeedSet:
    """Distinct seeds for the three random sources of a run."""

    inputs: Seed
    sampler: Seed
    noise: Seed

    @classmethod
    def from_master(cls, master: Seed) -> "SeedSet":
        return cls(
            inputs=master.derive("inputs"),
            sampler=master.derive("sampler"),
            noise=master.derive("noise"),
        )

    def as_dict(self) -> dict:
        return {
            "inputs": self.inputs.hex(),
            "sampler": self.sampler.hex(),
            "noise": self.noise.hex(),
        }


@dataclass(frozen=True)
class Row:
    name: str
    value: str  # exact value or bit count, rendered as a string
    rate: float
    rate_class: str  # "" when the quantity is not a complexity rate


@dataclass(frozen=True)
class Diagnostic:
    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs


@dataclass
class ExperimentReport:
    experiment: str
    params: dict
    seeds: dict
    estimator_id: str
    thresholds: dict
    rows: list
    diagnostics: list
    verdict: str
    config: dict = field(default_factory=dict)
    wall_clock: float = 0.0  # informational only; never serialized

    def jsonl_lines(self) -> list[str]:
        header = {
            "schema": 1,
            "kind": "header",
            "experiment": self.experiment,
            "params": self.params,
            "seeds": self.seeds,
            "estimator_id": self.estimator_id,
            "thresholds": self.thresholds,
            "verdict": self.verdict,
            "config": self.config,
        }
        lines = [json.dumps(header, sort_keys=True)]
        for r in sorted(self.rows, key=lambda r: r.name):
            lines.append(
                json.dumps(
                    {
                        "schema": 1,
                        "kind": "row",
                        "experiment": self.experiment,
                        "quantity": r.name,
                        "n": self.params.get("n"),
                        "value": r.value,
                        "rate": r.rate,
                        "class": r.rate_class,
                    },
                    sort_keys=True,
                )
            )
        for d in sorted(self.diagnostics, key=lambda d: d.name):
            lines.append(
                json.dumps(
                    {
                        "schema": 1,
                        "kind": "diagnostic",
                        "experiment": self.experiment,
                        "name": d.name,
                        "lhs": d.lhs,
                        "rhs": d.rhs,
                        "slack": d.slack,
                    },
                    sort_keys=True,
                )
            )
        return lines

    def to_jsonl(self) -> str:
        return "\n".join(self.jsonl_lines()) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["experiment", "quantity", "n", "value", "rate", "class"])
        for r in sorted(self.rows, key=lambda r: r.name):
            w.writerow(
                [self.experiment, r.name, self.params.get("n"), r.value, r.rate, r.rate_class]
            )
        return buf.getvalue()

    def row(self, name: str) -> Row:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def diagnostic(self, name: str) -> Diagnostic:
        for d in self.diagnostics:
            if d.name == name:
                return d
        raise KeyError(name)


_THRESHOLDS = {"theta_zero": THETA_ZERO_DEFAULT, "theta_full": THETA_FULL_DEFAULT}


def _krow(name, estimate) -> Row:
    bits = estimate.bits
    return Row(
        name=name,
        value=str(int(bits)) if bits == int(bits) else str(bits),
        rate=estimate.rate,
        rate_class=classify_value(estimate.rate),
    )


def _sat_row(sat: Fraction) -> Row:
    return Row(name="satisfaction", value=frac_str(sat), rate=float(sat), rate_class="")


def _strategy_desc(strategy: Strategy) -> dict:
    if isinstance(strategy, LocalDeterministic):
        return {"kind": strategy.kind, "fa": list(strategy.fa), "fb": list(strategy.fb)}
    if isinstance(strategy, NoSignalingSampler):
        return {"kind": strategy.kind, "eps": frac_str(strategy.eps)}
    return {"kind": strategy.kind}


def _play_seeded(game: GameSpec, strategy: Strategy, n: int, seed_set: SeedSet):
    """One seeded run: uniform inputs over the game's alphabets, the
    strategy's outputs, and the exact fraction of rounds won."""
    a = gen_seeded_random(n, game.qA, seed_set.inputs.derive("a"))
    b = gen_seeded_random(n, game.qB, seed_set.inputs.derive("b"))
    x, y = play(strategy, game, a, b, seed_set.sampler, seed_set.noise)
    quad = Quadruple(game, a, b, x, y)
    return quad, satisfaction_fraction(quad)


def run_theorem1(
    n: int, estimator: Estimator | str, seed_set: SeedSet, strategy: Strategy
) -> ExperimentReport:
    """XOR-game run checking that unconditionally winning outputs are
    incompressible: reports the raw and input-conditioned output
    complexities and the chain of inequalities behind the claim."""
    t0 = time.monotonic()
    quad, sat = _play_seeded(GameSpec.pr(), strategy, n, seed_set)
    a, b, x, y = quad.a, quad.b, quad.x, quad.y
    ab = pointwise_product(a, b)

    kx = estimate_k(x, estimator)
    ky = estimate_k(y, estimator)
    kxb = estimate_k_cond(x, b, estimator)
    kyb = estimate_k_cond(y, b, estimator)
    kab_b = estimate_k_cond(ab, b, estimator)
    kyab = estimate_k_cond(y, [a, b], estimator)
    kxab = estimate_k_cond(x, [a, b], estimator)

    rows = [
        _krow("K(x)", kx),
        _krow("K(y)", ky),
        _krow("K(x|b)", kxb),
        _krow("K(y|b)", kyb),
        _krow("K(a.b|b)", kab_b),
        _krow("K(y|ab)", kyab),
        _krow("K(x|ab)", kxab),
        _sat_row(sat),
    ]
    diagnostics = [
        # sum of single-conditioned output complexities covers the product
        Diagnostic("xb_plus_yb_covers_ab", float(kxb.bits + kyb.bits), float(kab_b.bits)),
        # the masked product carries about half of full randomness
        Diagnostic("ab_given_b_half", kab_b.bits / n, 0.5),
        # the two outputs are equally hard given both inputs
        Diagnostic("y_vs_x_given_ab", kyab.bits / n, kxab.bits / n),
        # conditioning cannot exceed the unconditional complexity
        Diagnostic("x_given_ab_below_x", float(kx.bits), float(kxab.bits)),
    ]
    verdict = rows[0].rate_class
    report = ExperimentReport(
        experiment="theorem1",
        params={"game": "pr", "n": n, "strategy": _strategy_desc(strategy)},
        seeds=seed_set.as_dict(),
        estimator_id=kx.estimator_id,
        thresholds=dict(_THRESHOLDS),
        rows=rows,
        diagnostics=diagnostics,
        verdict=verdict,
    )
    report.wall_clock = time.monotonic() - t0
    return report


def run_theorem2(
    n: int, estimator: Estimator | str, seed_set: SeedSet, strategy: Strategy
) -> ExperimentReport:
    """Conditional view of the same run: each party's output given its own
    input, and given both, compared against the exact classical optimum."""
    t0 = time.monotonic()
    game = GameSpec.pr()
    quad, sat = _play_seeded(game, strategy, n, seed_set)
    a, b, x, y = quad.a, quad.b, quad.x, quad.y

    kxa = estimate_k_cond(x, a, estimator)
    kyb = estimate_k_cond(y, b, estimator)
    kxab = estimate_k_cond(x, [a, b], estimator)
    kyab = estimate_k_cond(y, [a, b], estimator)
    classical = game_value_exact(game)

    rows = [
        _krow("K(x|a)", kxa),
        _krow("K(y|b)", kyb),
        _krow("K(x|ab)", kxab),
        _krow("K(y|ab)", kyab),
        _sat_row(sat),
    ]
    diagnostics = [
        Diagnostic("satisfaction_vs_classical", float(sat), float(classical.value)),
        Diagnostic("x_side_equals_y_side", kxa.bits / n, kyb.bits / n),
    ]
    report = ExperimentReport(
        experiment="theorem2",
        params={
            "game": "pr",
            "n": n,
            "strategy": _strategy_desc(strategy),
            "classical_value": frac_str(classical.value),
        },
        seeds=seed_set.as_dict(),
        estimator_id=kxa.estimator_id,
        thresholds=dict(_THRESHOLDS),
        rows=rows,
        diagnostics=diagnostics,
        verdict=rows[0].rate_class,
    )
    report.wall_clock = time.monotonic() - t0
    return report


def run_theorem3(
    m: int, n: int, eps: Fraction | None, estimator: Estimator | str, seed_set: SeedSet
) -> ExperimentReport:
    """Ring-game run: near-perfect satisfaction beats the exact classical
    bound while the outputs stay incompressible; the rare-event indicator's
    conditional complexity is compared to its entropy. eps=None means the
    noise rate 1/m^2."""
    if not 2 <= m <= 64:
        raise ValueError("ring size out of range")
    if eps is None:
        eps = Fraction(1, m * m)
    eps = Fraction(eps)
    t0 = time.monotonic()
    game = GameSpec.chained(m)
    a, b = gen_promise_inputs(m, n, seed_set.inputs)
    x, y = play(NoSignalingSampler(eps), game, a, b, seed_set.sampler, seed_set.noise)
    quad = Quadruple(game, a, b, x, y)
    sat = satisfaction_fraction(quad)
    chi = chi_event(a, b, m)

    kx = estimate_k(x, estimator)
    kxa = estimate_k_cond(x, a, estimator)
    kchib = estimate_k_cond(chi, b, estimator)
    classical = chained_value_upper_bound(m)
    h = binary_entropy(Fraction(1, 2 * m))

    rows = [
        _krow("K(x)", kx),
        _krow("K(x|a)", kxa),
        _krow("K(chi|b)", kchib),
        _sat_row(sat),
    ]
    diagnostics = [
        Diagnostic("chi_entropy_match", kchib.bits / n, h),
        Diagnostic("satisfaction_vs_classical", float(sat), float(classical)),
        Diagnostic("satisfaction_vs_noise", float(sat), 1.0 - 2.0 * float(eps)),
    ]
    verdict = (
        "beats_classical" if sat > classical else "within_classical"
    )
    report = ExperimentReport(
        experiment="theorem3",
        params={
            "game": f"chained({m})",
            "m": m,
            "n": n,
            "eps": frac_str(eps),
            "classical_value": frac_str(classical),
        },
        seeds=seed_set.as_dict(),
        estimator_id=kx.estimator_id,
        thresholds=dict(_THRESHOLDS),
        rows=rows,
        diagnostics=diagnostics,
        verdict=verdict,
    )
    report.wall_clock = time.monotonic() - t0
    return report


def run_magic_square(n: int, estimator: Estimator | str, seed_set: SeedSet) -> ExperimentReport:
    """Grid-game run: the sampler wins every round, which no deterministic
    pair can (exact optimum 8/9, replayed here for contrast)."""
    t0 = time.monotonic()
    game = GameSpec.magic_square()
    quad, sat = _play_seeded(game, NoSignalingSampler(), n, seed_set)
    a, b, x = quad.a, quad.b, quad.x

    classical = game_value_exact(game)
    best = LocalDeterministic(classical.fa_table(), classical.fb_table())
    cx, cy = play(best, game, a, b, seed_set.sampler)
    sat_classical = satisfaction_fraction(Quadruple(game, a, b, cx, cy))

    kxa = estimate_k_cond(x, a, estimator)
    rows = [
        _krow("K(x|a)", kxa),
        _sat_row(sat),
        Row(
            name="satisfaction_best_classical",
            value=frac_str(sat_classical),
            rate=float(sat_classical),
            rate_class="",
        ),
    ]
    diagnostics = [
        Diagnostic("satisfaction_vs_classical", float(sat), float(classical.value)),
        Diagnostic("classical_replay_vs_value", float(sat_classical), float(classical.value)),
    ]
    report = ExperimentReport(
        experiment="magic_square",
        params={"game": "magic_square", "n": n, "classical_value": frac_str(classical.value)},
        seeds=seed_set.as_dict(),
        estimator_id=kxa.estimator_id,
        thresholds=dict(_THRESHOLDS),
        rows=rows,
        diagnostics=diagnostics,
        verdict="wins_always" if sat == 1 else "imperfect",
    )
    report.wall_clock = time.monotonic() - t0
    return report


LOCALITY_N = 1 << 14
LAMBDA_PAD = 4096


def _table_witness(strategy: LocalDeterministic) -> SymbolString:
    """Strategy tables as a repeated binary string, padded so the
    per-symbol independence defect is averaged over a fixed length."""
    entries = list(strategy.fa) + list(strategy.fb)
    base = bytes(v & 1 for v in entries)
    reps = LAMBDA_PAD // len(base) + 1
    return SymbolString(2, (base * reps)[:LAMBDA_PAD])


def run_locality_suite(
    estimator: Estimator | str, seed_set: SeedSet, n: int = LOCALITY_N
) -> ExperimentReport:
    """Three canonical witness checks: computable inputs with the output
    pair itself as witness; a deterministic strategy with its tables as
    witness; and the winning sampler with no witness at all."""
    t0 = time.monotonic()
    thresholds = LocalityThresholds()
    game = GameSpec.pr()
    cases = []

    # 1: computable inputs, lambda = the outputs themselves
    a1 = gen_computable("alternating", n)
    b1 = gen_computable("thue_morse", n)
    x1, y1 = play(NoSignalingSampler(), game, a1, b1, seed_set.sampler, seed_set.noise)
    lam1 = interleave(x1, y1)
    v1 = locality_verdict(Quadruple(game, a1, b1, x1, y1), lam1, estimator, thresholds)
    cases.append(("computable_inputs_outputs_witness", v1))

    # 2: deterministic strategy, lambda = its tables
    strat = LocalDeterministic((0, 0), (0, 0))
    a2 = gen_seeded_random(n, 2, seed_set.inputs.derive("a"))
    b2 = gen_seeded_random(n, 2, seed_set.inputs.derive("b"))
    x2, y2 = play(strat, game, a2, b2, seed_set.sampler)
    v2 = locality_verdict(
        Quadruple(game, a2, b2, x2, y2), _table_witness(strat), estimator, thresholds
    )
    cases.append(("deterministic_tables_witness", v2))

    # 3: winning sampler, empty witness
    x3, y3 = play(NoSignalingSampler(), game, a2, b2, seed_set.sampler, seed_set.noise)
    v3 = locality_verdict(
        Quadruple(game, a2, b2, x3, y3), SymbolString(2, b""), estimator, thresholds
    )
    cases.append(("sampler_no_witness", v3))

    rows = []
    diagnostics = []
    for name, v in cases:
        rows.append(Row(name=name, value=v.verdict, rate=v.rate_x, rate_class=""))
        diagnostics.append(Diagnostic(f"{name}_defect", v.independence_defect, thresholds.defect))
        diagnostics.append(Diagnostic(f"{name}_rate_y", v.rate_y, thresholds.output))
    verdict = ",".join(v.verdict for _, v in cases)
    report = ExperimentReport(
        experiment="locality_suite",
        params={
            "game": "pr",
            "n": n,
            "defect_threshold": thresholds.defect,
            "output_threshold": thresholds.output,
        },
        seeds=seed_set.as_dict(),
        estimator_id=v1.estimator_id,
        thresholds=dict(_THRESHOLDS),
        rows=rows,
        diagnostics=diagnostics,
        verdict=verdict,
    )
    report.wall_clock = time.monotonic() - t0
    return report


def write_report(report: ExperimentReport, jsonl_path, csv_path=None) -> None:
    Path(jsonl_path).write_text(report.to_jsonl())
    if csv_path is not None:
        Path(csv_path).write_text(report.to_csv())
