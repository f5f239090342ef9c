"""End-to-end harnesses: play a strategy on seeded inputs, estimate the
complexity quantities the finite-scale claims are about, and emit a
structured, deterministic report.

Reports are values: a frozen ExperimentReport holds no timing, so two runs
of one configuration from an empty estimate store return equal reports.
They serialize to JSONL (one object per line: a header, then quantity
rows, then diagnostics) and to a CSV projection, byte-identical for
identical configurations. The CLI times a run and reports its seconds on
stderr, outside every file.

Diagnostic slack convention: for a claimed inequality lhs >= rhs the slack
is lhs - rhs (nonnegative means satisfied); for a claimed approximation
lhs ~= rhs it is the signed deviation lhs - rhs.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

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
    Record,
    Seed,
    SymbolString,
    gen_computable,
    gen_promise_inputs,
    gen_seeded_random,
    interleave,
    pointwise_product,
)

DEFAULT_N = 1 << 15


class SeedSet(Record):
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


class Row(Record):
    name: str
    value: str  # exact value or bit count, rendered as a string
    rate: float
    rate_class: str  # "" when the quantity is not a complexity rate


class Diagnostic(Record):
    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs


class ExperimentReport(Record):
    experiment: str
    params: dict
    seeds: dict
    estimator_id: str
    rows: list
    diagnostics: list
    verdict: str
    config: dict = None  # a fresh {} for each report built without one
    # every runner's rate thresholds, echoed in each header (not a field)
    thresholds = {"theta_zero": THETA_ZERO_DEFAULT, "theta_full": THETA_FULL_DEFAULT}

    def __post_init__(self):
        object.__setattr__(self, "config", {} if self.config is None else self.config)

    def jsonl_lines(self) -> list[str]:
        def line(kind: str, fields: dict) -> str:
            obj = {"schema": 1, "kind": kind, "experiment": self.experiment, **fields}
            return json.dumps(obj, sort_keys=True)

        header = {
            "params": self.params,
            "seeds": self.seeds,
            "estimator_id": self.estimator_id,
            "thresholds": self.thresholds,
            "verdict": self.verdict,
            "config": self.config,
        }
        lines = [line("header", header)]
        n = self.params.get("n")
        for r in sorted(self.rows, key=lambda r: r.name):
            row = {
                "quantity": r.name, "n": n, "value": r.value, "rate": r.rate, "class": r.rate_class
            }
            lines.append(line("row", row))
        for d in sorted(self.diagnostics, key=lambda d: d.name):
            diag = {"name": d.name, "lhs": d.lhs, "rhs": d.rhs, "slack": d.slack}
            lines.append(line("diagnostic", diag))
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


def _krow(name, estimate) -> Row:
    bits = estimate.bits
    return Row(
        name=name,
        value=str(int(bits)) if bits == int(bits) else str(bits),
        rate=estimate.rate,
        rate_class=classify_value(estimate.rate),
    )


def _sat_row(name, sat: Fraction) -> Row:
    return Row(name=name, value=frac_str(sat), rate=float(sat), rate_class="")


def _report(experiment, game, n, seed_set, estimator_id, rows, diagnostics, verdict, **params):
    """Every runner's report: its params open with the game's label and n."""
    return ExperimentReport(
        experiment=experiment,
        params={"game": game.label(), "n": n, **params},
        seeds=seed_set.as_dict(),
        estimator_id=estimator_id,
        rows=rows,
        diagnostics=diagnostics,
        verdict=verdict,
    )


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
    game = GameSpec.pr()
    quad, sat = _play_seeded(game, strategy, n, seed_set)
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
        _sat_row("satisfaction", sat),
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
    return _report(
        "theorem1", game, n, seed_set, kx.estimator_id, rows, diagnostics, rows[0].rate_class,
        strategy=_strategy_desc(strategy),
    )


def run_theorem2(
    n: int, estimator: Estimator | str, seed_set: SeedSet, strategy: Strategy
) -> ExperimentReport:
    """Conditional view of the same run: each party's output given its own
    input, and given both, compared against the exact classical optimum."""
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
        _sat_row("satisfaction", sat),
    ]
    diagnostics = [
        Diagnostic("satisfaction_vs_classical", float(sat), float(classical.value)),
        Diagnostic("x_side_equals_y_side", kxa.bits / n, kyb.bits / n),
    ]
    return _report(
        "theorem2", game, n, seed_set, kxa.estimator_id, rows, diagnostics, rows[0].rate_class,
        strategy=_strategy_desc(strategy), classical_value=frac_str(classical.value),
    )


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
    game = GameSpec.chained(m)
    a, b = gen_promise_inputs(m, n, seed_set.inputs)
    x, y = play(NoSignalingSampler(eps), game, a, b, seed_set.sampler, seed_set.noise)
    sat = satisfaction_fraction(Quadruple(game, a, b, x, y))
    # chi marks the rounds whose input pair asks for a mismatch
    target = {ab: game.target_bit(*ab) for ab in game.promise_pairs()}
    chi = SymbolString(2, bytes(map(target.__getitem__, zip(a.data, b.data))))

    kx = estimate_k(x, estimator)
    kxa = estimate_k_cond(x, a, estimator)
    kchib = estimate_k_cond(chi, b, estimator)
    classical = chained_value_upper_bound(m)
    h = binary_entropy(Fraction(1, 2 * m))

    rows = [
        _krow("K(x)", kx),
        _krow("K(x|a)", kxa),
        _krow("K(chi|b)", kchib),
        _sat_row("satisfaction", sat),
    ]
    diagnostics = [
        Diagnostic("chi_entropy_match", kchib.bits / n, h),
        Diagnostic("satisfaction_vs_classical", float(sat), float(classical)),
        Diagnostic("satisfaction_vs_noise", float(sat), 1.0 - 2.0 * float(eps)),
    ]
    verdict = "beats_classical" if sat > classical else "within_classical"
    return _report(
        "theorem3", game, n, seed_set, kx.estimator_id, rows, diagnostics, verdict,
        m=m, eps=frac_str(eps), classical_value=frac_str(classical),
    )


def run_magic_square(n: int, estimator: Estimator | str, seed_set: SeedSet) -> ExperimentReport:
    """Grid-game run: the sampler wins every round, which no deterministic
    pair can (exact optimum 8/9, replayed here for contrast)."""
    game = GameSpec.magic_square()
    quad, sat = _play_seeded(game, NoSignalingSampler(), n, seed_set)
    a, b, x = quad.a, quad.b, quad.x

    classical = game_value_exact(game)
    best = LocalDeterministic(tuple(x for x, in classical.fa), tuple(y for y, in classical.fb))
    cx, cy = play(best, game, a, b, seed_set.sampler)
    sat_classical = satisfaction_fraction(Quadruple(game, a, b, cx, cy))

    kxa = estimate_k_cond(x, a, estimator)
    rows = [
        _krow("K(x|a)", kxa),
        _sat_row("satisfaction", sat),
        _sat_row("satisfaction_best_classical", sat_classical),
    ]
    diagnostics = [
        Diagnostic("satisfaction_vs_classical", float(sat), float(classical.value)),
        Diagnostic("classical_replay_vs_value", float(sat_classical), float(classical.value)),
    ]
    verdict = "wins_always" if sat == 1 else "imperfect"
    return _report(
        "magic_square", game, n, seed_set, kxa.estimator_id, rows, diagnostics, verdict,
        classical_value=frac_str(classical.value),
    )


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
    thresholds = LocalityThresholds()
    game = GameSpec.pr()
    cases = []

    def case(name, strategy, a, b, noise, witness=None):
        """Play, then judge the quadruple; no witness means the outputs themselves."""
        x, y = play(strategy, game, a, b, seed_set.sampler, noise)
        lam = interleave(x, y) if witness is None else witness
        v = locality_verdict(Quadruple(game, a, b, x, y), lam, estimator, thresholds)
        cases.append((name, v))

    # 1: computable inputs, lambda = the outputs themselves
    a = gen_computable("alternating", n)
    b = gen_computable("thue_morse", n)
    case("computable_inputs_outputs_witness", NoSignalingSampler(), a, b, seed_set.noise)

    # 2: deterministic strategy, lambda = its tables
    strat = LocalDeterministic((0, 0), (0, 0))
    a = gen_seeded_random(n, 2, seed_set.inputs.derive("a"))
    b = gen_seeded_random(n, 2, seed_set.inputs.derive("b"))
    case("deterministic_tables_witness", strat, a, b, None, _table_witness(strat))

    # 3: winning sampler, empty witness
    case("sampler_no_witness", NoSignalingSampler(), a, b, seed_set.noise, SymbolString(2, b""))

    rows = []
    diagnostics = []
    for name, v in cases:
        rows.append(Row(name=name, value=v.verdict, rate=v.rate_x, rate_class=""))
        diagnostics.append(Diagnostic(f"{name}_defect", v.independence_defect, thresholds.defect))
        diagnostics.append(Diagnostic(f"{name}_rate_y", v.rate_y, thresholds.output))
    verdict = ",".join(v.verdict for _, v in cases)
    return _report(
        "locality_suite", game, n, seed_set, cases[0][1].estimator_id, rows, diagnostics, verdict,
        defect_threshold=thresholds.defect, output_threshold=thresholds.output,
    )
