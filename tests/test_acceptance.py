"""Acceptance criteria, one test (and one pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v` to see one line per
criterion; the stated sizes, seeds, and tolerances are pinned here.
"""
import time
from fractions import Fraction as F

import pytest

from nonlocality import complexity as C
from nonlocality.experiments import (
    SeedSet,
    run_locality_suite,
    run_theorem1,
    run_theorem3,
)
from nonlocality.games import (
    GameSpec,
    LocalDeterministic,
    NoSignalingSampler,
    Quadruple,
    SignalingSampler,
    ns_report,
    play,
    satisfaction_fraction,
)
from nonlocality.oracles import (
    chained_value_upper_bound,
    deterministic_distribution,
    fine_membership,
    game_value_exact,
    marginal_extremes,
    pr_box_distribution,
    replay_witness,
    Distribution,
)
from nonlocality.strings import Seed, gen_computable, gen_seeded_random

MASTER = Seed.from_int(20260826)
SS = SeedSet.from_master(MASTER)

ESTIMATORS = ("lz77", "ctx_2")
# local tables used wherever "every tested LocalDeterministic" applies:
# two constants and the copy/constant pair, all with classical value 3/4
LOCAL_STRATEGIES = (
    LocalDeterministic((0, 0), (0, 0)),
    LocalDeterministic((1, 1), (1, 1)),
    LocalDeterministic((0, 1), (0, 0)),
)


def _line(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def _pr_quads(n):
    a = gen_seeded_random(n, 2, SS.inputs.derive("a"))
    b = gen_seeded_random(n, 2, SS.inputs.derive("b"))
    g = GameSpec.pr()
    quads = {}
    x, y = play(NoSignalingSampler(), g, a, b, SS.sampler, SS.noise)
    quads["nosig"] = Quadruple(g, a, b, x, y)
    for s in LOCAL_STRATEGIES:
        x, y = play(s, g, a, b, SS.sampler)
        quads[f"local{s.fa}{s.fb}"] = Quadruple(g, a, b, x, y)
    x, y = play(SignalingSampler(), g, a, b, SS.sampler)
    quads["signaling"] = Quadruple(g, a, b, x, y)
    return quads


def test_criterion_01_exact_game_values():
    t0 = time.monotonic()
    pr = game_value_exact(GameSpec.pr())
    t_pr = time.monotonic() - t0
    t0 = time.monotonic()
    ms = game_value_exact(GameSpec.magic_square())
    t_ms = time.monotonic() - t0
    chained_ok = True
    t_ch_max = 0.0
    for m in range(2, 9):
        t0 = time.monotonic()
        r = game_value_exact(GameSpec.chained(m))
        t_ch_max = max(t_ch_max, time.monotonic() - t0)
        chained_ok &= r.value == F(2 * m - 1, 2 * m)
        chained_ok &= chained_value_upper_bound(m) == r.value
    ok = (
        pr.value == F(3, 4)
        and t_pr < 1
        and ms.value == F(8, 9)
        and t_ms < 10
        and chained_ok
        and t_ch_max < 1
    )
    _line(
        1,
        ok,
        f"pr={pr.value} ({t_pr:.2f}s), magic_square={ms.value} ({t_ms:.2f}s), "
        f"chained(2..8)=1-1/(2m) cross-checked (max {t_ch_max:.2f}s)",
    )


def test_criterion_02_parallel_repetition():
    t0 = time.monotonic()
    r = game_value_exact(GameSpec.pr(), reps=2)
    dt = time.monotonic() - t0
    replay = replay_witness(GameSpec.pr(), r)
    ok = dt < 300 and F(3, 4) ** 2 <= r.value <= F(3, 4) and replay == r.value
    _line(2, ok, f"pr reps=2 value={r.value} in {dt:.2f}s, witness replays to {replay}")


def test_criterion_03_forced_marginals():
    lo, hi = marginal_extremes()
    ok = (lo, hi) == (F(1, 2), F(1, 2))
    _line(3, ok, f"marginal extremes = ({lo}, {hi})")


def test_criterion_04_fine_membership():
    res = fine_membership(pr_box_distribution())
    nonlocal_ok = not res.local and res.value_on_dist > res.vertex_max

    g = GameSpec.pr()
    vertices_ok = True
    for fa0 in range(2):
        for fa1 in range(2):
            for fb0 in range(2):
                for fb1 in range(2):
                    fa, fb = (fa0, fa1), (fb0, fb1)
                    v = fine_membership(deterministic_distribution(g, fa, fb))
                    vertices_ok &= v.local and sum(w for w, _, _ in v.weights) == 1

    coins = Distribution(
        g,
        {
            (a, b, x, y): F(1, 4)
            for a in range(2)
            for b in range(2)
            for x in range(2)
            for y in range(2)
        },
    )
    coins_res = fine_membership(coins)
    ok = nonlocal_ok and vertices_ok and coins_res.local
    _line(
        4,
        ok,
        f"pr box NonLocal (value {res.value_on_dist} > vertex max {res.vertex_max}); "
        f"all 16 vertices and fair coins Local with exact weights",
    )


def test_criterion_05_lz78_calibration():
    n = 1 << 16
    results = {}
    for name, s in (
        ("zeros", gen_computable("zeros", n)),
        ("random", gen_seeded_random(n, 2, SS.inputs.derive("cal"))),
        ("thue_morse", gen_computable("thue_morse", n)),
    ):
        t0 = time.monotonic()
        rate = C.estimate_k(s, "lz78").rate
        results[name] = (rate, time.monotonic() - t0)
    ok = (
        results["zeros"][0] <= 0.05
        and results["random"][0] >= 0.9
        and results["thue_morse"][0] <= 0.1
        and all(t < 5 for _, t in results.values())
    )
    _line(
        5,
        ok,
        "lz78 @2^16: "
        + ", ".join(f"{k}={r:.4f} ({t:.2f}s)" for k, (r, t) in results.items()),
    )


@pytest.fixture(scope="module")
def pr_quads_15():
    return _pr_quads(1 << 15)


@pytest.fixture(scope="module")
def pr_quads_14():
    return _pr_quads(1 << 14)


def test_criterion_06_theorem1_analogue(pr_quads_15):
    n = 1 << 15
    details = []
    ok = True
    from nonlocality.strings import pointwise_product

    nosig = pr_quads_15["nosig"]
    ab = pointwise_product(nosig.a, nosig.b)
    sat_ns = satisfaction_fraction(nosig)
    ok &= sat_ns == 1
    for est in ESTIMATORS:
        r_ns = C.estimate_k_cond(nosig.x, nosig.a, est).rate
        ok &= r_ns >= 0.8
        details.append(f"{est}: nosig K(x|a)/n={r_ns:.3f}")
        for s in LOCAL_STRATEGIES:
            quad = pr_quads_15[f"local{s.fa}{s.fb}"]
            r_loc = C.estimate_k_cond(quad.x, quad.a, est).rate
            sat = satisfaction_fraction(quad)
            ok &= r_loc <= 0.1 and abs(float(sat) - 0.75) <= 0.01
            details.append(f"local{s.fa}: {r_loc:.4f}, sat={float(sat):.4f}")
        r_ab = C.estimate_k_cond(ab, nosig.b, est).rate
        ok &= 0.35 <= r_ab <= 0.65
        details.append(f"K(a.b|b)/n={r_ab:.3f}")
    _line(6, ok, f"n=2^15, sat(nosig)={sat_ns}; " + "; ".join(details))


def test_criterion_07_theorem3_analogue():
    rep = run_theorem3(8, 1 << 15, F(1, 64), "lz78", SS)
    sat = F(rep.row("satisfaction").value)
    kxa = rep.row("K(x|a)").rate
    kchib = rep.row("K(chi|b)").rate
    target = C.binary_entropy(F(1, 16))
    ok = (
        sat >= 1 - F(2, 64)
        and sat > F(15, 16)
        and kxa >= 0.8
        and abs(kchib - target) <= 0.15
    )
    _line(
        7,
        ok,
        f"m=8 n=2^15 eps=1/64 lz78: sat={float(sat):.4f} (>15/16), "
        f"K(x|a)/n={kxa:.3f}, |K(chi|b)/n - h(1/16)|={abs(kchib - target):.3f}",
    )


def test_criterion_08_no_signaling_tester(pr_quads_14):
    ok = True
    details = []
    for est in ESTIMATORS:
        sig = ns_report(pr_quads_14["signaling"], est, 0.1)
        ok &= (not sig.y_side_ok) and (not sig.passes)
        details.append(f"{est}: signaling delta_y={sig.delta_y:.3f} flagged")
        for key, quad in pr_quads_14.items():
            if key == "signaling":
                continue
            rep = ns_report(quad, est, 0.1)
            ok &= rep.passes
            if not rep.passes:
                details.append(f"{est}: {key} FAILED ({rep.delta_x:.3f},{rep.delta_y:.3f})")
    _line(8, ok, f"n=2^14 theta_ns=0.1 both estimators; " + "; ".join(details))


def test_criterion_09_locality_suite():
    verdicts = {}
    for est in ESTIMATORS:
        rep = run_locality_suite(est, SS)
        verdicts[est] = rep.verdict
    expected = "LocalWitnessed,LocalWitnessed,NotWitnessed"
    ok = all(v == expected for v in verdicts.values())
    _line(9, ok, "; ".join(f"{k}: {v}" for k, v in verdicts.items()))


def test_criterion_10_reproducibility(tmp_path):
    def bundle():
        return (
            run_theorem3(8, 1 << 15, F(1, 64), "lz78", SS).to_jsonl()
            + run_locality_suite("ctx_2", SS).to_jsonl()
            + run_theorem1(1 << 14, "ctx_2", SS, NoSignalingSampler()).to_jsonl()
        )

    first = bundle()
    second = bundle()
    (tmp_path / "first.jsonl").write_text(first)
    (tmp_path / "second.jsonl").write_text(second)
    ok = first == second
    _line(10, ok, f"repeated run byte-identical ({len(first)} bytes of reports)")
