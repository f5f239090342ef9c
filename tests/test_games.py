import json
import random
from fractions import Fraction

import pytest

from nonlocality.games import (
    GameSpec,
    LocalDeterministic,
    LocalityThresholds,
    NoSignalingSampler,
    PromiseViolation,
    Quadruple,
    SignalingSampler,
    load_quadruple,
    locality_verdict,
    ns_report,
    parse_game,
    play,
    satisfaction_fraction,
    save_quadruple,
    winning,
)
from nonlocality.strings import (
    FormatError,
    Seed,
    SymbolString,
    gen_promise_inputs,
    gen_seeded_random,
    parse_fraction,
    write_all,
)

SEED = Seed.from_int(31)


def test_pr_win_table():
    g = GameSpec.pr()
    for a in range(2):
        for b in range(2):
            for x in range(2):
                for y in range(2):
                    assert g.win(a, b, x, y) == ((x ^ y) == (a & b))
            assert (a, b) in g.promise_pairs()


def test_chained_promise_and_win():
    g = GameSpec.chained(4)
    pairs = g.promise_pairs()
    assert (1, 1) in pairs and (1, 2) in pairs
    assert (1, 3) not in pairs
    # only the wrap-around pair demands a mismatch
    assert g.win(3, 0, 0, 1) and not g.win(3, 0, 0, 0)
    assert g.win(2, 2, 1, 1) and not g.win(2, 3, 1, 0)


@pytest.mark.parametrize(
    "game", [GameSpec.pr(), GameSpec.magic_square()] + [GameSpec.chained(m) for m in range(2, 10)]
)
def test_winning_is_the_win_table_on_the_promise(game):
    cells = {
        (a, b, x, y)
        for a in range(game.qA)
        for b in range(game.qB)
        for x in range(game.qX)
        for y in range(game.qY)
        if (a, b) in game.promise_pairs() and game.win(a, b, x, y)
    }
    assert winning(game) == cells


@pytest.mark.parametrize("m", range(2, 10))
def test_chained_target_asks_for_a_mismatch_only_at_the_wraparound_pair(m):
    # theorem 3's chi marks exactly the rounds whose pair has target bit 1
    g = GameSpec.chained(m)
    marked = [ab for ab in g.promise_pairs() if g.target_bit(*ab)]
    assert marked == [(m - 1, 0)]


def test_parse_game_is_the_one_kind_parser():
    assert parse_game("pr") == GameSpec.pr()
    assert parse_game("chained", 5) == GameSpec.chained(5)
    assert parse_game("magic_square", 7) == GameSpec.magic_square()
    # m is checked for every kind, though only a chained game reads it
    bad_m = (
        ("chained", 1), ("chained", "5"), ("chained", True), ("pr", "garbage"), ("magic_square", [1]),
    )
    for kind, m in (("nope", 2), (None, 2), *bad_m):
        with pytest.raises(FormatError):
            parse_game(kind, m)


def test_magic_square_win_table_against_hand_decode():
    """Full 3*3*4*4 truth table checked against an independently written
    grid decoding: Alice fills her row with even parity, Bob his column
    with odd parity, and they must agree at the intersection."""
    g = GameSpec.magic_square()
    for row in range(3):
        for col in range(3):
            for x in range(4):
                for y in range(4):
                    # hand decode, written from the grid definition
                    a0, a1 = (x >> 1) & 1, x & 1
                    alice = [a0, a1, (a0 ^ a1)]
                    b0, b1 = (y >> 1) & 1, y & 1
                    bob = [b0, b1, 1 ^ b0 ^ b1]
                    assert sum(alice) % 2 == 0
                    assert sum(bob) % 2 == 1
                    expected = alice[col] == bob[row]
                    assert g.win(row, col, x, y) == expected


def test_nosig_sampler_eps_zero_wins_every_round():
    for game, (a, b) in (
        (GameSpec.pr(), (gen_seeded_random(3000, 2, SEED.derive("a")),
                         gen_seeded_random(3000, 2, SEED.derive("b")))),
        (GameSpec.chained(5), gen_promise_inputs(5, 3000, SEED.derive("c"))),
        (GameSpec.magic_square(), (gen_seeded_random(3000, 3, SEED.derive("ma")),
                                   gen_seeded_random(3000, 3, SEED.derive("mb")))),
    ):
        x, y = play(NoSignalingSampler(), game, a, b, SEED.derive("s"))
        assert satisfaction_fraction(Quadruple(game, a, b, x, y)) == 1


def test_nosig_sampler_noise_rate_close_to_eps():
    g = GameSpec.pr()
    a = gen_seeded_random(20000, 2, SEED.derive("na"))
    b = gen_seeded_random(20000, 2, SEED.derive("nb"))
    x, y = play(NoSignalingSampler(Fraction(1, 8)), g, a, b, SEED.derive("ns"))
    sat = satisfaction_fraction(Quadruple(g, a, b, x, y))
    assert abs(float(sat) - 7 / 8) < 0.02


def test_nosig_sampler_marginals_unbiased():
    g = GameSpec.pr()
    a = gen_seeded_random(20000, 2, SEED.derive("ua"))
    b = gen_seeded_random(20000, 2, SEED.derive("ub"))
    x, y = play(NoSignalingSampler(), g, a, b, SEED.derive("us"))
    for s in (x, y):
        ones = sum(s.data)
        assert abs(ones / 20000 - 0.5) < 0.02


def test_magic_square_outputs_uniform_per_input():
    g = GameSpec.magic_square()
    a = gen_seeded_random(40000, 3, SEED.derive("qa"))
    b = gen_seeded_random(40000, 3, SEED.derive("qb"))
    x, _ = play(NoSignalingSampler(), g, a, b, SEED.derive("qs"))
    counts = {}
    for i in range(40000):
        counts.setdefault(a[i], [0] * 4)[x[i]] += 1
    for av, row in counts.items():
        total = sum(row)
        for c in row:
            assert abs(c / total - 0.25) < 0.03, (av, row)


def test_local_deterministic_and_scheduling_independence():
    g = GameSpec.pr()
    a = gen_seeded_random(4000, 2, SEED.derive("la"))
    b = gen_seeded_random(4000, 2, SEED.derive("lb"))
    x, y = play(LocalDeterministic((0, 1), (1, 0)), g, a, b, SEED)
    assert x.data == a.data and y.data == bytes(1 - v for v in b.data)
    # per-round PRF: same seed gives identical outputs independent of order
    x2, y2 = play(NoSignalingSampler(), g, a, b, SEED.derive("o"))
    x3, y3 = play(NoSignalingSampler(), g, a, b, SEED.derive("o"))
    assert (x2.data, y2.data) == (x3.data, y3.data)


def test_signaling_sampler_copies_alice_input():
    g = GameSpec.pr()
    a = gen_seeded_random(1000, 2, SEED.derive("sa"))
    b = gen_seeded_random(1000, 2, SEED.derive("sb"))
    x, y = play(SignalingSampler(), g, a, b, SEED.derive("ss"))
    assert y.data == a.data


def test_promise_violation_reports_first_index():
    g = GameSpec.chained(4)
    a = SymbolString(4, b"\x00\x01\x00")
    b = SymbolString(4, b"\x00\x03\x01")  # index 1 violates
    with pytest.raises(PromiseViolation) as exc:
        play(LocalDeterministic((0,) * 4, (0,) * 4), g, a, b, SEED)
    assert exc.value.index == 1


def test_satisfaction_promise_violation_reports_first_index():
    g = GameSpec.chained(4)
    a = SymbolString(4, b"\x00\x01\x02\x00\x03")
    b = SymbolString(4, b"\x00\x02\x00\x02\x00")  # indices 2 and 3 violate
    x = SymbolString(2, bytes(5))
    with pytest.raises(PromiseViolation) as exc:
        satisfaction_fraction(Quadruple(g, a, b, x, x))
    assert exc.value.index == 2


@pytest.mark.parametrize("game", [GameSpec.pr(), GameSpec.chained(5), GameSpec.magic_square()])
def test_satisfaction_matches_a_per_round_count(game):
    rng = random.Random(game.label())
    if game.kind == "chained":
        a, b = gen_promise_inputs(5, 500, SEED.derive("pa"))
    else:
        a = gen_seeded_random(500, game.qA, SEED.derive("pa"))
        b = gen_seeded_random(500, game.qB, SEED.derive("pb"))
    x = SymbolString(game.qX, bytes(rng.randrange(game.qX) for _ in range(500)))
    y = SymbolString(game.qY, bytes(rng.randrange(game.qY) for _ in range(500)))
    wins = sum(game.win(*r) for r in zip(a.data, b.data, x.data, y.data))
    assert satisfaction_fraction(Quadruple(game, a, b, x, y)) == Fraction(wins, 500)


def test_satisfaction_empty_quadruple_is_one():
    g = GameSpec.pr()
    e = SymbolString(2, b"")
    assert satisfaction_fraction(Quadruple(g, e, e, e, e)) == 1


def test_satisfaction_exact_fraction():
    g = GameSpec.pr()
    a = SymbolString(2, b"\x00\x01\x01\x01")
    b = SymbolString(2, b"\x00\x00\x01\x01")
    x = SymbolString(2, b"\x00\x00\x00\x00")
    y = SymbolString(2, b"\x00\x00\x01\x00")
    assert satisfaction_fraction(Quadruple(g, a, b, x, y)) == Fraction(3, 4)


def test_ns_report_passes_for_nosig_and_flags_signaling():
    n = 4096
    g = GameSpec.pr()
    a = gen_seeded_random(n, 2, SEED.derive("ra"))
    b = gen_seeded_random(n, 2, SEED.derive("rb"))
    x, y = play(NoSignalingSampler(), g, a, b, SEED.derive("rs"))
    rep = ns_report(Quadruple(g, a, b, x, y), "ctx_2")
    assert rep.passes
    xs, ys = play(SignalingSampler(), g, a, b, SEED.derive("rt"))
    rep = ns_report(Quadruple(g, a, b, xs, ys), "ctx_2")
    assert not rep.y_side_ok and not rep.passes


def test_locality_verdict_threshold_monotonicity():
    n = 4096
    g = GameSpec.pr()
    a = gen_seeded_random(n, 2, SEED.derive("va"))
    b = gen_seeded_random(n, 2, SEED.derive("vb"))
    x, y = play(NoSignalingSampler(), g, a, b, SEED.derive("vs"))
    quad = Quadruple(g, a, b, x, y)
    lam = SymbolString(2, b"")
    strict = locality_verdict(quad, lam, "ctx_2", LocalityThresholds(0.25, 0.1))
    lax = locality_verdict(quad, lam, "ctx_2", LocalityThresholds(0.25, 2.0))
    # loosening thresholds can only flip verdicts toward witnessed
    assert (not strict.witnessed) or lax.witnessed
    assert lax.witnessed


def test_quadruple_manifest_roundtrip_and_rejects_unknown_fields(tmp_path):
    g = GameSpec.chained(3)
    a, b = gen_promise_inputs(3, 50, SEED.derive("ja"))
    x, y = play(NoSignalingSampler(), g, a, b, SEED.derive("js"))
    quad = Quadruple(g, a, b, x, y)
    # a stem names files in the manifest's directory, where the reader looks
    for stem in ("../t", "sub/t", "..", ".", ""):
        with pytest.raises(ValueError):
            save_quadruple(quad, tmp_path, stem)
    assert list(tmp_path.parent.glob("t.*")) == list(tmp_path.iterdir()) == []
    # save_quadruple only returns the writes; write_all makes the files
    writes = save_quadruple(quad, tmp_path, "t", eps=Fraction(0))
    assert list(tmp_path.iterdir()) == []
    write_all(writes)
    manifest = writes[-1][0]
    assert manifest == tmp_path / "t.json"
    back = load_quadruple(manifest)
    assert back.game == g and back.x.data == quad.x.data
    blob = json.loads(manifest.read_text())
    blob["surprise"] = 1
    manifest.write_text(json.dumps(blob))
    with pytest.raises(FormatError):
        load_quadruple(manifest)


def test_quadruple_manifest_eps_and_seeds_round_trip(tmp_path):
    g = GameSpec.pr()
    a = gen_seeded_random(16, 2, SEED.derive("ea"))
    x, y = play(NoSignalingSampler(), g, a, a, SEED.derive("es"))
    quad = Quadruple(g, a, a, x, y)
    seeds = {"sampler": SEED.hex(), "noise": None}
    for eps in (None, Fraction(0), Fraction(1, 3), Fraction(1)):
        writes = save_quadruple(quad, tmp_path, "t", eps=eps, seeds=seeds)
        write_all(writes)
        blob = json.loads(writes[-1][0].read_text())
        assert blob["seeds"] == seeds
        assert blob["eps"] is None if eps is None else parse_fraction(blob["eps"]) == eps
        assert load_quadruple(writes[-1][0]).x.data == x.data


@pytest.mark.parametrize("eps", [Fraction(-1, 2), Fraction(3, 2), 2])
def test_save_quadruple_refuses_an_eps_outside_the_unit_interval(tmp_path, eps):
    quad = Quadruple(GameSpec.pr(), *[SymbolString(2, b"")] * 4)
    with pytest.raises(ValueError):
        save_quadruple(quad, tmp_path, "t", eps=eps)
    assert list(tmp_path.iterdir()) == []
