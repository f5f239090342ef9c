from fractions import Fraction as F

import pytest

from nonlocality.games import GameSpec, LocalDeterministic, Quadruple, play, satisfaction_fraction
from nonlocality.oracles import (
    Distribution,
    chained_value_upper_bound,
    deterministic_distribution,
    fine_membership,
    game_value_exact,
    marginal_extremes,
    mix_distributions,
    ns_pr_marginal_extremes,
    pr_box_distribution,
    replay_witness,
)
from nonlocality.strings import Seed, SymbolString


def test_pr_value_exact():
    r = game_value_exact(GameSpec.pr())
    assert r.value == F(3, 4)
    assert replay_witness(GameSpec.pr(), r) == F(3, 4)


def test_magic_square_value_exact():
    g = GameSpec.magic_square()
    r = game_value_exact(g)
    assert r.value == F(8, 9)
    assert replay_witness(g, r) == F(8, 9)


@pytest.mark.parametrize("m", range(2, 9))
def test_chained_values_and_cycle_parity_bound(m):
    g = GameSpec.chained(m)
    r = game_value_exact(g)
    assert r.value == F(2 * m - 1, 2 * m)
    assert chained_value_upper_bound(m) == r.value
    assert replay_witness(g, r) == r.value


def test_witness_replays_through_game_play():
    # reps=1 witnesses are per-position strategies; replay on the full
    # uniform enumeration of promise pairs reproduces the value exactly
    g = GameSpec.chained(3)
    r = game_value_exact(g)
    pairs = g.promise_pairs()
    a = SymbolString(g.qA, bytes(p[0] for p in pairs))
    b = SymbolString(g.qB, bytes(p[1] for p in pairs))
    x, y = play(LocalDeterministic(r.fa_table(), r.fb_table()), g, a, b, Seed.from_int(0))
    assert satisfaction_fraction(Quadruple(g, a, b, x, y)) == r.value


def test_parallel_repetition_bounds_and_replay():
    g = GameSpec.pr()
    v1 = game_value_exact(g).value
    r2 = game_value_exact(g, reps=2)
    assert v1 * v1 <= r2.value <= v1
    assert replay_witness(g, r2) == r2.value
    assert r2.nodes > 0


def test_parallel_jobs_merge_is_deterministic():
    g = GameSpec.pr()
    r1 = game_value_exact(g, reps=2)
    r2 = game_value_exact(g, reps=2, jobs=2)
    assert (r1.value, r1.fa, r1.fb) == (r2.value, r2.fa, r2.fb)


def test_pr_box_is_nonlocal_with_separating_certificate():
    res = fine_membership(pr_box_distribution())
    assert not res.local
    assert res.value_on_dist > res.vertex_max


def test_deterministic_vertex_is_local_with_weight_one():
    g = GameSpec.pr()
    d = deterministic_distribution(g, (0, 1), (1, 0))
    res = fine_membership(d)
    assert res.local
    assert res.weights == [(F(1), (0, 1), (1, 0))]


def test_fair_coins_distribution_is_local():
    g = GameSpec.pr()
    p = {}
    for a in range(2):
        for b in range(2):
            for x in range(2):
                for y in range(2):
                    p[(a, b, x, y)] = F(1, 4)
    res = fine_membership(Distribution(g, p))
    assert res.local
    assert sum(w for w, _, _ in res.weights) == 1


def test_local_mixture_weights_reconstruct():
    g = GameSpec.pr()
    d = mix_distributions(
        [
            (F(1, 2), deterministic_distribution(g, (0, 0), (0, 0))),
            (F(1, 2), deterministic_distribution(g, (1, 0), (0, 1))),
        ]
    )
    res = fine_membership(d)
    assert res.local
    recon = {}
    for w, fa, fb in res.weights:
        for a in range(2):
            for b in range(2):
                k = (a, b, fa[a], fb[b])
                recon[k] = recon.get(k, F(0)) + w
    for key, v in d.p.items():
        assert recon.get(key, F(0)) == v


def test_distribution_validation():
    g = GameSpec.pr()
    with pytest.raises(ValueError):
        Distribution(g, {(0, 0, 0, 0): F(1, 2)})  # does not normalize
    with pytest.raises(ValueError):
        Distribution(g, {(0, 0, 0, 0): F(3, 2), (0, 0, 1, 1): F(-1, 2),
                         **{(a, b, 0, 0): F(1) for a in range(2) for b in range(2)
                            if (a, b) != (0, 0)}})
    with pytest.raises(ValueError, match="outside the game's alphabets"):
        Distribution(g, {**pr_box_distribution().p, (5, 5, 0, 0): F(0)})


def test_marginals_forced_to_half():
    assert ns_pr_marginal_extremes() == (F(1, 2), F(1, 2))


def test_marginals_relaxations():
    lo, hi = marginal_extremes(F(3, 4), True)
    assert hi > F(1, 2)
    lo, hi = marginal_extremes(F(1), False)
    assert hi == F(1)


def test_pr_box_wins_always_and_uniform_marginal():
    d = pr_box_distribution()
    assert d.win_probability() == 1
    for a in range(2):
        for b in range(2):
            px0 = sum(d.prob(a, b, 0, y) for y in range(2))
            assert px0 == F(1, 2)
