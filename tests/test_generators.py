"""The seeded generators and `play` work on whole strings of joined SHA-256
blocks; they must equal the per-symbol reference (tests/reference_generators.py)
byte for byte, and stay within a stated memory bound."""
import random
from fractions import Fraction

import reference_generators as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st
from traced_peak import traced_peak

from nonlocality import games, strings
from nonlocality.games import (
    GameSpec,
    LocalDeterministic,
    NoSignalingSampler,
    SignalingSampler,
    play,
)
from nonlocality.strings import (
    COMPUTABLE_KINDS,
    Seed,
    gen_computable,
    gen_promise_inputs,
    gen_seeded_random,
    prf_blocks,
    round_bits,
)

# gen_seeded_random cuts a chunk of 256 * _CHUNK draws at most; play maps
# _ROUNDS rounds at a time
CHUNK_DRAWS = 256 * strings._CHUNK
ROUNDS = games._ROUNDS


def _seeds():
    return st.integers(0, 2**64 - 1).map(Seed.from_int)


@st.composite
def lengths(draw, edge: int, block: int):
    """0, a short length, or one within a block of a multiple of `edge`."""
    kind = draw(st.sampled_from(["zero", "short", "edge"]))
    if kind == "zero":
        return 0
    if kind == "short":
        return draw(st.integers(1, 700))
    return draw(st.integers(1, 2)) * edge + draw(st.integers(-block - 1, block + 1))


@settings(max_examples=120, derandomize=True, deadline=None)
@example(q=3, n=0, seed=Seed.from_int(0))
@example(q=8, n=CHUNK_DRAWS + 86, seed=Seed.from_int(1))
@example(q=8, n=CHUNK_DRAWS - 86, seed=Seed.from_int(2))
@example(q=5, n=CHUNK_DRAWS + 1, seed=Seed.from_int(3))
@example(q=9, n=2 * CHUNK_DRAWS, seed=Seed.from_int(4))
@example(q=129, n=900, seed=Seed.from_int(5))
@example(q=256, n=CHUNK_DRAWS + 32, seed=Seed.from_int(6))
@given(
    q=st.one_of(st.sampled_from([2, 3, 5, 8, 9, 129, 256]), st.integers(2, 256)),
    n=lengths(CHUNK_DRAWS, 256),
    seed=_seeds(),
)
def test_gen_seeded_random_matches_the_reference(q, n, seed):
    assert gen_seeded_random(n, q, seed) == ref.gen_seeded_random(n, q, seed)


@settings(max_examples=60, derandomize=True, deadline=None)
@example(m=3, n=0, seed=Seed.from_int(0))
@example(m=8, n=5000, seed=Seed.from_int(1))
@example(m=9, n=1, seed=Seed.from_int(2))
@given(
    m=st.one_of(st.integers(2, 9), st.sampled_from([17, 129, 255, 256])),
    n=st.one_of(st.integers(0, 40), st.integers(0, 3000)),
    seed=_seeds(),
)
def test_gen_promise_inputs_matches_the_reference(m, n, seed):
    assert gen_promise_inputs(m, n, seed) == ref.gen_promise_inputs(m, n, seed)


def test_gen_promise_inputs_plays_a_round_again_past_the_chunk_end(monkeypatch):
    # at m = 5 a round takes 5.8 bits on average, so 39 rounds fit the one
    # block of the first chunk at most seeds, but not at all
    calls = []

    def spy(seed, start, stop):
        calls.append(stop)
        return prf_blocks(seed, start, stop)

    monkeypatch.setattr(strings, "prf_blocks", spy)
    outran = 0
    for v in range(100):
        seed = Seed.from_int(v)
        calls.clear()
        assert gen_promise_inputs(5, 39, seed) == ref.gen_promise_inputs(5, 39, seed)
        outran += len(calls) > 1
    assert outran


def test_gen_computable_matches_the_reference():
    for kind in COMPUTABLE_KINDS:
        for n in [*range(70), 255, 256, 1000, 1793, 1794, 5000, 70000]:
            assert gen_computable(kind, n) == ref.gen_computable(kind, n), (kind, n)


GAMES = [GameSpec.pr(), GameSpec.magic_square()] + [GameSpec.chained(m) for m in range(2, 10)]
EPS = [
    Fraction(0),
    Fraction(1, 64),
    Fraction(1, 3),
    Fraction(1),
    Fraction(2**32 - 1, 2**32),
    Fraction(1, 2**32 + 1),
]


def _inputs(game: GameSpec, n: int, seed: Seed):
    if game.kind == "chained":
        return gen_promise_inputs(game.m, n, seed.derive("ab"))
    return (
        gen_seeded_random(n, game.qA, seed.derive("a")),
        gen_seeded_random(n, game.qB, seed.derive("b")),
    )


@st.composite
def play_cases(draw):
    """(strategy, game, a, b, seed, noise_seed) with noise_seed None or given."""
    game = draw(st.sampled_from(GAMES))
    n = draw(lengths(ROUNDS, 64))
    seed = draw(_seeds())
    noise_seed = draw(st.one_of(st.none(), _seeds()))
    a, b = _inputs(game, n, seed)
    kinds = ["nosig", "local"] + (["signaling"] if game.qX == 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "local":
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        strategy = LocalDeterministic(
            tuple(rng.randrange(game.qX) for _ in range(game.qA)),
            tuple(rng.randrange(game.qY) for _ in range(game.qB)),
        )
    elif kind == "signaling":
        strategy = SignalingSampler()
    elif n and draw(st.booleans()):
        # eps at one round's own 32-bit noise draw: u * den == num * 2^32 there,
        # so only the strict comparison leaves that round without noise
        i = draw(st.integers(0, n - 1))
        u = round_bits(noise_seed or seed.derive("noise"), i, 32)
        strategy = NoSignalingSampler(Fraction(u, 2**32))
    else:
        strategy = NoSignalingSampler(draw(st.sampled_from(EPS)))
    return strategy, game, a, b, seed, noise_seed


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=play_cases())
def test_play_matches_the_reference(case):
    assert play(*case) == ref.play(*case)


def test_play_matches_the_reference_on_every_game_and_noise_rate():
    for game in GAMES:
        seed = Seed.from_int(game.m if game.kind == "chained" else len(game.kind))
        a, b = _inputs(game, ROUNDS + 1, seed)
        for eps in EPS:
            for noise_seed in (None, Seed.from_int(99)):
                case = (NoSignalingSampler(eps), game, a, b, seed, noise_seed)
                assert play(*case) == ref.play(*case), (game, eps, noise_seed)


# Above twice the output, what the last chunk of draws or rounds adds. The
# sizes below make the output dominate: a chunk of play's 1024 rounds holds
# about 0.2 MB at its peak, but only while fewer than half the output's parts
# exist. One more copy-sized string (2.5 times the output) fails both tests.
ALLOWANCE = 1 << 16


def test_generation_peaks_below_twice_its_output():
    n = 2**20
    _, peak = traced_peak(lambda: gen_seeded_random(n, 3, Seed.from_int(1)))
    assert peak < 2 * n + ALLOWANCE, peak
    n = 2**18  # a promise pair is two n-symbol strings
    _, peak = traced_peak(lambda: gen_promise_inputs(3, n, Seed.from_int(2)))
    assert peak < 2 * (2 * n) + ALLOWANCE, peak


def test_play_peaks_below_twice_its_output():
    n = 2**17
    seed = Seed.from_int(2)
    pr, ms = GameSpec.pr(), GameSpec.magic_square()
    cases = [
        (NoSignalingSampler(Fraction(1, 3)), pr, *_inputs(pr, n, seed)),
        (NoSignalingSampler(), ms, *_inputs(ms, n, seed)),
    ]
    for strategy, game, a, b in cases:
        _, peak = traced_peak(lambda: play(strategy, game, a, b, seed))
        # the output is two n-symbol strings
        assert peak < 2 * (2 * n) + ALLOWANCE, (game, strategy, peak)
