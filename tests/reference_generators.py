"""The seeded generators and `play` as they were written before they went
through whole-string operations on joined SHA-256 digests: a bit stream
object read one symbol at a time, and one `round_bits` call per round.

Kept only as the reference the functions in src/ must match byte for byte
(tests/test_generators.py). The stream and the noise test are copied here
too, so that a fault in src/'s versions cannot hide by showing up on both
sides; `round_bits`, the PRF of one round, is the spec both read.
"""
from __future__ import annotations

from fractions import Fraction

from nonlocality.games import (
    FormatError,
    GameSpec,
    LocalDeterministic,
    NoSignalingSampler,
    SignalingSampler,
    _check_promise,
)
from nonlocality.strings import Seed, SymbolString, bits_per_symbol, round_bits


class BitStream:
    """Deterministic bit source: SHA-256 of (seed, counter) blocks."""

    def __init__(self, seed: Seed) -> None:
        self._seed = seed
        self._ctr = 0
        self._acc = 0
        self._nbits = 0

    def _refill(self) -> None:
        self._acc |= round_bits(self._seed, self._ctr, 256) << self._nbits
        self._ctr += 1
        self._nbits += 256

    def bits(self, k: int) -> int:
        while self._nbits < k:
            self._refill()
        v = self._acc & ((1 << k) - 1)
        self._acc >>= k
        self._nbits -= k
        return v

    def symbol(self, q: int) -> int:
        """Exactly uniform symbol in {0..q-1} by rejection sampling."""
        k = bits_per_symbol(q)
        while True:
            v = self.bits(k)
            if v < q:
                return v


def gen_seeded_random(n: int, q: int, seed: Seed) -> SymbolString:
    if n < 0:
        raise ValueError("length must be non-negative")
    stream = BitStream(seed)
    return SymbolString(q, bytes(stream.symbol(q) for _ in range(n)))


def gen_computable(kind: str, n: int) -> SymbolString:
    if n < 0:
        raise ValueError("length must be non-negative")
    if kind == "zeros":
        return SymbolString(2, bytes(n))
    if kind == "alternating":
        return SymbolString(2, bytes(i & 1 for i in range(n)))
    if kind == "thue_morse":
        return SymbolString(2, bytes(bin(i).count("1") & 1 for i in range(n)))
    if kind == "counter":
        out = bytearray()
        i = 1
        while len(out) < n:
            out.extend(int(c) for c in bin(i)[2:])
            i += 1
        return SymbolString(2, bytes(out[:n]))
    raise ValueError(f"unknown computable kind: {kind!r}")


def gen_promise_inputs(m: int, n: int, seed: Seed) -> tuple[SymbolString, SymbolString]:
    if m < 2:
        raise ValueError("ring size must be >= 2")
    if n < 0:
        raise ValueError("length must be non-negative")
    stream = BitStream(seed)
    a = bytearray(n)
    b = bytearray(n)
    for i in range(n):
        ai = stream.symbol(m)
        shift = stream.bits(1)
        a[i] = ai
        b[i] = (ai + shift) % m
    return SymbolString(m, bytes(a)), SymbolString(m, bytes(b))


def _magic_encode(cross: int, shared: int, free: int, parity: int) -> int:
    """One party's output symbol (cells 0,1; see _magic_cells): the cell at
    `cross`, where Alice's row meets Bob's column (Alice's cell at Bob's
    input, Bob's at Alice's), carries the shared bit, the first remaining
    cell a fresh bit, and the last is forced to the party's parity."""
    cells = [0, 0, 0]
    others = [c for c in range(3) if c != cross]
    cells[cross] = shared
    cells[others[0]] = free
    cells[others[1]] = (shared + free + parity) % 2
    return (cells[0] << 1) | cells[1]


def _bernoulli(u: int, eps: Fraction) -> int:
    # u is a uniform 32-bit draw; exact comparison against eps
    return 1 if u * eps.denominator < eps.numerator * (1 << 32) else 0


def play(
    strategy,
    game: GameSpec,
    a: SymbolString,
    b: SymbolString,
    seed: Seed,
    noise_seed: Seed | None = None,
) -> tuple[SymbolString, SymbolString]:
    if a.n != b.n:
        raise FormatError("input lengths differ")
    if a.q != game.qA or b.q != game.qB:
        raise FormatError("input alphabets do not match the game")
    _check_promise(game, a.data, b.data)

    n = a.n
    xs = bytearray(n)
    ys = bytearray(n)
    rounds = enumerate(zip(a.data, b.data))
    if isinstance(strategy, LocalDeterministic):
        strategy.validate(game)
        fa, fb = strategy.fa, strategy.fb
        for i, (u, v) in rounds:
            xs[i] = fa[u]
            ys[i] = fb[v]
    elif isinstance(strategy, NoSignalingSampler):
        if noise_seed is None:
            noise_seed = seed.derive("noise")
        if game.kind in ("pr", "chained"):
            target = {ab: game.target_bit(*ab) for ab in game.promise_pairs()}
            eps = strategy.eps
            for i, ab in rounds:
                x = round_bits(seed, i, 1)
                # _bernoulli is 0 for every draw when eps is 0
                noise = _bernoulli(round_bits(noise_seed, i, 32), eps) if eps else 0
                xs[i] = x
                ys[i] = x ^ target[ab] ^ noise
        else:
            for i, (u, v) in rounds:
                draw = round_bits(seed, i, 3)
                shared = draw & 1  # intersection cell value
                xs[i] = _magic_encode(v, shared, (draw >> 1) & 1, 0)
                ys[i] = _magic_encode(u, shared, (draw >> 2) & 1, 1)
    elif isinstance(strategy, SignalingSampler):
        if game.qX != 2 or game.qY != 2:
            raise FormatError("signaling control needs binary outputs")
        for i, u in enumerate(a.data):
            xs[i] = round_bits(seed, i, 1)
            ys[i] = u & 1
    else:
        raise TypeError(f"unknown strategy: {strategy!r}")
    return SymbolString(game.qX, bytes(xs)), SymbolString(game.qY, bytes(ys))
