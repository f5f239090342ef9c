"""Non-local systems (PR, chained, magic square), strategies, and the
complexity-based no-signaling and locality testers.

All symbols are 0-based internally; chained inputs display as {1..m}
(symbol + 1) and magic-square outputs as {1..4}.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path, PurePath

from .complexity import (
    THETA_ZERO_DEFAULT,
    estimate_k,
    estimate_k_cond,
    frac_str,
)
from .strings import (
    FormatError,
    Record,
    Seed,
    SymbolString,
    concat,
    interleave,
    parse_fraction,
    read_json,
    read_syms,
    round_bytes,
    rounds_below,
    write_syms,
)


class PromiseViolation(FormatError):
    def __init__(self, index: int):
        super().__init__(f"promise violated at position {index}")
        self.index = index


# --- game definitions -------------------------------------------------------

def _magic_cells(symbol: int, parity: int) -> tuple[int, int, int]:
    """The three cells a magic-square output symbol 0..3 encodes: its two
    bits are cells 0 and 1, cell 2 completes the parity (Alice's rows are
    even, 0; Bob's columns odd, 1)."""
    c0 = (symbol >> 1) & 1
    c1 = symbol & 1
    return c0, c1, (c0 + c1 + parity) % 2


# (input, output) alphabet sizes per game kind; None: the chained ring size m
_ALPHABETS = {"pr": (2, 2), "chained": (None, 2), "magic_square": (3, 4)}


class GameSpec(Record):
    kind: str  # "pr" | "chained" | "magic_square"
    m: int = 2  # ring size for chained; unused otherwise

    @classmethod
    def pr(cls) -> "GameSpec":
        return cls("pr")

    @classmethod
    def chained(cls, m: int) -> "GameSpec":
        if m < 2:
            raise ValueError("ring size must be >= 2")
        return cls("chained", m)

    @classmethod
    def magic_square(cls) -> "GameSpec":
        return cls("magic_square")

    @property
    def qA(self) -> int:
        return _ALPHABETS[self.kind][0] or self.m

    @property
    def qB(self) -> int:
        return _ALPHABETS[self.kind][0] or self.m

    @property
    def qX(self) -> int:
        return _ALPHABETS[self.kind][1]

    @property
    def qY(self) -> int:
        return _ALPHABETS[self.kind][1]

    def win(self, a: int, b: int, x: int, y: int) -> bool:
        self._check_inputs(a, b)
        if not (0 <= x < self.qX and 0 <= y < self.qY):
            raise ValueError(f"output symbol out of alphabet: x={x}, y={y}")
        if self.kind == "magic_square":
            return _magic_cells(x, 0)[b] == _magic_cells(y, 1)[a]
        return (x ^ y) == self.target_bit(a, b)

    def target_bit(self, a: int, b: int) -> int:
        """The bit x XOR y must equal (PR and chained games only). In the
        chained game only the wrap-around pair, displayed (a=m, b=1), asks
        for a mismatch: theorem 3's rare event chi."""
        if self.kind == "pr":
            return a & b
        if self.kind == "chained":
            return 1 if (a == self.m - 1 and b == 0) else 0
        raise ValueError("no XOR target for this game")

    def promise_pairs(self) -> list[tuple[int, int]]:
        """The input pairs on the promise, in lexicographic order."""
        if self.kind == "chained":
            # b = a or a + 1 (mod m): 2m pairs, listed without an m*m scan
            return [(a, b) for a in range(self.m) for b in sorted({a, (a + 1) % self.m})]
        return [(a, b) for a in range(self.qA) for b in range(self.qB)]

    def promise_count(self) -> int:
        """len(self.promise_pairs()), without listing the pairs."""
        return 2 * self.m if self.kind == "chained" else self.qA * self.qB

    def _check_inputs(self, a: int, b: int) -> None:
        if not (0 <= a < self.qA and 0 <= b < self.qB):
            raise ValueError(f"input symbol out of alphabet: a={a}, b={b}")

    def label(self) -> str:
        if self.kind == "chained":
            return f"chained({self.m})"
        return self.kind


GAME_KINDS = ("pr", "chained", "magic_square")


def winning(game) -> set[tuple[int, int, int, int]]:
    """The game's win table: every winning (a, b, x, y) over its promise
    pairs. Scores, distributions and the exact search all read it, so it
    reads only promise_pairs, qX, qY and win."""
    return {
        (a, b, x, y)
        for a, b in game.promise_pairs()
        for x in range(game.qX)
        for y in range(game.qY)
        if game.win(a, b, x, y)
    }


def parse_game(kind, m=2) -> GameSpec:
    """The game a kind string names (CLI flag, manifest or distribution
    file); m, the chained game's ring size, must be an int >= 2 for every
    kind, as save_quadruple writes it."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 2:
        raise FormatError(f"ring size must be an integer >= 2, got {m!r}")
    if kind == "pr":
        return GameSpec.pr()
    if kind == "magic_square":
        return GameSpec.magic_square()
    if kind != "chained":
        raise FormatError(f"unknown game kind: {kind!r}")
    return GameSpec.chained(m)


# --- strategies --------------------------------------------------------------

class LocalDeterministic(Record):
    """Per-position tables: x_i = fa[a_i], y_i = fb[b_i]."""

    fa: tuple
    fb: tuple

    kind = "local_deterministic"

    def validate(self, game: GameSpec) -> None:
        if len(self.fa) != game.qA or len(self.fb) != game.qB:
            raise FormatError("table sizes must match the input alphabets")
        if any(not 0 <= v < game.qX for v in self.fa):
            raise FormatError("fa entries out of the output alphabet")
        if any(not 0 <= v < game.qY for v in self.fb):
            raise FormatError("fb entries out of the output alphabet")


class NoSignalingSampler(Record):
    """Samples a winning pair per round (up to noise rate eps on Bob's
    side for the XOR games); both marginals stay exactly unbiased."""

    eps: Fraction = Fraction(0)

    kind = "no_signaling"

    def __post_init__(self):
        e = Fraction(self.eps)
        if not 0 <= e <= 1:
            raise ValueError("noise rate must lie in [0,1]")
        object.__setattr__(self, "eps", e)


class SignalingSampler(Record):
    """Negative control: Bob's output copies Alice's input parity."""

    kind = "signaling"


Strategy = LocalDeterministic | NoSignalingSampler | SignalingSampler


_ROUNDS = 1 << 10  # play maps at most this many rounds at once


def play(
    strategy: Strategy,
    game: GameSpec,
    a: SymbolString,
    b: SymbolString,
    seed: Seed,
    noise_seed: Seed | None = None,
) -> tuple[SymbolString, SymbolString]:
    """Produce the output pair; per-round randomness is PRF(seed, i), so
    results are independent of evaluation order. Inputs or a strategy that
    do not fit the game raise FormatError before any round is played."""
    if a.n != b.n:
        raise FormatError("input lengths differ")
    if a.q != game.qA or b.q != game.qB:
        raise FormatError("input alphabets do not match the game")
    _check_promise(game, a.data, b.data)

    if isinstance(strategy, LocalDeterministic):
        strategy.validate(game)
    elif isinstance(strategy, NoSignalingSampler):
        if noise_seed is None:
            noise_seed = seed.derive("noise")
    elif not isinstance(strategy, SignalingSampler):
        raise TypeError(f"unknown strategy: {strategy!r}")
    elif game.qX != 2 or game.qY != 2:
        raise FormatError("signaling control needs binary outputs")
    xs, ys = [], []
    for i in range(0, a.n, _ROUNDS):
        x, y = _rounds(strategy, game, a.data, b.data, seed, noise_seed, i)
        xs.append(x)
        ys.append(y)
    x, y = b"".join(xs), b"".join(ys)
    del xs, ys  # SymbolString's check makes one more copy-sized string
    return SymbolString(game.qX, x), SymbolString(game.qY, y)


def _check_promise(game: GameSpec, a: bytes, b: bytes) -> None:
    """Raise PromiseViolation at the first round whose input pair is off the
    game's promise (only the chained game has one)."""
    if game.kind != "chained":
        return
    pairs = set(game.promise_pairs())
    if not pairs.issuperset(zip(a, b)):
        for i, ab in enumerate(zip(a, b)):
            if ab not in pairs:
                raise PromiseViolation(i)


def _int(data: bytes) -> int:
    return int.from_bytes(data, "little")


_LOW_BIT = bytes(c & 1 for c in range(256))


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


# x's code holds Bob's input and draw bits 0 (the shared cell) and 1; y's
# holds Alice's input and draw bits 0 and 2
_MAGIC_DRAW = [bytes(d & 1 | d >> j & 2 for d in range(256)) for j in (0, 1)]
# code 4 * cross + 2 * free + shared -> _magic_encode(cross, shared, free, parity)
_MAGIC_OUT = [
    bytes(_magic_encode(c >> 2, c & 1, c >> 1 & 1, p) for c in range(12)).ljust(256, b"\0")
    for p in (0, 1)
]


def _rounds(strategy, game, a: bytes, b: bytes, seed: Seed, noise_seed, start: int):
    """The outputs of the _ROUNDS rounds from `start`, by translate tables
    over their inputs and draws and XOR of byte strings read as integers."""
    u, v = a[start : start + _ROUNDS], b[start : start + _ROUNDS]
    if isinstance(strategy, LocalDeterministic):
        fa, fb = (bytes(f).ljust(256, b"\0") for f in (strategy.fa, strategy.fb))
        return u.translate(fa), v.translate(fb)
    n = len(u)
    draws = round_bytes(seed, start, start + n)
    if isinstance(strategy, SignalingSampler):
        return draws.translate(_LOW_BIT), u.translate(_LOW_BIT)
    if game.kind == "magic_square":
        codes = (_int(w) << 2 | _int(draws.translate(t)) for w, t in zip((v, u), _MAGIC_DRAW))
        return tuple(c.to_bytes(n, "little").translate(t) for c, t in zip(codes, _MAGIC_OUT))
    # with (hot_a, hot_b) the one pair whose target is 1 (pr: (1, 1); chained:
    # (m-1, 0)), target_bit(a, b) is target_bit(a, hot_b) & target_bit(hot_a, b)
    hot_a, hot_b = next(ab for ab in game.promise_pairs() if game.target_bit(*ab))
    on_a = bytes(game.target_bit(c, hot_b) for c in range(game.qA)).ljust(256, b"\0")
    on_b = bytes(game.target_bit(hot_a, c) for c in range(game.qB)).ljust(256, b"\0")
    x = draws.translate(_LOW_BIT)
    y = _int(x) ^ (_int(u.translate(on_a)) & _int(v.translate(on_b)))
    eps = strategy.eps
    if eps:
        # noise where the 32-bit draw w has w * den < num * 2^32, that is w < cut
        cut = -(-(eps.numerator << 32) // eps.denominator)
        y ^= _int(rounds_below(noise_seed, start, start + n, cut))
    return x, y.to_bytes(n, "little")


# --- quadruples ---------------------------------------------------------------

class Quadruple(Record):
    game: GameSpec
    a: SymbolString
    b: SymbolString
    x: SymbolString
    y: SymbolString

    def __post_init__(self):
        g = self.game
        if not (self.a.n == self.b.n == self.x.n == self.y.n):
            raise FormatError("all four strings must have equal length")
        if (self.a.q, self.b.q, self.x.q, self.y.q) != (g.qA, g.qB, g.qX, g.qY):
            raise FormatError("alphabets do not match the game")

    @property
    def n(self) -> int:
        return self.a.n


def satisfaction_fraction(quad: Quadruple) -> Fraction:
    """Exact fraction of winning rounds; raises on a promise violation."""
    g = quad.game
    _check_promise(g, quad.a.data, quad.b.data)
    if quad.n == 0:
        return Fraction(1)
    rounds = zip(quad.a.data, quad.b.data, quad.x.data, quad.y.data)
    return Fraction(sum(map(winning(g).__contains__, rounds)), quad.n)


# --- no-signaling tester -------------------------------------------------------

class NoSignalingReport(Record):
    estimator_id: str
    rate_x_given_a: float
    rate_x_given_ab: float
    rate_y_given_b: float
    rate_y_given_ab: float
    delta_x: float
    delta_y: float
    theta_ns: float

    @property
    def x_side_ok(self) -> bool:
        return self.delta_x <= self.theta_ns

    @property
    def y_side_ok(self) -> bool:
        return self.delta_y <= self.theta_ns

    @property
    def passes(self) -> bool:
        return self.x_side_ok and self.y_side_ok


THETA_NS_DEFAULT = 0.1


def ns_report(
    quad: Quadruple, estimator, theta_ns: float = THETA_NS_DEFAULT
) -> NoSignalingReport:
    """Finite-scale no-signaling check: each party's output should be no
    easier to describe from both inputs than from its own input alone."""
    a, b, x, y = quad.a, quad.b, quad.x, quad.y
    kxa = estimate_k_cond(x, a, estimator)
    kxab = estimate_k_cond(x, [a, b], estimator)
    kyb = estimate_k_cond(y, b, estimator)
    kyab = estimate_k_cond(y, [a, b], estimator)
    return NoSignalingReport(
        estimator_id=kxa.estimator_id,
        rate_x_given_a=kxa.rate,
        rate_x_given_ab=kxab.rate,
        rate_y_given_b=kyb.rate,
        rate_y_given_ab=kyab.rate,
        delta_x=abs(kxa.rate - kxab.rate),
        delta_y=abs(kyb.rate - kyab.rate),
        theta_ns=theta_ns,
    )


# --- locality tester -----------------------------------------------------------

class LocalityThresholds(Record):
    defect: float = 0.25  # bits per witness symbol
    output: float = THETA_ZERO_DEFAULT  # rate threshold for K(x|a,lambda)


class LocalityVerdict(Record):
    estimator_id: str
    independence_defect: float
    rate_x: float
    rate_y: float
    thresholds: LocalityThresholds
    witnessed: bool

    @property
    def verdict(self) -> str:
        return "LocalWitnessed" if self.witnessed else "NotWitnessed"


def locality_verdict(
    quad: Quadruple,
    lam: SymbolString,
    estimator,
    thresholds: LocalityThresholds = LocalityThresholds(),
) -> LocalityVerdict:
    """Check a supplied witness: lambda must look independent of the input
    pair, and each output must be cheap given its own input plus lambda.
    A negative verdict only disqualifies this witness."""
    a, b, x, y = quad.a, quad.b, quad.x, quad.y
    joint_ab = interleave(a, b)
    if lam.n:
        # ab first, so that ab||lambda's encode resumes from ab's coder state
        k_ab = estimate_k(joint_ab, estimator).bits
        k_abl = estimate_k(concat(joint_ab, lam), estimator).bits
        k_l = estimate_k(lam, estimator).bits
        defect = abs(k_abl - k_ab - k_l) / lam.n
        conds_x: list = [a, lam]
        conds_y: list = [b, lam]
    else:
        defect = 0.0
        conds_x = [a]
        conds_y = [b]
    kx = estimate_k_cond(x, conds_x, estimator)
    ky = estimate_k_cond(y, conds_y, estimator)
    witnessed = (
        defect <= thresholds.defect
        and kx.rate <= thresholds.output
        and ky.rate <= thresholds.output
    )
    return LocalityVerdict(
        estimator_id=kx.estimator_id,
        independence_defect=defect,
        rate_x=kx.rate,
        rate_y=ky.rate,
        thresholds=thresholds,
        witnessed=witnessed,
    )


# --- quadruple manifests ---------------------------------------------------------

MANIFEST_FIELDS = {"schema", "game", "m", "eps", "seeds", "files"}


def file_stem(stem: str) -> str:
    """stem, if it is one path component other than '.' and '..', so that
    every file save_quadruple names lies where load_quadruple reads it."""
    if stem in ("", ".", "..") or PurePath(stem).name != stem:
        raise ValueError(f"a stem must be a file name, not a path: {stem!r}")
    return stem


def quadruple_files(directory, stem: str) -> list:
    """The paths of a saved quadruple: the a, b, x and y .syms files, then
    the manifest."""
    directory = Path(directory)
    return [directory / f"{stem}.{name}.syms" for name in "abxy"] + [directory / f"{stem}.json"]


def save_quadruple(
    quad: Quadruple,
    directory,
    stem: str,
    eps: Fraction | None = None,
    seeds: dict | None = None,
) -> list:
    """The (path, write) pairs of quadruple_files, for strings.write_all to
    write all or none; write(temp) writes its path's bytes to temp."""
    file_stem(stem)
    if eps is not None and not 0 <= eps <= 1:
        raise ValueError(f"eps must lie in [0, 1]: {eps}")
    *syms, path = quadruple_files(directory, stem)
    manifest = {
        "schema": 1,
        "game": quad.game.kind,
        "m": quad.game.m,
        "eps": frac_str(eps) if eps is not None else None,
        "seeds": seeds or {},
        "files": {name: syms_path.name for name, syms_path in zip("abxy", syms)},
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    strings = (quad.a, quad.b, quad.x, quad.y)
    writes = [(p, lambda temp, s=s: write_syms(temp, s)) for p, s in zip(syms, strings)]
    return writes + [(path, lambda temp: temp.write_text(text))]


def load_quadruple(manifest_path) -> Quadruple:
    path = Path(manifest_path)
    manifest = read_json(path, "manifest")
    unknown = set(manifest) - MANIFEST_FIELDS
    if unknown:
        raise FormatError(f"unknown manifest fields: {sorted(unknown)}")
    missing = {"schema", "game", "files"} - set(manifest)
    if missing:
        raise FormatError(f"missing manifest fields: {sorted(missing)}")
    if type(manifest["schema"]) is not int or manifest["schema"] != 1:  # true and 1.0 equal 1
        raise FormatError(f"unsupported manifest schema: {manifest['schema']}")
    game = parse_game(manifest["game"], manifest.get("m", 2))
    if manifest.get("eps") is not None:
        try:
            parse_fraction(manifest["eps"])
        except FormatError as exc:
            raise FormatError(f"bad manifest eps: {exc}") from exc
    if not isinstance(manifest.get("seeds", {}), dict):
        raise FormatError("manifest seeds must be a JSON object")
    files = manifest["files"]
    if not isinstance(files, dict) or set(files) != {"a", "b", "x", "y"}:
        raise FormatError("manifest files must be an object naming exactly a, b, x, y")
    for name in files.values():
        # a manifest names files in its own directory tree, never outside it
        rel = PurePath(name) if isinstance(name, str) and name and "\0" not in name else None
        if rel is None or rel.is_absolute() or ".." in rel.parts:
            raise FormatError(f"manifest file must be a relative name without '..': {name!r}")
    strings = {k: read_syms(path.parent / v) for k, v in files.items()}
    return Quadruple(game, strings["a"], strings["b"], strings["x"], strings["y"])
