"""Non-local systems (PR, chained, magic square), strategies, and the
complexity-based no-signaling and locality testers.

All symbols are 0-based internally; chained inputs display as {1..m}
(symbol + 1) and magic-square outputs as {1..4}.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
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
    Seed,
    SymbolString,
    concat,
    interleave,
    promise_ok,
    read_syms,
    round_bits,
    write_syms,
)


class PromiseViolation(ValueError):
    def __init__(self, index: int):
        super().__init__(f"promise violated at position {index}")
        self.index = index


# --- game definitions -------------------------------------------------------

def _alice_cells(symbol: int) -> tuple[int, int, int]:
    """Even-parity row assignment encoded by an output symbol 0..3: the
    symbol's two bits are cells 0 and 1, cell 2 completes the parity."""
    c0 = (symbol >> 1) & 1
    c1 = symbol & 1
    return c0, c1, (c0 + c1) % 2


def _bob_cells(symbol: int) -> tuple[int, int, int]:
    """Odd-parity column assignment, same bit layout."""
    c0 = (symbol >> 1) & 1
    c1 = symbol & 1
    return c0, c1, (c0 + c1 + 1) % 2


@dataclass(frozen=True)
class GameSpec:
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
        return {"pr": 2, "chained": self.m, "magic_square": 3}[self.kind]

    @property
    def qB(self) -> int:
        return self.qA

    @property
    def qX(self) -> int:
        return {"pr": 2, "chained": 2, "magic_square": 4}[self.kind]

    @property
    def qY(self) -> int:
        return self.qX

    def promise(self, a: int, b: int) -> bool:
        self._check_inputs(a, b)
        if self.kind == "chained":
            return promise_ok(self.m, a, b)
        return True

    def win(self, a: int, b: int, x: int, y: int) -> bool:
        self._check_inputs(a, b)
        if not (0 <= x < self.qX and 0 <= y < self.qY):
            raise ValueError(f"output symbol out of alphabet: x={x}, y={y}")
        if self.kind == "magic_square":
            return _alice_cells(x)[b] == _bob_cells(y)[a]
        return (x ^ y) == self.target_bit(a, b)

    def target_bit(self, a: int, b: int) -> int:
        """The bit x XOR y must equal (PR and chained games only)."""
        if self.kind == "pr":
            return a & b
        if self.kind == "chained":
            return 1 if (a == self.m - 1 and b == 0) else 0
        raise ValueError("no XOR target for this game")

    def promise_pairs(self) -> list[tuple[int, int]]:
        return [
            (a, b)
            for a in range(self.qA)
            for b in range(self.qB)
            if self.promise(a, b)
        ]

    def _check_inputs(self, a: int, b: int) -> None:
        if not (0 <= a < self.qA and 0 <= b < self.qB):
            raise ValueError(f"input symbol out of alphabet: a={a}, b={b}")

    def label(self) -> str:
        if self.kind == "chained":
            return f"chained({self.m})"
        return self.kind


GAME_KINDS = ("pr", "chained", "magic_square")


def parse_game(kind, m=2) -> GameSpec:
    """The game a kind string names (CLI flag, manifest or distribution
    file); m is the chained game's ring size and must be an int >= 2."""
    if kind == "pr":
        return GameSpec.pr()
    if kind == "magic_square":
        return GameSpec.magic_square()
    if kind != "chained":
        raise FormatError(f"unknown game kind: {kind!r}")
    if isinstance(m, bool) or not isinstance(m, int) or m < 2:
        raise FormatError(f"ring size must be an integer >= 2, got {m!r}")
    return GameSpec.chained(m)


# --- strategies --------------------------------------------------------------

@dataclass(frozen=True)
class LocalDeterministic:
    """Per-position tables: x_i = fa[a_i], y_i = fb[b_i]."""

    fa: tuple
    fb: tuple

    kind = "local_deterministic"

    def validate(self, game: GameSpec) -> None:
        if len(self.fa) != game.qA or len(self.fb) != game.qB:
            raise ValueError("table sizes must match the input alphabets")
        if any(not 0 <= v < game.qX for v in self.fa):
            raise ValueError("fa entries out of the output alphabet")
        if any(not 0 <= v < game.qY for v in self.fb):
            raise ValueError("fb entries out of the output alphabet")


@dataclass(frozen=True)
class NoSignalingSampler:
    """Samples a winning pair per round (up to noise rate eps on Bob's
    side for the XOR games); both marginals stay exactly unbiased."""

    eps: Fraction = Fraction(0)

    kind = "no_signaling"

    def __post_init__(self):
        e = Fraction(self.eps)
        if not 0 <= e <= 1:
            raise ValueError("noise rate must lie in [0,1]")
        object.__setattr__(self, "eps", e)


@dataclass(frozen=True)
class SignalingSampler:
    """Negative control: Bob's output copies Alice's input parity."""

    kind = "signaling"


Strategy = LocalDeterministic | NoSignalingSampler | SignalingSampler


def _bernoulli(u: int, eps: Fraction) -> int:
    # u is a uniform 32-bit draw; exact comparison against eps
    return 1 if u * eps.denominator < eps.numerator * (1 << 32) else 0


def play(
    strategy: Strategy,
    game: GameSpec,
    a: SymbolString,
    b: SymbolString,
    seed: Seed,
    noise_seed: Seed | None = None,
) -> tuple[SymbolString, SymbolString]:
    """Produce the output pair; per-round randomness is PRF(seed, i), so
    results are independent of evaluation order."""
    if a.n != b.n:
        raise ValueError("input lengths differ")
    if a.q != game.qA or b.q != game.qB:
        raise ValueError("input alphabets do not match the game")
    for i in range(a.n):
        if not game.promise(a[i], b[i]):
            raise PromiseViolation(i)

    n = a.n
    xs = bytearray(n)
    ys = bytearray(n)
    if isinstance(strategy, LocalDeterministic):
        strategy.validate(game)
        for i in range(n):
            xs[i] = strategy.fa[a[i]]
            ys[i] = strategy.fb[b[i]]
    elif isinstance(strategy, NoSignalingSampler):
        if noise_seed is None:
            noise_seed = seed.derive("noise")
        if game.kind in ("pr", "chained"):
            for i in range(n):
                x = round_bits(seed, i, 1)
                noise = _bernoulli(round_bits(noise_seed, i, 32), strategy.eps)
                xs[i] = x
                ys[i] = x ^ game.target_bit(a[i], b[i]) ^ noise
        else:
            for i in range(n):
                draw = round_bits(seed, i, 3)
                shared = draw & 1  # intersection cell value
                xs[i] = _magic_encode_alice(a[i], b[i], shared, (draw >> 1) & 1)
                ys[i] = _magic_encode_bob(a[i], b[i], shared, (draw >> 2) & 1)
    elif isinstance(strategy, SignalingSampler):
        if game.qX != 2 or game.qY != 2:
            raise ValueError("signaling control needs binary outputs")
        for i in range(n):
            xs[i] = round_bits(seed, i, 1)
            ys[i] = a[i] & 1
    else:
        raise TypeError(f"unknown strategy: {strategy!r}")
    return SymbolString(game.qX, bytes(xs)), SymbolString(game.qY, bytes(ys))


def _magic_encode_alice(row: int, col: int, shared: int, free: int) -> int:
    """Alice's cells for her row: the intersection column carries the
    shared bit, the first remaining column a fresh bit, the last is
    parity-forced (even). Returns the output symbol (cells 0,1)."""
    cells = [0, 0, 0]
    others = [c for c in range(3) if c != col]
    cells[col] = shared
    cells[others[0]] = free
    cells[others[1]] = (cells[col] + cells[others[0]]) % 2  # even parity
    return (cells[0] << 1) | cells[1]


def _magic_encode_bob(row: int, col: int, shared: int, free: int) -> int:
    cells = [0, 0, 0]
    others = [r for r in range(3) if r != row]
    cells[row] = shared
    cells[others[0]] = free
    cells[others[1]] = (cells[row] + cells[others[0]] + 1) % 2  # odd parity
    return (cells[0] << 1) | cells[1]


# --- quadruples ---------------------------------------------------------------

@dataclass(frozen=True)
class Quadruple:
    game: GameSpec
    a: SymbolString
    b: SymbolString
    x: SymbolString
    y: SymbolString

    def __post_init__(self):
        g = self.game
        if not (self.a.n == self.b.n == self.x.n == self.y.n):
            raise ValueError("all four strings must have equal length")
        if (self.a.q, self.b.q, self.x.q, self.y.q) != (g.qA, g.qB, g.qX, g.qY):
            raise ValueError("alphabets do not match the game")

    @property
    def n(self) -> int:
        return self.a.n


def satisfaction_fraction(quad: Quadruple) -> Fraction:
    """Exact fraction of winning rounds; raises on a promise violation."""
    g = quad.game
    wins = 0
    for i in range(quad.n):
        if not g.promise(quad.a[i], quad.b[i]):
            raise PromiseViolation(i)
        if g.win(quad.a[i], quad.b[i], quad.x[i], quad.y[i]):
            wins += 1
    if quad.n == 0:
        return Fraction(1)
    return Fraction(wins, quad.n)


# --- no-signaling tester -------------------------------------------------------

@dataclass(frozen=True)
class NoSignalingReport:
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

@dataclass(frozen=True)
class LocalityThresholds:
    defect: float = 0.25  # bits per witness symbol
    output: float = THETA_ZERO_DEFAULT  # rate threshold for K(x|a,lambda)


@dataclass(frozen=True)
class LocalityVerdict:
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
        k_abl = estimate_k(concat(joint_ab, lam), estimator).bits
        k_ab = estimate_k(joint_ab, estimator).bits
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


def save_quadruple(
    quad: Quadruple,
    directory,
    stem: str,
    eps: Fraction | None = None,
    seeds: dict | None = None,
) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, s in (("a", quad.a), ("b", quad.b), ("x", quad.x), ("y", quad.y)):
        fname = f"{stem}.{name}.syms"
        write_syms(directory / fname, s)
        files[name] = fname
    manifest = {
        "schema": 1,
        "game": quad.game.kind,
        "m": quad.game.m,
        "eps": frac_str(eps) if eps is not None else None,
        "seeds": seeds or {},
        "files": files,
    }
    path = directory / f"{stem}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_quadruple(manifest_path) -> Quadruple:
    path = Path(manifest_path)
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad manifest JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError("manifest must be a JSON object")
    unknown = set(manifest) - MANIFEST_FIELDS
    if unknown:
        raise FormatError(f"unknown manifest fields: {sorted(unknown)}")
    missing = {"schema", "game", "files"} - set(manifest)
    if missing:
        raise FormatError(f"missing manifest fields: {sorted(missing)}")
    if manifest["schema"] != 1:
        raise FormatError(f"unsupported manifest schema: {manifest['schema']}")
    game = parse_game(manifest["game"], manifest.get("m", 2))
    files = manifest["files"]
    if not isinstance(files, dict) or set(files) != {"a", "b", "x", "y"}:
        raise FormatError("manifest files must be an object naming exactly a, b, x, y")
    for name in files.values():
        # a manifest names files in its own directory tree, never outside it
        rel = PurePath(name) if isinstance(name, str) and name and "\0" not in name else None
        if rel is None or rel.is_absolute() or ".." in rel.parts:
            raise FormatError(f"manifest file must be a relative name without '..': {name!r}")
    strings = {k: read_syms(path.parent / v) for k, v in files.items()}
    try:
        return Quadruple(game, strings["a"], strings["b"], strings["x"], strings["y"])
    except ValueError as exc:
        raise FormatError(f"manifest strings do not fit the game: {exc}") from exc
