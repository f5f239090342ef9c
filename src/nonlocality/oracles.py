"""Exact reference answers, all in rational arithmetic.

Provides the optimal classical value of a game by strategy enumeration,
membership of a conditional distribution in the local polytope (with a
weight vector or a separating certificate), and linear programs over the
no-signaling set.
"""
from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .games import GameSpec
from .simplex import feasible_point, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)


# --- conditional distributions ------------------------------------------------

@dataclass(frozen=True)
class Distribution:
    """p[(a, b, x, y)] = P(x, y | a, b), defined on the promise pairs."""

    game: GameSpec
    p: dict

    def __post_init__(self):
        g = self.game
        pairs = g.promise_pairs()
        # an entry the checks below never read would be silently dropped
        on_promise = set(pairs)
        for key in self.p:
            if not (
                isinstance(key, tuple)
                and len(key) == 4
                and key[:2] in on_promise
                and 0 <= key[2] < g.qX
                and 0 <= key[3] < g.qY
            ):
                raise ValueError(
                    f"entry {key!r} is outside the game's alphabets or off the promise"
                )
        for (a, b) in pairs:
            total = ZERO
            for x in range(g.qX):
                for y in range(g.qY):
                    v = Fraction(self.p.get((a, b, x, y), ZERO))
                    if v < ZERO:
                        raise ValueError(f"negative probability at {(a,b,x,y)}")
                    total += v
            if total != ONE:
                raise ValueError(
                    f"P(.,.|a={a},b={b}) sums to {total}, expected 1"
                )

    def prob(self, a: int, b: int, x: int, y: int) -> Fraction:
        return Fraction(self.p.get((a, b, x, y), ZERO))

    def win_probability(self) -> Fraction:
        """Success under the uniform distribution over promise pairs."""
        g = self.game
        pairs = g.promise_pairs()
        total = ZERO
        for (a, b) in pairs:
            for x in range(g.qX):
                for y in range(g.qY):
                    if g.win(a, b, x, y):
                        total += self.prob(a, b, x, y)
        return total / len(pairs)


def pr_box_distribution() -> Distribution:
    g = GameSpec.pr()
    p = {}
    for a in range(2):
        for b in range(2):
            for x in range(2):
                y = x ^ (a & b)
                p[(a, b, x, y)] = Fraction(1, 2)
    return Distribution(g, p)


def deterministic_distribution(game: GameSpec, fa, fb) -> Distribution:
    p = {}
    for (a, b) in game.promise_pairs():
        p[(a, b, fa[a], fb[b])] = ONE
    return Distribution(game, p)


def mix_distributions(parts) -> Distribution:
    """parts: iterable of (weight, Distribution) with rational weights."""
    parts = [(Fraction(w), d) for w, d in parts]
    if sum(w for w, _ in parts) != ONE:
        raise ValueError("mixture weights must sum to 1")
    game = parts[0][1].game
    p: dict = {}
    for w, d in parts:
        if d.game != game:
            raise ValueError("all mixture parts must share a game")
        for key, v in d.p.items():
            p[key] = p.get(key, ZERO) + w * Fraction(v)
    return Distribution(game, {k: v for k, v in p.items() if v})


# --- optimal classical value ----------------------------------------------------

MAX_ALICE_FUNCTIONS = 10**11


@dataclass(frozen=True)
class GameValueResult:
    """Optimal deterministic block-strategy value with a replayable witness.

    a_blocks/b_blocks list the input blocks in lexicographic order; fa[i]
    is Alice's output block on a_blocks[i], likewise fb for Bob.
    """

    game_label: str
    reps: int
    value: Fraction
    a_blocks: tuple
    b_blocks: tuple
    fa: tuple
    fb: tuple
    nodes: int
    prunes: int

    def fa_table(self) -> tuple:
        """Single-symbol view of the witness (reps == 1 only)."""
        if self.reps != 1:
            raise ValueError("flat tables exist only for reps = 1")
        return tuple(x[0] for x in self.fa)

    def fb_table(self) -> tuple:
        if self.reps != 1:
            raise ValueError("flat tables exist only for reps = 1")
        return tuple(y[0] for y in self.fb)


def _block_setup(game: GameSpec, reps: int):
    singles = game.promise_pairs()
    blocks = [
        (tuple(a for a, _ in combo), tuple(b for _, b in combo))
        for combo in itertools.product(singles, repeat=reps)
    ]
    a_blocks = sorted({ab for ab, _ in blocks})
    b_blocks = sorted({bb for _, bb in blocks})
    x_blocks = list(itertools.product(range(game.qX), repeat=reps))
    y_blocks = list(itertools.product(range(game.qY), repeat=reps))
    edges = {
        (a_blocks.index(ab), b_blocks.index(bb)) for ab, bb in blocks
    }
    return a_blocks, b_blocks, x_blocks, y_blocks, sorted(edges)


def _block_win(game: GameSpec, ab, bb, xb, yb) -> bool:
    return all(game.win(a, b, x, y) for a, b, x, y in zip(ab, bb, xb, yb))


def _search(game, reps, first_choice=None):
    """Depth-first scan over Alice block functions in lexicographic order,
    with a per-column optimistic bound (Bob's best response so far plus one
    win for every still-unassigned row). The first optimum encountered is
    the lexicographically smallest, and strict improvement keeps it."""
    a_blocks, b_blocks, x_blocks, y_blocks, edges = _block_setup(game, reps)
    na, nb = len(a_blocks), len(b_blocks)
    nx, ny = len(x_blocks), len(y_blocks)

    # winmat[ai][bi] is None off the promise, else a nx*ny win table
    winmat = [[None] * nb for _ in range(na)]
    adj = [[] for _ in range(na)]
    for ai, bi in edges:
        winmat[ai][bi] = [
            [
                1
                if _block_win(game, a_blocks[ai], b_blocks[bi], x_blocks[xb], y_blocks[yb])
                else 0
                for yb in range(ny)
            ]
            for xb in range(nx)
        ]
        adj[ai].append(bi)
    for lst in adj:
        lst.sort()
    deg_after = [
        [sum(1 for aj, bj in edges if bj == bi and aj > ai) for bi in range(nb)]
        for ai in range(-1, na)
    ]

    W = [[0] * ny for _ in range(nb)]
    assign = [0] * na
    best = {"wins": -1, "fa": None, "fb": None, "nodes": 0, "prunes": 0}

    def column_best(bi):
        return max(W[bi])

    def dfs(ai):
        best["nodes"] += 1
        if ai == na:
            wins = sum(column_best(bi) for bi in range(nb))
            if wins > best["wins"]:
                fb = []
                for bi in range(nb):
                    top = column_best(bi)
                    fb.append(next(y for y in range(ny) if W[bi][y] == top))
                best["wins"] = wins
                best["fa"] = tuple(assign)
                best["fb"] = tuple(fb)
            return
        choices = [first_choice] if (ai == 0 and first_choice is not None) else range(nx)
        for xb in choices:
            for bi in adj[ai]:
                row = winmat[ai][bi][xb]
                for y in range(ny):
                    W[bi][y] += row[y]
            bound = sum(
                column_best(bi) + deg_after[ai + 1][bi] for bi in range(nb)
            )
            if bound > best["wins"]:
                assign[ai] = xb
                dfs(ai + 1)
            else:
                best["prunes"] += 1
            for bi in adj[ai]:
                row = winmat[ai][bi][xb]
                for y in range(ny):
                    W[bi][y] -= row[y]

    dfs(0)
    return best, a_blocks, b_blocks, x_blocks, y_blocks, len(edges)


def game_value_exact(game: GameSpec, reps: int = 1, jobs: int = 1) -> GameValueResult:
    """Exact optimum over deterministic block strategies (each output block
    may depend on that party's whole input block), with inputs uniform over
    the promise blocks. Shared randomness cannot beat this value.

    With jobs > 1 the top-level branches run in parallel; results merge by
    exact max with a lexicographic tie-break, so the witness is
    schedule-independent.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    # Alice has nx**na block functions: nx output blocks, and na input blocks
    # (every input symbol is on the promise with some b, so all qA**reps
    # tuples occur). The count is judged from these numbers before any block
    # list or worker exists. With nx >= 2 a power past `cap` is over the
    # limit, so reps and na stop there.
    cap = MAX_ALICE_FUNCTIONS.bit_length()
    nx = game.qX ** min(reps, cap)
    na = game.qA ** min(reps, cap)
    if nx ** min(na, cap) > MAX_ALICE_FUNCTIONS:
        raise ValueError("strategy space too large to search exactly")
    if jobs > 1:
        results = []
        # one task per first choice, so more workers would only sit idle
        with ProcessPoolExecutor(max_workers=min(jobs, nx)) as pool:
            futs = [
                pool.submit(_search, game, reps, first) for first in range(nx)
            ]
            for f in futs:
                results.append(f.result())
        merged = None
        nodes = prunes = 0
        for best, *rest in results:
            nodes += best["nodes"]
            prunes += best["prunes"]
            if best["fa"] is None:
                continue
            key = (-best["wins"], best["fa"])
            if merged is None or key < merged[0]:
                merged = (key, best, rest)
        best, (a_blocks, b_blocks, x_blocks, y_blocks, nedges) = (
            merged[1],
            tuple(merged[2]),
        )
        best = dict(best, nodes=nodes, prunes=prunes)
    else:
        best, a_blocks, b_blocks, x_blocks, y_blocks, nedges = _search(game, reps)
    return GameValueResult(
        game_label=game.label(),
        reps=reps,
        value=Fraction(best["wins"], nedges),
        a_blocks=tuple(a_blocks),
        b_blocks=tuple(b_blocks),
        fa=tuple(x_blocks[i] for i in best["fa"]),
        fb=tuple(y_blocks[i] for i in best["fb"]),
        nodes=best["nodes"],
        prunes=best["prunes"],
    )


def replay_witness(game: GameSpec, result: GameValueResult) -> Fraction:
    """Re-evaluate the witness over the uniform promise blocks."""
    fa = dict(zip(result.a_blocks, result.fa))
    fb = dict(zip(result.b_blocks, result.fb))
    singles = game.promise_pairs()
    wins = 0
    total = 0
    for combo in itertools.product(singles, repeat=result.reps):
        ab = tuple(a for a, _ in combo)
        bb = tuple(b for _, b in combo)
        total += 1
        if _block_win(game, ab, bb, fa[ab], fb[bb]):
            wins += 1
    return Fraction(wins, total)


def chained_value_upper_bound(m: int) -> Fraction:
    """Counting bound for the ring game: the 2m XOR constraints around the
    promise cycle sum to 1 mod 2, so no assignment satisfies them all."""
    game = GameSpec.chained(m)
    parity = 0
    for (a, b) in game.promise_pairs():
        parity ^= game.target_bit(a, b)
    if parity != 1:
        raise AssertionError("cycle parity must be odd for the bound to hold")
    return ONE - Fraction(1, 2 * m)


# --- local polytope membership ----------------------------------------------------

MAX_VERTICES = 10_000


@dataclass(frozen=True)
class FineResult:
    local: bool
    # when local: list of (weight, fa, fb) with positive weight
    weights: list | None = None
    # when non-local: a Bell-type functional sum_c certificate[c] * p(c)
    # whose value on the distribution strictly exceeds its max over all
    # deterministic vertices
    certificate: dict | None = None
    value_on_dist: Fraction | None = None
    vertex_max: Fraction | None = None


def local_vertices(game: GameSpec):
    fas = list(itertools.product(range(game.qX), repeat=game.qA))
    fbs = list(itertools.product(range(game.qY), repeat=game.qB))
    if len(fas) * len(fbs) > MAX_VERTICES:
        raise ValueError("too many deterministic vertices to enumerate")
    return fas, fbs


def fine_membership(dist: Distribution) -> FineResult:
    """Decide whether dist is a mixture of deterministic local points.

    The witnessed outcome is checked before being returned: weights
    reconstruct the distribution exactly, or the certificate separates it
    from every vertex.
    """
    game = dist.game
    pairs = game.promise_pairs()
    fas, fbs = local_vertices(game)
    vertices = [(fa, fb) for fa in fas for fb in fbs]

    rows = [(a, b, x, y) for (a, b) in pairs for x in range(game.qX) for y in range(game.qY)]
    A = []
    rhs = []
    for (a, b, x, y) in rows:
        A.append([ONE if (fa[a] == x and fb[b] == y) else ZERO for fa, fb in vertices])
        rhs.append(dist.prob(a, b, x, y))
    A.append([ONE] * len(vertices))
    rhs.append(ONE)

    res = feasible_point(A, rhs)
    if res.status == "optimal":
        weights = [
            (w, fa, fb)
            for w, (fa, fb) in zip(res.solution, vertices)
            if w > ZERO
        ]
        recon = {}
        for w, fa, fb in weights:
            for (a, b) in pairs:
                key = (a, b, fa[a], fb[b])
                recon[key] = recon.get(key, ZERO) + w
        for (a, b, x, y) in rows:
            if recon.get((a, b, x, y), ZERO) != dist.prob(a, b, x, y):
                raise AssertionError("weight reconstruction mismatch")
        return FineResult(local=True, weights=weights)

    y = res.certificate
    coeffs = {row: y[i] for i, row in enumerate(rows)}
    value = sum(coeffs[row] * dist.prob(*row) for row in rows)
    # a vertex puts probability 1 on (a, b, fa[a], fb[b]) for each promise pair
    vmax = max(sum(coeffs[(a, b, fa[a], fb[b])] for a, b in pairs) for fa, fb in vertices)
    if value <= vmax:
        raise AssertionError("certificate does not separate the distribution")
    return FineResult(
        local=False, certificate=coeffs, value_on_dist=value, vertex_max=vmax
    )


# --- no-signaling marginal programs -------------------------------------------------

def _pr_lp_rows(pr_weight: Fraction, no_signaling: bool):
    """Equality system over the 16 variables q(x,y|a,b) of the two-input
    two-output scenario, plus one slack when the winning weight is a lower
    bound rather than an exact value."""
    pairs = [(a, b) for a in range(2) for b in range(2)]
    cols = [(a, b, x, y) for (a, b) in pairs for x in range(2) for y in range(2)]
    idx = {c: i for i, c in enumerate(cols)}
    nslack = 4 if pr_weight < ONE else 0
    width = len(cols) + nslack
    A = []
    rhs = []

    def row(entries, value):
        r = [ZERO] * width
        for c, v in entries:
            r[c] += v
        A.append(r)
        rhs.append(value)

    for (a, b) in pairs:
        row([(idx[(a, b, x, y)], ONE) for x in range(2) for y in range(2)], ONE)
    for k, (a, b) in enumerate(pairs):
        entries = [
            (idx[(a, b, x, y)], ONE)
            for x in range(2)
            for y in range(2)
            if (x ^ y) == (a & b)
        ]
        if nslack:
            entries.append((len(cols) + k, -ONE))  # win prob - slack = bound
        row(entries, pr_weight)
    if no_signaling:
        for a in range(2):
            for x in range(2):
                row(
                    [(idx[(a, 0, x, y)], ONE) for y in range(2)]
                    + [(idx[(a, 1, x, y)], -ONE) for y in range(2)],
                    ZERO,
                )
        for b in range(2):
            for y in range(2):
                row(
                    [(idx[(0, b, x, y)], ONE) for x in range(2)]
                    + [(idx[(1, b, x, y)], -ONE) for x in range(2)],
                    ZERO,
                )
    objective = [ZERO] * width
    objective[idx[(0, 0, 0, 0)]] = ONE
    objective[idx[(0, 0, 0, 1)]] = ONE  # P(X=0 | a=0, b=0)
    return A, rhs, objective


def marginal_extremes(
    pr_weight: Fraction = ONE, no_signaling: bool = True
) -> tuple[Fraction, Fraction]:
    """(min, max) of P(X=0 | a=0, b=0) over conditional distributions that
    win the XOR game with probability pr_weight on every input pair
    (at least pr_weight when it is below 1), optionally no-signaling."""
    A, rhs, obj = _pr_lp_rows(Fraction(pr_weight), no_signaling)
    hi = solve_lp(A, rhs, obj)
    lo = solve_lp(A, rhs, [-v for v in obj])
    if hi.status != "optimal" or lo.status != "optimal":
        raise ValueError(f"marginal program not solvable: {hi.status}/{lo.status}")
    return -lo.objective, hi.objective


def ns_pr_marginal_extremes() -> tuple[Fraction, Fraction]:
    """Extremes of Alice's marginal under perfect play plus no-signaling;
    both collapse to 1/2: unbiased outputs are forced, not chosen."""
    return marginal_extremes(ONE, True)
