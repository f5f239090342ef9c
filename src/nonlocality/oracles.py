"""Exact reference answers, all in rational arithmetic.

Provides the optimal classical value of a game by strategy enumeration,
membership of a conditional distribution in the local polytope (with a
weight vector or a separating certificate), and linear programs over the
no-signaling set.
"""
from __future__ import annotations

import itertools
import marshal
import os
from fractions import Fraction
from math import lcm

from .games import GameSpec, winning
from .simplex import feasible_point, solve_lp
from .strings import FormatError, Record

ZERO = Fraction(0)
ONE = Fraction(1)


class OracleError(ValueError):
    """An oracle refused a problem it cannot solve, or its answer failed a self-check."""


# --- conditional distributions ------------------------------------------------

class Distribution(Record):
    """p[(a, b, x, y)] = P(x, y | a, b), defined on the promise pairs."""

    game: GameSpec
    p: dict

    def __post_init__(self):
        g = self.game
        # every promise pair needs an entry to sum to 1; checked first, so a
        # short table for a huge game is refused before any pair is listed
        if len(self.p) < g.promise_count():
            raise FormatError(
                f"{len(self.p)} entries cannot cover the game's {g.promise_count()} promise pairs"
            )
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
                raise FormatError(
                    f"entry {key!r} is outside the game's alphabets or off the promise"
                )
        for (a, b) in pairs:
            total = ZERO
            for x in range(g.qX):
                for y in range(g.qY):
                    v = Fraction(self.p.get((a, b, x, y), ZERO))
                    if v < ZERO:
                        raise FormatError(f"negative probability at {(a,b,x,y)}")
                    total += v
            if total != ONE:
                raise FormatError(f"P(.,.|a={a},b={b}) sums to {total}, expected 1")

    def prob(self, a: int, b: int, x: int, y: int) -> Fraction:
        return Fraction(self.p.get((a, b, x, y), ZERO))


def pr_box_distribution() -> Distribution:
    """Probability 1/2 on each of the PR game's winning cells: two per input
    pair, so every input pair wins with certainty."""
    g = GameSpec.pr()
    return Distribution(g, {cell: Fraction(1, 2) for cell in sorted(winning(g))})


def deterministic_distribution(game: GameSpec, fa, fb) -> Distribution:
    p = {}
    for (a, b) in game.promise_pairs():
        p[(a, b, fa[a], fb[b])] = ONE
    return Distribution(game, p)


# --- optimal classical value ----------------------------------------------------

MAX_ALICE_FUNCTIONS = 10**11


class GameValueResult(Record):
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


def _block_setup(game: GameSpec, reps: int):
    # each promise block as (its a symbols, its b symbols)
    blocks = [tuple(zip(*combo)) for combo in itertools.product(game.promise_pairs(), repeat=reps)]
    a_blocks = sorted({ab for ab, _ in blocks})
    b_blocks = sorted({bb for _, bb in blocks})
    x_blocks = list(itertools.product(range(game.qX), repeat=reps))
    y_blocks = list(itertools.product(range(game.qY), repeat=reps))
    a_index = {ab: i for i, ab in enumerate(a_blocks)}
    b_index = {bb: i for i, bb in enumerate(b_blocks)}
    edges = {(a_index[ab], b_index[bb]) for ab, bb in blocks}
    return a_blocks, b_blocks, x_blocks, y_blocks, sorted(edges)


def _block_win(game: GameSpec, ab, bb, xb, yb) -> bool:
    return all(game.win(a, b, x, y) for a, b, x, y in zip(ab, bb, xb, yb))


def _search(game, blocks, first_choice=None):
    """Depth-first scan over Alice block functions in lexicographic order,
    with a per-column optimistic bound (Bob's best response so far plus one
    win for every still-unassigned row). The first optimum encountered is
    the lexicographically smallest, and strict improvement keeps it.

    All of Bob's tallies are one int T: column bi sits at bit cw*bi, and
    its lane y, counting the wins of output block y, w*y bits above that.
    Assigning row ai to xb adds that choice's addend to T and hands the
    child the new int, so nothing is undone. An edge adds 0 or 1 to each
    lane, so its column's max rises by one exactly when the edge wins on a
    lane at the max, and a choice's gain is the number of row ai's edges
    that do. The bound after row ai is the sum of column maxima plus that
    gain plus rest[ai + 1], the number of edges in later rows.

    The gains depend only on the tallies of row ai's own columns, and those
    repeat across the tree. So each row keeps a memo from its slice of T,
    (T >> lo) & rowmask, to its choices as (xb, gain, add) tuples, which
    are built once per choice and gain; the states with the same gains
    share one tuple of choices, stored with its largest gain and its
    length: a node whose largest gain cannot beat the incumbent prunes
    every choice at once. On a miss the gains come packed, gw bits per
    choice, as the sum of the row's edges' packed 0/1 gains, each looked
    up by its column's tally. The memo lives for one call and is freed as
    the call returns, not left to the cyclic collector. `blocks` is
    _block_setup's model, built once by the caller for all its branches."""
    a_blocks, b_blocks, x_blocks, y_blocks, edges = blocks
    na, nb = len(a_blocks), len(b_blocks)
    nx, ny = len(x_blocks), len(y_blocks)

    adj = [[] for _ in range(na)]
    deg = [0] * nb
    rest = [0] * (na + 1)
    for ai, bi in edges:
        adj[ai].append(bi)
        deg[bi] += 1
        rest[ai] += 1
    for ai in range(na - 1, -1, -1):
        rest[ai] += rest[ai + 1]
    # a lane counts wins on its column's edges, so it never exceeds deg[bi]
    w = max(deg).bit_length()
    cw = w * ny
    cmask, lmask = (1 << cw) - 1, (1 << w) - 1

    # wins[a, b, x]: the outputs y that win on (a, b, x), one bit each
    qY = game.qY
    wins = dict.fromkeys(
        ((a, b, x) for a, b in game.promise_pairs() for x in range(game.qX)), 0
    )
    for a, b, x, y in winning(game):
        wins[a, b, x] |= 1 << y

    def block_wins(ab, bb, xb):
        """The output blocks that win on (ab, bb, xb), one bit each: a block
        wins when every symbol does, and y_blocks list the last symbol
        fastest, so this is the Kronecker product of the symbols' masks."""
        keys = zip(ab, bb, xb)
        m = wins[next(keys)]
        for key in keys:
            v, m, i = wins[key], 0, m
            while i:
                low = i & -i
                m |= v << (qY * (low.bit_length() - 1))
                i ^= low
        return m

    # rows[ai] holds lo and rowmask, which cut row ai's columns out of T;
    # the row's memo; rest[ai + 1]; and what a miss reads: per edge, its
    # column's offset in T, its packed gains by column tally and its (win
    # mask, field bit) per choice; the mask of one gain field; per choice,
    # its tuples by gain and its field's offset; the choices by packed gains
    rows = []
    for ai in range(na):
        cols = adj[ai]
        gw = len(cols).bit_length()  # a gain is at most len(cols)
        masks, fields = [[] for _ in cols], []
        for i, xb in enumerate(range(nx) if ai or first_choice is None else (first_choice,)):
            add = 0
            for j, bi in enumerate(cols):
                m = block_wins(a_blocks[ai], b_blocks[bi], x_blocks[xb])
                masks[j].append((m, 1 << (gw * i)))
                for yb in range(ny):
                    if m >> yb & 1:
                        add += 1 << (cw * bi + w * yb)
            fields.append(([(xb, g, add) for g in range(len(cols) + 1)], gw * i))
        spots, rowmask = [], 0
        for bi, ms in zip(cols, masks):
            spots.append((cw * bi, {}, ms))
            rowmask |= cmask << (cw * bi)
        lo = cw * cols[0]
        rows.append((lo, rowmask >> lo, {}, rest[ai + 1], (spots, (1 << gw) - 1, fields, {})))

    argmax = {}  # packed column -> mask of the lanes at its max

    def argmax_of(col):
        m = argmax.get(col)
        if m is None:
            lanes = [(col >> s) & lmask for s in range(0, cw, w)]
            top = max(lanes)
            m = argmax[col] = sum(1 << y for y, v in enumerate(lanes) if v == top)
        return m

    assign = [0] * na
    best_wins, best_fa, best_fb = -1, None, None
    nodes = prunes = 0

    def dfs(ai, T, total):
        nonlocal best_wins, best_fa, best_fb, nodes, prunes
        nodes += 1
        if ai == na:
            # the bound let this leaf through only if total beats best_wins;
            # Bob's witness is the first lane at each column's max
            tops = [argmax_of((T >> s) & cmask) for s in range(0, cw * nb, cw)]
            best_wins = total
            best_fa = tuple(assign)
            best_fb = tuple((m & -m).bit_length() - 1 for m in tops)
            return
        lo, rowmask, memo, later, miss = rows[ai]
        key = (T >> lo) & rowmask
        entry = memo.get(key)
        if entry is None:
            spots, gmask, fields, shared = miss
            k = 0
            for s, gains, masks in spots:
                col = (T >> s) & cmask
                g = gains.get(col)
                if g is None:
                    m, g = argmax_of(col), 0
                    for v, bit in masks:
                        if m & v:
                            g += bit
                    gains[col] = g
                k += g
            entry = shared.get(k)
            if entry is None:
                choices = tuple([c[(k >> f) & gmask] for c, f in fields])
                entry = shared[k] = (max([c[1] for c in choices]), len(choices), choices)
            memo[key] = entry
        top, n, choices = entry
        left = total + later
        if left + top <= best_wins:
            prunes += n
            return
        for xb, gain, add in choices:
            if left + gain > best_wins:
                assign[ai] = xb
                dfs(ai + 1, T + add, total + gain)
            else:
                prunes += 1

    try:
        dfs(0, 0, 0)
    finally:
        del dfs  # dfs's closure cell holds dfs: a cycle through the whole tree
    return {"wins": best_wins, "fa": best_fa, "fb": best_fb, "nodes": nodes, "prunes": prunes}


def _parallel_bests(game, blocks, nx, workers):
    """The best dicts of all nx first choices. Forked child w of `workers`
    searches w, w + workers, ... on the inherited blocks, sends back down a
    pipe marshal.dumps((its best dicts, None)), or (None, "TYPE: message")
    if it raised, and leaves through os._exit (no atexit hook, no flush)."""
    children = []  # (pid, the read end of its pipe as a file)
    try:
        for w in range(workers):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wr)
                raise
            if pid == 0:
                try:
                    try:
                        out = [_search(game, blocks, f) for f in range(w, nx, workers)], None
                    except BaseException as exc:
                        out = None, f"{type(exc).__name__}: {exc}"
                    with open(wr, "wb") as pipe:
                        pipe.write(marshal.dumps(out))
                finally:
                    os._exit(0)
            os.close(wr)
            children.append((pid, open(r, "rb")))
        payloads = [pipe.read() for _, pipe in children]
    except BaseException:
        import signal  # only a failing parent needs it
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = []
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    bests = []
    for data, status in zip(payloads, statuses):
        if not data:  # killed before it could answer
            code = os.waitstatus_to_exitcode(status)
            raise OracleError(f"search worker failed: exited with code {code}")
        found, error = marshal.loads(data)
        if error is not None:
            raise OracleError(f"search worker failed: {error}")
        bests += found
    return bests


def game_value_exact(game: GameSpec, reps: int = 1, jobs: int = 1) -> GameValueResult:
    """Exact optimum over deterministic block strategies (each output block
    may depend on that party's whole input block), with inputs uniform over
    the promise blocks. Shared randomness cannot beat this value.

    With jobs > 1 the top-level branches run in parallel, in forked
    children; results merge by exact max with a lexicographic tie-break,
    so the witness is schedule-independent.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    # Alice has nx**na block functions: nx output blocks, and na input blocks
    # (every input symbol is on the promise with some b, so all qA**reps
    # tuples occur). The count is judged from these numbers before any block
    # list or worker exists. With nx >= 2 a power past `cap` is over the
    # limit, so reps and na stop there.
    cap = MAX_ALICE_FUNCTIONS.bit_length()
    nx = game.qX ** min(reps, cap)
    na = game.qA ** min(reps, cap)
    if nx ** min(na, cap) > MAX_ALICE_FUNCTIONS:
        raise OracleError("strategy space too large to search exactly")
    blocks = _block_setup(game, reps)
    if jobs > 1:
        # one branch per first choice, so more workers would only sit idle
        bests = _parallel_bests(game, blocks, nx, min(jobs, nx))
    else:
        bests = [_search(game, blocks)]
    a_blocks, b_blocks, x_blocks, y_blocks, edges = blocks
    # the most wins, ties to the least fa (min keeps the first); every branch
    # reaches a leaf, since its bound starts at -1
    best = min(bests, key=lambda b: (-b["wins"], b["fa"]))
    return GameValueResult(
        game_label=game.label(),
        reps=reps,
        value=Fraction(best["wins"], len(edges)),
        a_blocks=tuple(a_blocks),
        b_blocks=tuple(b_blocks),
        fa=tuple(x_blocks[i] for i in best["fa"]),
        fb=tuple(y_blocks[i] for i in best["fb"]),
        nodes=sum(b["nodes"] for b in bests),
        prunes=sum(b["prunes"] for b in bests),
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
        raise OracleError("cycle parity must be odd for the bound to hold")
    return ONE - Fraction(1, 2 * m)


# --- local polytope membership ----------------------------------------------------

MAX_VERTICES = 10_000


class FineResult(Record):
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
        raise OracleError("too many deterministic vertices to enumerate")
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
    zeros = [0] * len(fbs)
    for (a, b, x, y) in rows:
        # 0/1 ints; vertices run over fb fastest, one block per fa
        bob = [1 if fb[b] == y else 0 for fb in fbs]
        A.append(list(itertools.chain.from_iterable(bob if fa[a] == x else zeros for fa in fas)))
        rhs.append(dist.prob(a, b, x, y))
    A.append([1] * len(vertices))
    rhs.append(1)

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
                raise OracleError("weight reconstruction mismatch")
        return FineResult(local=True, weights=weights)

    y = res.certificate
    coeffs = {row: y[i] for i, row in enumerate(rows)}
    value = sum(coeffs[row] * dist.prob(*row) for row in rows)
    # a vertex puts probability 1 on (a, b, fa[a], fb[b]) for each promise
    # pair; summed as ints over the coefficients' common denominator
    den = lcm(*[v.denominator for v in coeffs.values()])
    scaled = {row: (v * den).numerator for row, v in coeffs.items()}
    vmax = Fraction(
        max(sum(scaled[(a, b, fa[a], fb[b])] for a, b in pairs) for fa, fb in vertices), den
    )
    if value <= vmax:
        raise OracleError("certificate does not separate the distribution")
    return FineResult(
        local=False, certificate=coeffs, value_on_dist=value, vertex_max=vmax
    )


# --- no-signaling marginal programs -------------------------------------------------

def _pr_lp_rows(pr_weight: Fraction, no_signaling: bool):
    """Equality system over the 16 variables q(x,y|a,b) of the two-input
    two-output scenario, plus one slack when the winning weight is a lower
    bound rather than an exact value."""
    g = GameSpec.pr()
    pairs = g.promise_pairs()
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
    wins = winning(g)
    for k, (a, b) in enumerate(pairs):
        entries = [
            (idx[(a, b, x, y)], ONE)
            for x in range(2)
            for y in range(2)
            if (a, b, x, y) in wins
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
        raise OracleError(f"marginal program not solvable: {hi.status}/{lo.status}")
    return -lo.objective, hi.objective
