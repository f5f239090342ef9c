"""The branch-and-bound search over deterministic block strategies as it
was before Bob's tallies were packed into one int: a list of packed
columns written and undone on every choice, a {packed column: largest
lane} dict, and a running total of the column maxima.

Kept only as the reference the search in src/ must match result for
result, node and prune counts included (tests/test_oracles.py).
"""
from __future__ import annotations

from nonlocality.oracles import _block_setup, _block_win


def _lanes(col: int, w: int, ny: int) -> list:
    """The ny lanes of a packed column: lane y is bits w*y .. w*y+w-1."""
    mask = (1 << w) - 1
    return [(col >> (w * y)) & mask for y in range(ny)]


def search(game, reps, first_choice=None):
    """Depth-first scan over Alice block functions in lexicographic order,
    with a per-column optimistic bound (Bob's best response so far plus one
    win for every still-unassigned row). The first optimum encountered is
    the lexicographically smallest, and strict improvement keeps it.

    Bob's tally for column bi is one int W[bi] with a lane per output block.
    Only the columns of the row being assigned change, so the sum of column
    maxima is kept as a running total; the bound after row ai is that total
    plus rest[ai + 1], the number of edges in later rows."""
    a_blocks, b_blocks, x_blocks, y_blocks, edges = _block_setup(game, reps)
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
    # addends[ai][xb]: (bi, the packed win row of edge (ai, bi) under xb);
    # edges are sorted, so each adj[ai] is too
    addends = [
        [
            [
                (bi, sum(
                    1 << (w * yb)
                    for yb in range(ny)
                    if _block_win(game, a_blocks[ai], b_blocks[bi], x_blocks[xb], y_blocks[yb])
                ))
                for bi in adj[ai]
            ]
            for xb in range(nx)
        ]
        for ai in range(na)
    ]

    cmax = {0: 0}  # packed column -> its largest lane, filled as columns appear
    W = [0] * nb
    assign = [0] * na
    total = 0  # sum of cmax[W[bi]] over all columns
    best_wins, best_fa, best_fb = -1, None, None
    nodes = prunes = 0

    def dfs(ai):
        nonlocal total, best_wins, best_fa, best_fb, nodes, prunes
        nodes += 1
        if ai == na:
            if total > best_wins:
                fb = []
                for col in W:
                    lanes = _lanes(col, w, ny)
                    fb.append(lanes.index(max(lanes)))
                best_wins = total
                best_fa = tuple(assign)
                best_fb = tuple(fb)
            return
        left = rest[ai + 1]
        rows = addends[ai]
        choices = [first_choice] if (ai == 0 and first_choice is not None) else range(nx)
        for xb in choices:
            before = total
            for bi, add in rows[xb]:
                col = W[bi]
                new = W[bi] = col + add
                try:
                    top = cmax[new]
                except KeyError:
                    top = cmax[new] = max(_lanes(new, w, ny))
                total += top - cmax[col]
            if total + left > best_wins:
                assign[ai] = xb
                dfs(ai + 1)
            else:
                prunes += 1
            for bi, add in rows[xb]:
                W[bi] -= add
            total = before

    dfs(0)
    return {"wins": best_wins, "fa": best_fa, "fb": best_fb, "nodes": nodes, "prunes": prunes}
