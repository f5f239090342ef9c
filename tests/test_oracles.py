import errno
import gc
import hashlib
import itertools
import json
import os
import random
import signal
import time
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_search import search as reference_search
from traced_peak import traced_peak

from nonlocality import cli, oracles, simplex

from nonlocality.games import (
    GameSpec,
    LocalDeterministic,
    Quadruple,
    play,
    satisfaction_fraction,
    winning,
)
from nonlocality.oracles import (
    Distribution,
    OracleError,
    chained_value_upper_bound,
    deterministic_distribution,
    fine_membership,
    game_value_exact,
    marginal_extremes,
    pr_box_distribution,
    replay_witness,
)
from nonlocality.strings import FormatError, Seed, SymbolString


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
    fa, fb = tuple(x for x, in r.fa), tuple(y for y, in r.fb)
    x, y = play(LocalDeterministic(fa, fb), g, a, b, Seed.from_int(0))
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
    # half and half of two deterministic points
    p = {}
    for fa, fb in [((0, 0), (0, 0)), ((1, 0), (0, 1))]:
        for key in deterministic_distribution(g, fa, fb).p:
            p[key] = p.get(key, F(0)) + F(1, 2)
    d = Distribution(g, p)
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


def test_a_deterministic_signaling_point_is_refused_with_a_certificate():
    # Alice answers Bob's input, x = b, and Bob always 0: every entry is an
    # int 0 or 1, and no local point gives it
    g = GameSpec.pr()
    d = Distribution(g, {(a, b, b, 0): F(1) for a, b in g.promise_pairs()})
    res = fine_membership(d)
    assert not res.local and res.weights is None
    # both sides of the inequality recomputed by brute force
    cert = res.certificate
    assert sorted(cert) == sorted(
        (a, b, x, y) for a, b in g.promise_pairs() for x in range(2) for y in range(2)
    )
    value = sum(c * d.prob(*cell) for cell, c in cert.items())
    fas, fbs = oracles.local_vertices(g)
    vmax = max(
        sum(cert[(a, b, fa[a], fb[b])] for a, b in g.promise_pairs()) for fa in fas for fb in fbs
    )
    assert (res.value_on_dist, res.vertex_max) == (value, vmax)
    assert value > vmax


def test_local_vertices_refuses_chained14_before_listing_any():
    # 2**14 functions a side, 2**28 vertices: the count alone decides
    def refuse():
        with pytest.raises(OracleError, match="too many deterministic vertices"):
            oracles.local_vertices(GameSpec.chained(14))

    _, peak = traced_peak(refuse)
    assert peak < 500_000


@pytest.mark.parametrize("q, n", [(2, 1), (2, 2), (2, 5), (3, 3), (4, 3)])
def test_indicator_rows_follow_the_order_of_local_vertices(q, n):
    # the closed form of a membership row against its definition
    fs = list(itertools.product(range(q), repeat=n))
    block = [1, 0, 2]
    for i in range(n):
        for v in range(q):
            want = [e if f[i] == v else 0 for f in fs for e in block]
            assert oracles._indicator_row(q, n, i, v, block) == want


_VERTEX_MAX_GAMES = [GameSpec.pr(), GameSpec.magic_square()] + [
    GameSpec.chained(m) for m in range(2, 6)
]


@st.composite
def _coefficient_tables(draw):
    """A game, random int coefficients on its cells, and a denominator."""
    game = draw(st.sampled_from(_VERTEX_MAX_GAMES))
    cells = [
        (a, b, x, y)
        for a, b in game.promise_pairs()
        for x in range(game.qX)
        for y in range(game.qY)
    ]
    ints = draw(st.lists(st.integers(-20, 20), min_size=len(cells), max_size=len(cells)))
    return game, dict(zip(cells, ints)), draw(st.sampled_from([1, 1, 2, 6]))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_coefficient_tables())
def test_best_response_vertex_max_is_the_maximum_over_every_vertex(table):
    game, ints, den = table
    fas, fbs = oracles.local_vertices(game)
    pairs = game.promise_pairs()
    brute = max(sum(ints[(a, b, fa[a], fb[b])] for a, b in pairs) for fa in fas for fb in fbs)
    got = oracles._vertex_max(game, {cell: F(v, den) for cell, v in ints.items()})
    assert got == F(brute, den) and type(got) is F


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


def test_input_that_does_not_fit_its_game_is_a_format_error():
    # the CLI maps FormatError to exit 2, a data error, where it is raised
    g = GameSpec.pr()
    with pytest.raises(FormatError, match="sums to 1/2"):
        Distribution(g, {(a, b, 0, 0): F(1, 2) for a in range(2) for b in range(2)})
    with pytest.raises(FormatError, match="cannot cover"):
        Distribution(GameSpec.chained(10**9), {})
    bits = SymbolString(2, b"\x00\x01")
    with pytest.raises(FormatError, match="equal length"):
        Quadruple(g, bits, bits, bits, SymbolString(2, b"\x00"))
    with pytest.raises(FormatError, match="alphabets"):
        Quadruple(g, bits, bits, bits, SymbolString(3, b"\x00\x02"))


def test_each_oracle_refusal_is_an_oracle_error():
    # the CLI maps OracleError to exit 3; as a ValueError it still meets the
    # pytest.raises(ValueError, ...) of the tests above
    assert issubclass(OracleError, ValueError)
    refusals = {
        "strategy space too large": lambda: game_value_exact(GameSpec.chained(40)),
        "too many deterministic vertices": lambda: fine_membership(
            deterministic_distribution(GameSpec.chained(7), [0] * 7, [0] * 7)
        ),
        "marginal program not solvable": lambda: marginal_extremes(F(2)),
    }
    for match, refused in refusals.items():
        with pytest.raises(OracleError, match=match):
            refused()


def test_each_failed_self_check_is_an_oracle_error(monkeypatch):
    # targets that sum to 0 around the ring void the counting bound
    with monkeypatch.context() as mp:
        mp.setattr(GameSpec, "target_bit", lambda self, a, b: 0)
        with pytest.raises(OracleError, match="cycle parity"):
            chained_value_upper_bound(3)
    # a solver's answer whose weights rebuild nothing, and a certificate of 0s
    zero_weights = simplex.LPResult("optimal", solution=[F(0)] * 16)
    monkeypatch.setattr(oracles, "feasible_point", lambda A, rhs: zero_weights)
    with pytest.raises(OracleError, match="weight reconstruction"):
        fine_membership(pr_box_distribution())
    zero_certificate = simplex.LPResult("infeasible", certificate=[F(0)] * 17)
    monkeypatch.setattr(oracles, "feasible_point", lambda A, rhs: zero_certificate)
    with pytest.raises(OracleError, match="does not separate"):
        fine_membership(pr_box_distribution())


def test_marginals_forced_to_half():
    # perfect play plus no-signaling: unbiased outputs are forced, not chosen
    assert marginal_extremes() == (F(1, 2), F(1, 2))


def test_marginals_relaxations():
    lo, hi = marginal_extremes(F(3, 4), True)
    assert hi > F(1, 2)
    lo, hi = marginal_extremes(F(1), False)
    assert hi == F(1)


def test_pr_box_wins_always_and_uniform_marginal():
    d = pr_box_distribution()
    assert sum(d.prob(*cell) for cell in winning(d.game)) == d.game.promise_count()
    assert list(d.p) == [(a, b, x, x ^ (a & b)) for a in range(2) for b in range(2) for x in range(2)]
    for a in range(2):
        for b in range(2):
            px0 = sum(d.prob(a, b, 0, y) for y in range(2))
            assert px0 == F(1, 2)


def _pr_lp_rows_reference(pr_weight, no_signaling):
    # the body _pr_lp_rows had while it wrote out the PR rule itself
    pairs = [(a, b) for a in range(2) for b in range(2)]
    cols = [(a, b, x, y) for (a, b) in pairs for x in range(2) for y in range(2)]
    idx = {c: i for i, c in enumerate(cols)}
    nslack = 4 if pr_weight < 1 else 0
    width = len(cols) + nslack
    A, rhs = [], []

    def row(entries, value):
        r = [F(0)] * width
        for c, v in entries:
            r[c] += v
        A.append(r)
        rhs.append(value)

    for (a, b) in pairs:
        row([(idx[(a, b, x, y)], F(1)) for x in range(2) for y in range(2)], F(1))
    for k, (a, b) in enumerate(pairs):
        entries = [
            (idx[(a, b, x, y)], F(1)) for x in range(2) for y in range(2) if (x ^ y) == (a & b)
        ]
        if nslack:
            entries.append((len(cols) + k, F(-1)))
        row(entries, pr_weight)
    if no_signaling:
        for a in range(2):
            for x in range(2):
                row(
                    [(idx[(a, 0, x, y)], F(1)) for y in range(2)]
                    + [(idx[(a, 1, x, y)], F(-1)) for y in range(2)],
                    F(0),
                )
        for b in range(2):
            for y in range(2):
                row(
                    [(idx[(0, b, x, y)], F(1)) for x in range(2)]
                    + [(idx[(1, b, x, y)], F(-1)) for x in range(2)],
                    F(0),
                )
    objective = [F(0)] * width
    objective[idx[(0, 0, 0, 0)]] = F(1)
    objective[idx[(0, 0, 0, 1)]] = F(1)
    return A, rhs, objective


@pytest.mark.parametrize("no_signaling", [True, False])
@pytest.mark.parametrize("pr_weight", [F(1), F(3, 4)])
def test_pr_lp_rows_read_the_pr_game_and_match_the_written_out_rule(pr_weight, no_signaling):
    # same rows in the same order, so the same tableau and the same pivots
    got = oracles._pr_lp_rows(pr_weight, no_signaling)
    assert got == _pr_lp_rows_reference(pr_weight, no_signaling)


def test_oversized_search_is_refused_before_any_block_list(monkeypatch):
    # pr reps=10 would build 4**10 promise blocks, chained(10**6) would list
    # 10**12 input pairs, before a check made on the lists themselves
    def no_lists(*args):
        raise AssertionError("block lists built for a refused search")

    monkeypatch.setattr(oracles, "_block_setup", no_lists)
    monkeypatch.setattr(GameSpec, "promise_pairs", no_lists)
    for game, reps in ((GameSpec.pr(), 10), (GameSpec.chained(10**6), 1)):
        with pytest.raises(ValueError, match="too large"):
            game_value_exact(game, reps=reps)


def test_jobs_below_one_is_refused_before_any_block_list(monkeypatch):
    def no_lists(*args):
        raise AssertionError("block lists built for a refused search")

    monkeypatch.setattr(oracles, "_block_setup", no_lists)
    monkeypatch.setattr(GameSpec, "promise_pairs", no_lists)
    monkeypatch.setattr(os, "fork", no_lists)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            game_value_exact(GameSpec.pr(), jobs=jobs)


def test_reps_below_one_is_refused():
    with pytest.raises(ValueError, match="reps must be >= 1"):
        game_value_exact(GameSpec.pr(), reps=0)


def test_parallel_search_starts_no_more_workers_than_branches(monkeypatch):
    forks, real_fork = [], os.fork

    def counting_fork():
        pid = real_fork()
        if pid:  # the parent's side: a child only searches and leaves
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    g = GameSpec.pr()
    par = game_value_exact(g, jobs=64)
    assert len(forks) == 1  # one branch per first output block, the caller's included
    ser = game_value_exact(g)
    assert (par.value, par.fa, par.fb, par.a_blocks, par.b_blocks) == (
        ser.value, ser.fa, ser.fb, ser.a_blocks, ser.b_blocks
    )


def _failing_branch_one(fail):
    """oracles._search, but a search of branch 1 calls fail(); a forked
    child inherits the patch, so only the child with that branch fails."""
    search = oracles._search

    def patched(game, blocks, roots=(None,)):
        if 1 in roots:
            fail()
        return search(game, blocks, roots)

    return patched


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise_runtime_error():
    raise RuntimeError("branch 1")


def test_a_failing_worker_exits_3_with_one_oracle_error_line(monkeypatch, capsys):
    # the child's exception comes back as an OracleError, and main returns
    # only once every child is reaped
    monkeypatch.setattr(oracles, "_search", _failing_branch_one(_raise_runtime_error))
    code = cli.main(["oracle", "--game", "pr", "--reps", "2", "--jobs", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.splitlines() == ["oracle error: search worker failed: RuntimeError: branch 1"]
    _assert_no_child_left()


def test_a_killed_worker_is_an_oracle_error(monkeypatch):
    # a child that dies without answering sends nothing down its pipe
    kill = _failing_branch_one(lambda: os.kill(os.getpid(), signal.SIGKILL))
    monkeypatch.setattr(oracles, "_search", kill)
    with pytest.raises(OracleError, match="^search worker failed: exited with code -9$"):
        game_value_exact(GameSpec.pr(), reps=2, jobs=2)
    _assert_no_child_left()


def test_a_failing_parent_kills_and_reaps_its_workers(monkeypatch):
    # the magic square's four first choices in three shares: two children.
    # The first child would search for a minute; the second fork fails as a
    # real one does, and the parent must kill the first rather than wait for
    # it, and close both pipes, the one it could not fork for too
    real_fork, real_pipe, forked, fds = os.fork, os.pipe, [], []

    def fork_once():
        if forked:
            raise OSError(errno.EAGAIN, "no second worker")
        forked.append(real_fork())
        return forked[-1]

    def pipe():
        fds.extend(real_pipe())
        return fds[-2:]

    monkeypatch.setattr(oracles, "_search", lambda *args: time.sleep(60))
    monkeypatch.setattr(os, "fork", fork_once)
    monkeypatch.setattr(os, "pipe", pipe)
    start = time.monotonic()
    with pytest.raises(OSError, match="no second worker"):
        game_value_exact(GameSpec.magic_square(), jobs=3)
    assert time.monotonic() - start < 30
    assert len(fds) == 4
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)
    _assert_no_child_left()


def test_a_failing_caller_share_kills_and_reaps_its_worker(monkeypatch):
    # the caller searches its own share once its child runs: when that
    # search raises, the child (here asleep for a minute) is killed and
    # reaped, both ends of its pipe are closed, and the exception is the
    # caller's own
    real_pipe, fds = os.pipe, []

    def pipe():
        fds.extend(real_pipe())
        return fds[-2:]

    def search(game, blocks, roots=(None,)):
        if 0 in roots:
            raise RuntimeError("the caller's share")
        time.sleep(60)

    monkeypatch.setattr(oracles, "_search", search)
    monkeypatch.setattr(os, "pipe", pipe)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="^the caller's share$"):
        game_value_exact(GameSpec.pr(), jobs=2)
    assert time.monotonic() - start < 30
    assert len(fds) == 2
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)
    _assert_no_child_left()


def _golden(op):
    """The seed-independent ("*") entry of an oracles op in the benchmark's goldens."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"
    return json.loads(path.read_text())["oracles"]["ops"][op]["*"]


def _as_golden(r):
    return {
        "value": f"{r.value.numerator}/{r.value.denominator}",
        "fa": [list(x) for x in r.fa],
        "fb": [list(y) for y in r.fb],
        "nodes": r.nodes,
        "prunes": r.prunes,
    }


@pytest.mark.parametrize(
    "game, reps",
    [(GameSpec.pr(), 2), (GameSpec.chained(3), 2), (GameSpec.chained(4), 2)]
    + [(GameSpec.pr(), 1), (GameSpec.magic_square(), 1)]
    + [(GameSpec.chained(m), 1) for m in range(2, 9)],
    ids=lambda v: v.label() if isinstance(v, GameSpec) else f"reps{v}",
)
def test_search_tree_matches_goldens(game, reps):
    # nodes and prunes pin the visit order and the bound, not only the
    # optimum; the reps=1 witnesses pin Bob's tie-break (first best lane)
    key = f"value:{game.label()}" + (f":reps{reps}" if reps > 1 else "")
    assert _as_golden(game_value_exact(game, reps=reps)) == _golden(key)


def test_parallel_search_tree_is_the_sum_of_its_branches():
    got = _as_golden(game_value_exact(GameSpec.chained(3), reps=2, jobs=2))
    # each branch searches without the other's incumbent, so the tree is
    # larger than the serial one (counts recorded with the dense search)
    assert got == dict(_golden("value:chained(3):reps2"), nodes=2722, prunes=8118)


def test_parallel_chained4_tree_matches_the_jobs2_golden():
    # the benchmark's costliest op: 126178 nodes and 378470 prunes, against
    # 125758 and 377259 for the serial search
    got = _as_golden(game_value_exact(GameSpec.chained(4), reps=2, jobs=2))
    assert got == _golden("value:chained(4):reps2:jobs2")


class _TableGame:
    """A game given by a promise set and a win table: all _search reads."""

    def __init__(self, qX, qY, promise, wins):
        self.qX, self.qY = qX, qY
        self.promise, self.wins = promise, wins

    def promise_pairs(self):
        return sorted(self.promise)

    def win(self, a, b, x, y):
        return (a, b, x, y) in self.wins


@st.composite
def _table_games(draw):
    reps = draw(st.sampled_from([1, 2]))
    qA = draw(st.integers(2, 4 if reps == 1 else 2))
    qX = draw(st.integers(2, 3 if reps == 1 else 2))
    qB, qY = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    pairs = [(a, b) for a in range(qA) for b in range(qB)]
    # drawn from a seeded Random: Hypothesis' own small draws would give
    # mostly one-pair promises and trees of two nodes
    rnd = draw(st.randoms(use_true_random=False))
    promise = {p for p in pairs if rnd.random() < 0.7} or {pairs[-1]}
    cells = [(a, b, x, y) for a, b in sorted(promise) for x in range(qX) for y in range(qY)]
    return _TableGame(qX, qY, promise, {c for c in cells if rnd.random() < 0.5}), reps


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_table_games())
def test_search_matches_the_reference_on_random_tables(game_reps):
    # lane counts up to 9 and rows of up to 16 edges, which the built-in
    # games never reach; every first choice too, as the jobs > 1 merge uses
    game, reps = game_reps
    nx = game.qX**reps
    blocks = oracles._block_setup(game, reps)
    for first in [None, *range(nx)]:
        assert oracles._search(game, blocks, [first])[0] == reference_search(game, reps, first)


@st.composite
def _disjoint_row_games(draw):
    """Table games in which no row shares a column with the row before it.
    Every choice of a row then leaves the next row's columns as they were,
    so the next row meets one tally state once per surviving sibling: the
    search's per-row memo is hit, not only filled."""
    reps = draw(st.sampled_from([1, 2]))
    if reps == 1:
        qA, qB = draw(st.integers(4, 6)), draw(st.integers(3, 5))
        qX, qY = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    else:
        # with reps=2 a block's columns are products of its symbols' columns,
        # so consecutive blocks stay disjoint; 9 rows, 9 columns at most
        qA, qB, qX, qY = draw(st.integers(2, 3)), draw(st.integers(2, 3)), 2, 2
    rnd = draw(st.randoms(use_true_random=False))
    promise, prev = set(), set()
    for a in range(qA):
        free = [b for b in range(qB) if b not in prev]
        cols = {b for b in free if rnd.random() < 0.6} or {rnd.choice(free)}
        if len(cols) == qB:  # leave the next row a column
            cols.remove(rnd.randrange(qB))
        promise |= {(a, b) for b in cols}
        prev = cols
    cells = [(a, b, x, y) for a, b in sorted(promise) for x in range(qX) for y in range(qY)]
    return _TableGame(qX, qY, promise, {c for c in cells if rnd.random() < 0.5}), reps


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_disjoint_row_games())
def test_search_matches_the_reference_where_row_states_repeat(game_reps):
    # the memo keys on a row's own columns: a key that reads a wrong or a
    # missing column, or choices that carry another row's addends, change
    # the tree here
    game, reps = game_reps
    blocks = oracles._block_setup(game, reps)
    for first in [None, *range(game.qX**reps)]:
        assert oracles._search(game, blocks, [first])[0] == reference_search(game, reps, first)


def _rows_game(rows):
    """A table game with `rows` rows: Alice has `rows` inputs and 3 outputs,
    Bob 3 inputs and 2 outputs, every pair is on the promise, and the win
    table is drawn from a Random seeded by the row count."""
    rnd = random.Random(rows)
    promise = {(a, b) for a in range(rows) for b in range(3)}
    cells = [(a, b, x, y) for a, b in sorted(promise) for x in range(3) for y in range(2)]
    return _TableGame(3, 2, promise, {c for c in cells if rnd.random() < 0.5})


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
def test_search_matches_the_reference_for_each_row_count(rows):
    # a call of the search covers two rows, so an odd row count ends in a
    # call whose children are leaves and an even one in a call whose
    # grandchildren are; both endings run here whatever Hypothesis draws
    game = _rows_game(rows)
    blocks = oracles._block_setup(game, 1)
    assert len(blocks[0]) == rows
    for first in [None, *range(game.qX)]:
        assert oracles._search(game, blocks, [first])[0] == reference_search(game, 1, first)


# --- membership against the Fraction tableau -----------------------------------


def _ns_box(game):
    """Uniform over each promise pair's winning outputs: a no-signaling box
    that wins every round."""
    p = {}
    for a, b in game.promise_pairs():
        wins = [(x, y) for x in range(game.qX) for y in range(game.qY) if game.win(a, b, x, y)]
        p.update({(a, b, x, y): F(1, len(wins)) for x, y in wins})
    return Distribution(game, p)


def _membership_with_lp(monkeypatch, dist):
    """fine_membership's result and the LPResult of its simplex call."""
    lps = []
    solve = simplex.solve_lp

    def recording(*args):
        lps.append(solve(*args))
        return lps[-1]

    monkeypatch.setattr(simplex, "solve_lp", recording)
    res = fine_membership(dist)
    assert len(lps) == 1
    return res, lps[0]


@pytest.mark.parametrize(
    "dist, local, pivots",
    [
        (_ns_box(GameSpec.chained(5)), False, 20),
        (
            deterministic_distribution(GameSpec.chained(5), (1, 1, 0, 0, 0), (0, 0, 0, 0, 0)),
            True,
            25,
        ),
    ],
    ids=["box", "vertex"],
)
def test_chained5_membership_makes_the_fraction_tableau_pivots(monkeypatch, dist, local, pivots):
    # counts of the Fraction tableau's pivots on the same inputs, drive-out
    # included: same pivots, not only the same answer
    res, lp = _membership_with_lp(monkeypatch, dist)
    assert res.local is local
    assert lp.pivots == pivots


@pytest.mark.parametrize(
    "game, digest, value, pivots",
    [
        (
            GameSpec.chained(6),
            "5bbf08b0222f2d89bcc1f84183a360da8ac5955ad784560d1f860120a624e561",
            12,
            24,
        ),
        (
            GameSpec.magic_square(),
            "546b73b1304e47dc1332839ffdd9925436b0ed36a2c5f0490a2a6747e7d092b0",
            9,
            86,
        ),
    ],
    ids=["chained6", "magic_square"],
)
def test_ns_box_certificate_matches_the_fraction_tableau(monkeypatch, game, digest, value, pivots):
    # sha256 of the certificate the Fraction tableau returned for the box
    res, lp = _membership_with_lp(monkeypatch, _ns_box(game))
    assert not res.local
    cert = json.dumps(sorted((list(k), str(v)) for k, v in res.certificate.items()))
    assert hashlib.sha256(cert.encode()).hexdigest() == digest
    assert (res.value_on_dist, res.vertex_max, lp.pivots) == (value, -1, pivots)


# --- what a call leaves behind ---------------------------------------------------

_PINNED = (
    [(GameSpec.pr(), 2), (GameSpec.chained(3), 2), (GameSpec.chained(4), 2)]
    + [(GameSpec.pr(), 1), (GameSpec.magic_square(), 1)]
    + [(GameSpec.chained(m), 1) for m in range(2, 9)]
)


def _cyclic_garbage(call):
    """The objects, counted by type, of every reference cycle that call()
    leaves behind: DEBUG_SAVEALL keeps what a collection finds in gc.garbage
    instead of freeing it, so an empty count means nothing waited for the
    cyclic collector."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "game, reps",
    _PINNED,
    ids=lambda v: v.label() if isinstance(v, GameSpec) else f"reps{v}",
)
def test_an_exact_value_leaves_no_reference_cycle(game, reps, jobs):
    # with jobs=2 the searches run in forked children, whose garbage ends
    # with them; what is checked is the parent's fork, read and merge

    def call():
        res = game_value_exact(game, reps=reps, jobs=jobs)
        assert replay_witness(game, res) == res.value

    assert _cyclic_garbage(call) == Counter()


@pytest.mark.parametrize(
    "call",
    [
        lambda: fine_membership(pr_box_distribution()),
        lambda: fine_membership(_ns_box(GameSpec.chained(5))),
        lambda: fine_membership(
            deterministic_distribution(GameSpec.chained(5), (1, 1, 0, 0, 0), (0, 0, 0, 0, 0))
        ),
        lambda: marginal_extremes(F(1), True),
        lambda: marginal_extremes(F(3, 4), False),
        lambda: simplex.solve_lp([[1, 1, 0], [0, 1, 1]], [1, F(1, 2)], [1, 0, 1]),
        lambda: simplex.feasible_point([[1, 1], [1, 1]], [1, 2]),
    ],
    ids=["pr_box", "chained5_box", "chained5_vertex", "marginals", "relaxed_marginals",
         "solve_lp", "infeasible_lp"],
)
def test_membership_and_lp_calls_leave_no_reference_cycle(call):
    assert _cyclic_garbage(call) == Counter()


def test_an_exact_value_keeps_little_once_it_returns():
    # no collection runs between the two readings, so a search tree left as
    # cyclic garbage (about 800 KB here) would count in full; what a clean
    # return keeps is the interpreter's free lists of small tuples
    enabled, tracing = gc.isenabled(), tracemalloc.is_tracing()
    gc.collect()
    gc.disable()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = game_value_exact(GameSpec.chained(4), reps=2)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
        if enabled:
            gc.enable()
    assert res.value == F(13, 16)
    assert kept <= 256 * 1024, f"{kept} bytes kept"
