"""Resume points: an encode that starts from the coder state that a
prefix's encode reached equals a fresh encode, bits and blob, and the store
offers a state only to the encodes it fits."""
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonlocality import complexity
from nonlocality.complexity import EstimateStore, clear_cache, estimate_k_cond
from nonlocality.estimators import ContextEstimator, LZ77Estimator, default_registry
from nonlocality.games import GameSpec, Quadruple, locality_verdict
from nonlocality.strings import SymbolString, concat, gen_computable, interleave

RESUMING = ("lz77", "ctx_0", "ctx_1", "ctx_2", "ctx_3")


def _draw(rng: random.Random, kind: str, q: int, n: int) -> bytes:
    if kind == "uniform":
        return bytes(rng.randrange(q) for _ in range(n))
    # skewed: the context models code it, so they keep resume points
    return bytes(0 if rng.random() < 0.8 else rng.randrange(q) for _ in range(n))


def _repeating(rng: random.Random, q: int, n: int) -> bytes:
    """A random head, a unit of 16-200 symbols repeated past n, then noise:
    a cut inside the repeats ends inside an lz77 match."""
    unit = _draw(rng, "uniform", q, rng.randint(16, 200))
    head = _draw(rng, "skewed", q, rng.randint(0, n // 2))
    return (head + unit * (n // len(unit) + 2))[:n] + _draw(rng, "uniform", q, n // 4)


@st.composite
def resume_cases(draw):
    """(q, period, prefix, suffix), the prefix ending inside a repeat or not."""
    q = draw(st.sampled_from([2, 3, 4, 8]))
    period = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 3000))
    if draw(st.booleans()):
        full = _repeating(rng, q, n + 1000)
        cut = draw(st.integers(0, len(full)))
        return q, period, full[:cut], full[cut:]
    kind = draw(st.sampled_from(["uniform", "skewed"]))
    return q, period, _draw(rng, kind, q, n), _draw(rng, kind, q, draw(st.integers(0, 2000)))


def _cut(data: bytes, at: int) -> tuple[bytes, bytes]:
    return data[:at], data[at:]


def _flip(data: bytes, at: int, q: int) -> bytes:
    return data[:at] + bytes([(data[at] + 1) % q]) + data[at + 1 :]


# the context layouts on both sides of 256 ids (see test_coder_outputs.LAYOUTS):
# lz77 at q = 15 and 16, ctx_3 at q = 4 with periods 2 and 3, ctx_2 at q = 8
# with periods 3 and 4; a skewed prefix, and a prefix that ends inside a
# match that runs to its end
def _with_layout_examples(test):
    for est_id, q, period in (
        ("lz77", 15, 1), ("lz77", 16, 1), ("ctx_3", 4, 2), ("ctx_3", 4, 3),
        ("ctx_2", 8, 3), ("ctx_2", 8, 4),
    ):
        rng = random.Random(q * 10 + period)
        skewed = (q, period, _draw(rng, "skewed", q, 2500), _draw(rng, "skewed", q, 1500))
        repeats = (q, period, *_cut(_repeating(rng, q, 3000), 2200))
        for case in (skewed, repeats):
            test = example(case=case, est_id=est_id, at=0.5)(test)
    return test


@settings(max_examples=40, deadline=None, derandomize=True)
@_with_layout_examples
@example(case=(2, 1, *_cut(_repeating(random.Random(7), 2, 3000), 1500)), est_id="lz77", at=0.5)
@example(case=(4, 3, *_cut(_repeating(random.Random(8), 4, 3000), 2000)), est_id="lz77", at=0.0)
@example(case=(8, 2, *_cut(_repeating(random.Random(9), 8, 3000), 2500)), est_id="ctx_3", at=0.9)
@given(case=resume_cases(), est_id=st.sampled_from(RESUMING), at=st.floats(0, 1, exclude_max=True))
def test_resumed_encode_equals_a_fresh_one(case, est_id, at):
    q, period, prefix, suffix = case
    est = default_registry()[est_id]
    fresh = est.encode(prefix + suffix, q, period)
    assert est.decode(fresh[1]) == (q, prefix + suffix)
    store = EstimateStore()
    est.encode(prefix, q, period, resume=store)
    kept = len(store.points)
    assert est.encode(prefix + suffix, q, period, resume=store) == fresh
    if est_id == "lz77":  # ctx_k skips the store when its floor certifies the literal mode
        assert store.hits == kept
    if prefix:
        # a point kept for a prefix that differs in one symbol is never used
        decoy = EstimateStore()
        est.encode(_flip(prefix, int(at * len(prefix)), q), q, period, resume=decoy)
        assert est.encode(prefix + suffix, q, period, resume=decoy) == fresh
        assert decoy.hits == 0


def _skewed(q: int, n: int, seed: int) -> bytes:
    return _draw(random.Random(seed), "skewed", q, n)


def test_clear_cache_empties_the_resume_store():
    c = SymbolString(2, _skewed(2, 4096, 1))
    x = SymbolString(2, _skewed(2, 4096, 2))
    clear_cache()
    estimate_k_cond(x, c, "ctx_2")
    assert len(complexity._STORE.points) and complexity._STORE.hits
    clear_cache()
    store = complexity._STORE
    assert len(store.points) == 0 and not store.bits
    assert (store.hits, store.misses, store.resumed_symbols) == (0, 0, 0)


def test_store_counts_hits_misses_and_resumed_symbols():
    c = SymbolString(2, _skewed(2, 4096, 3))
    x = SymbolString(2, _skewed(2, 2048, 4))
    clear_cache()
    estimate_k_cond(x, c, "ctx_1")
    store = complexity._STORE
    # c.x resumes after c's 4096 symbols; x, c and the interleave
    # candidate's two strings (periods 2 and 3) find nothing
    assert store.hits == 1
    assert store.resumed_symbols == c.n
    assert store.misses == 4
    clear_cache()
    estimate_k_cond(x, c, "lz77")
    # lz77 resumes before its first token that reads the end of c
    assert store.hits == 1 and 0 < store.resumed_symbols < c.n


def test_a_prefix_differing_in_one_symbol_is_never_resumed():
    q = 2
    c = _skewed(q, 4096, 5)
    x = _skewed(q, 1024, 6)
    for est_id in RESUMING:
        est = default_registry()[est_id]
        for at in (0, len(c) // 2, len(c) - 1):
            store = EstimateStore()
            est.encode(c, q, 1, resume=store)
            other = _flip(c, at, q)
            assert store.find(est, other + x, q, 1) is None, (est_id, at)
            assert est.encode(other + x, q, 1, resume=store) == est.encode(other + x, q, 1)
            assert store.hits == 0


def test_a_ctx_1_state_is_never_offered_to_ctx_2():
    c = _skewed(2, 4096, 7)
    x = _skewed(2, 1024, 8)
    store = EstimateStore()
    ContextEstimator(1).encode(c, 2, 1, resume=store)
    assert len(store.points) == 1
    assert store.find(ContextEstimator(2), c + x, 2, 1) is None
    assert store.find(LZ77Estimator(), c + x, 2, 1) is None
    assert store.find(ContextEstimator(1), c + x, 2, 1) is not None


def test_a_state_is_never_offered_for_another_period_or_q():
    c = _skewed(2, 4096, 9)
    x = _skewed(2, 1024, 10)
    for est_id in RESUMING:
        est = default_registry()[est_id]
        store = EstimateStore()
        est.encode(c, 2, 2, resume=store)
        assert len(store.points) == 1, est_id
        assert store.find(est, c + x, 2, 1) is None
        assert store.find(est, c + x, 2, 3) is None
        assert store.find(est, c + x, 3, 2) is None  # c + x is a q=3 string too
        assert store.hits == 0
        assert store.find(est, c + x, 2, 2) is not None


def test_the_store_keeps_the_most_recently_used_points():
    est = ContextEstimator(0)
    store = EstimateStore()
    strings = [_skewed(2, 512, 100 + i) for i in range(EstimateStore.LIMIT + 1)]
    for s in strings[:-1]:
        est.encode(s, 2, 1, resume=store)
    assert store.find(est, strings[0] + b"\x01", 2, 1) is not None  # now the newest
    est.encode(strings[-1], 2, 1, resume=store)
    assert len(store.points) == EstimateStore.LIMIT
    assert store.find(est, strings[1] + b"\x01", 2, 1) is None
    assert store.find(est, strings[0] + b"\x01", 2, 1) is not None


def test_the_store_stays_within_its_byte_budget(monkeypatch):
    est = ContextEstimator(3)
    strings = [_skewed(8, 4096, 200 + i) for i in range(4)]
    store = EstimateStore()
    est.encode(strings[0], 8, 1, resume=store)
    ((_, point),) = store.points.items()
    size = point.footprint
    # room for two such points: the oldest goes, and an oversized one is never kept
    monkeypatch.setattr(EstimateStore, "BUDGET", 2 * size + size // 2)
    for s in strings[1:]:
        est.encode(s, 8, 1, resume=store)
    assert len(store.points) == 2 and store._bytes <= EstimateStore.BUDGET
    assert store.find(est, strings[1] + b"\x01", 8, 1) is None
    monkeypatch.setattr(EstimateStore, "BUDGET", size // 2)
    store.clear()
    est.encode(strings[0], 8, 1, resume=store)
    assert len(store.points) == 0 and store._bytes == 0


def test_a_point_kept_again_is_counted_once():
    # the second encode resumes from the first one's point at its end and
    # keeps a point under the same key: the old footprint leaves the count
    est = ContextEstimator(2)
    s = gen_computable("thue_morse", 4096).data
    store = EstimateStore()
    for _ in range(2):
        est.encode(s, 2, 1, resume=store)
        assert len(store.points) == 1
        assert store._bytes == sum(p.footprint for p in store.points.values()) == 991


def test_concat_estimates_match_fresh_encodes():
    # the conditional estimate through the store equals the chain-rule
    # difference of two fresh encodes
    c = SymbolString(2, _skewed(2, 4096, 20))
    x = SymbolString(2, _skewed(2, 1000, 21) + c.data[:2001])  # 4096 % 3001: no interleave
    for est_id in RESUMING:
        est = default_registry()[est_id]
        clear_cache()
        got = estimate_k_cond(x, c, est_id).bits
        cat = est.encode(concat(c, x).data, 2)[0] - est.encode(c.data, 2)[0]
        separate = est.encode(x.data, 2)[0]
        assert got == max(0.0, min(cat, separate)) + complexity.CANDIDATE_TAG_BITS, est_id


def test_locality_verdict_resumes_ab_lambda_from_ab(monkeypatch):
    # K(ab) is asked for before K(ab||lambda), so the longer encode starts
    # from the point ab's encode kept, and its bits equal a fresh encode's
    n = 2048
    game = GameSpec.pr()
    a, b = SymbolString(2, _skewed(2, n, 30)), SymbolString(2, _skewed(2, n, 31))
    x, y = SymbolString(2, a.data), SymbolString(2, b.data)
    lam = SymbolString(2, _skewed(2, n, 32))
    ab_lam = concat(interleave(a, b), lam)
    found = []
    store = complexity._STORE
    find = store.find

    def spy(est, symbols, q, period):
        point = find(est, symbols, q, period)
        found.append((len(symbols), point is not None and point.i > 0))
        return point

    monkeypatch.setattr(store, "find", spy)
    for est_id in RESUMING:
        est = default_registry()[est_id]
        clear_cache()
        found.clear()
        verdict = locality_verdict(Quadruple(game, a, b, x, y), lam, est_id)
        assert found[:2] == [(2 * n, False), (3 * n, True)], est_id
        fresh = [est.encode(s.data, 2)[0] for s in (ab_lam, interleave(a, b), lam)]
        assert verdict.independence_defect == abs(fresh[0] - fresh[1] - fresh[2]) / n, est_id
