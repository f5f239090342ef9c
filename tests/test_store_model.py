"""The resume store against a reference model of its policy.

A Hypothesis state machine encodes strings from a small pool, their
prefixes and their extensions, through estimate_k, estimate_k_cond and
Estimator.encode with the store, under each built-in estimator, and starts
a new run with a new store now and then. A plain dict model receives the
same find and keep calls and applies the store's rules: the first point
kept under a key stays, oldest first out past BUDGET bytes, a point offered
only to a string that starts with the one that kept it, under the same
estimator, q and period. After every step the store's points, their order,
their bytes and its counters equal the model's, and every bit count equals
that of an encode without the store.

estimate_k and estimate_k_cond answer a string they coded before from the
bit cache, so they never keep a point twice under one key or look up a
string's own point; the direct encodes do both.
"""
import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from nonlocality.complexity import EstimateStore, estimate_k, estimate_k_cond
from nonlocality.estimators import default_registry
from nonlocality.strings import SymbolString, concat, gen_computable, interleave

ESTIMATORS = sorted(default_registry())
BUDGET = 1 << 24  # the store's, restated: the model does not read it


def _random(q: int, n: int, seed: int, skew: float = 0.0) -> SymbolString:
    rng = random.Random(seed)
    return SymbolString(q, bytes(0 if rng.random() < skew else rng.randrange(q) for _ in range(n)))


def _pool() -> list:
    """(string, period): random, Thue-Morse and woven strings, q 2-4 and
    periods 1-3, in groups of four that each start with the one before:
    a string's half, its three quarters, itself, and itself extended by
    the half of the next one. Lengths are multiples of 256, so that many
    conditions align with their subjects."""
    tm = gen_computable("thue_morse", 2048)
    unit = _random(4, 96, 5)
    tm3 = SymbolString(3, tm.data[:512])  # Thue-Morse over a ternary alphabet
    bases = [
        (_random(2, 1024, 1), 1),
        (tm, 1),
        (_random(3, 1536, 2, skew=0.6), 1),
        (SymbolString(4, (unit.data * 11)[:1024]), 1),
        (interleave(SymbolString(2, tm.data[:1024]), _random(2, 1024, 3, skew=0.8)), 2),
        (interleave(_random(3, 512, 4, skew=0.7), tm3, _random(3, 512, 6)), 3),
    ]
    pool = []
    for k, (s, period) in enumerate(bases):
        nxt = bases[(k + 1) % len(bases)][0]
        pool += [
            (SymbolString(s.q, s.data[: s.n // 2]), period),
            (SymbolString(s.q, s.data[: 3 * s.n // 4]), period),
            (s, period),
            (concat(s, SymbolString(nxt.q, nxt.data[: nxt.n // 2])), period),
        ]
    return pool


POOL = _pool()


class _Model:
    """The store's policy over plain keys (the estimator, q, period and the
    whole symbols), with the store's counters."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.points: dict = {}
        self.bytes = self.hits = self.misses = self.resumed_symbols = 0

    def find(self, est, symbols: bytes, q: int, period: int):
        owner = (type(est), est.estimator_id, q, period)
        found = [
            key for key in self.points if key[:4] == owner and symbols.startswith(key[4])
        ]
        if not found:
            self.misses += 1
            return None
        key = max(found, key=lambda k: len(k[4]))
        self.hits += 1
        self.resumed_symbols += self.points[key].i
        return self.points[key]

    def keep(self, est, symbols: bytes, q: int, period: int, point) -> None:
        key = (type(est), est.estimator_id, q, period, symbols)
        if key in self.points or point.footprint > self.budget:
            return
        self.points[key] = point
        self.bytes += point.footprint
        while self.bytes > self.budget:
            oldest = next(iter(self.points))
            self.bytes -= self.points.pop(oldest).footprint


class _CheckedStore(EstimateStore):
    """The real store, which hands each find and keep to the model too and
    checks that a find returns the very point the model finds."""

    model: _Model

    def find(self, est, symbols, q, period):
        point = super().find(est, symbols, q, period)
        assert point is self.model.find(est, symbols, q, period)
        return point

    def keep(self, est, symbols, q, period, point):
        super().keep(est, symbols, q, period, point)
        self.model.keep(est, symbols, q, period, point)


class _NoStore:
    """Given as the store where an encode must start fresh: it finds
    nothing, keeps nothing and remembers no bits."""

    class _Bits(dict):
        def __setitem__(self, key, value):
            pass

    def __init__(self) -> None:
        self.bits = self._Bits()

    def find(self, *args):
        return None

    def keep(self, *args):
        pass


_strings = st.integers(0, len(POOL) - 1)
_estimators = st.sampled_from(ESTIMATORS)


class StoreMachine(RuleBasedStateMachine):
    # (pool index, estimator) of each string coded so far, for the rules
    # that code it again or grow it
    coded = Bundle("coded")

    @initialize(small=st.booleans())
    def limits(self, small):
        # the store's own BUDGET, or a small one that a few encodes
        # reach, set on this machine's stores only
        self.small = small
        self.new_run()

    @rule(target=coded, i=_strings, est_id=_estimators)
    def estimate(self, i, est_id):
        s, _ = POOL[i]
        got = estimate_k(s, est_id, self.store).bits
        assert got == estimate_k(s, est_id, _NoStore()).bits
        return i, est_id

    @rule(i=_strings, j=_strings, est_id=_estimators)
    def estimate_cond(self, i, j, est_id):
        (x, _), (cond, _) = POOL[i], POOL[j]
        got = estimate_k_cond(x, cond, est_id, self.store).bits
        assert got == estimate_k_cond(x, cond, est_id, _NoStore()).bits

    @rule(target=coded, i=_strings, est_id=_estimators)
    def encode(self, i, est_id):
        s, period = POOL[i]
        est = default_registry()[est_id]
        got = est.encode(s.data, s.q, period, resume=self.store)
        assert got == est.encode(s.data, s.q, period)
        return i, est_id

    @rule(target=coded, earlier=coded, direct=st.booleans())
    def grow(self, earlier, direct):
        # the next longer string of the same group: it starts with the
        # earlier one, whose point may no longer be the newest
        i, est_id = earlier
        if i % 4 < 3:
            i += 1
        return self.encode(i, est_id) if direct else self.estimate(i, est_id)

    @rule(earlier=coded)
    def encode_again(self, earlier):
        # the string's own point, if it is still kept, is found, and the
        # point that this encode reaches is not kept in its place
        self.encode(*earlier)

    @rule()
    def new_run(self):
        # a run starts from an empty store of its own
        self.store = _CheckedStore()
        budget = 2048 if self.small else BUDGET
        if self.small:
            self.store.BUDGET = budget
        self.store.model = _Model(budget)

    @invariant()
    def agrees_with_the_model(self):
        store, model = self.store, self.store.model
        assert list(map(id, store.points.values())) == list(map(id, model.points.values()))
        assert store._bytes == model.bytes
        assert store._bytes <= model.budget
        assert (store.hits, store.misses, store.resumed_symbols) == (
            model.hits, model.misses, model.resumed_symbols
        )


def test_the_store_follows_its_model():
    assert EstimateStore.BUDGET == BUDGET
    run_state_machine_as_test(
        StoreMachine,
        settings=settings(max_examples=60, stateful_step_count=25, deadline=None, derandomize=True),
    )
