"""Upper-bound description-length estimates and derived quantities.

Conditional estimates are chain-rule differences between whole-string
estimates, a standard compression-distance heuristic rather than a true
conditional complexity. Three candidates are tried and the cheapest counts:

  * separate   -- ignore the condition entirely (a decodable description);
  * concat     -- condition followed by subject, minus the condition alone:
                  decodable by a decoder that knows the condition, up to
                  the subject's length and a few flush bits;
  * interleave -- condition symbols woven in at each subject position
                  (only when lengths align), minus the woven condition: a
                  chain-rule estimate K(x,c) - K(c), which no decoder
                  checks and which can undercut a decodable description
                  (with c_i = x_i AND x_{i-1}, x random and n = 2^14,
                  ctx_2 reports 4,911 bits, where a side-information
                  coder that decodes x given c needs 8,208).

So the minimum is an estimate, not a proven upper bound.

An EstimateStore holds the bit counts and coder resume points of one run,
keyed by estimator, q, period and the symbols. Each experiment runner and
ns_report makes one for all of its estimates; estimate_k, estimate_k_cond
and locality_verdict make their own when given none, so no store outlives
its run. The concat candidate's encode resumes from the coder state that
encoding the condition reached, so the condition's symbols are coded once
per estimator, q and period, not once per candidate. The bits are those
of a fresh encode.
"""
from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from fractions import Fraction

from .estimators import Estimator, get_estimator
from .strings import Record, SymbolString, concat, interleave

# bits charged for selecting among the conditional candidate encodings
CANDIDATE_TAG_BITS = 2

THETA_ZERO_DEFAULT = 0.1
THETA_FULL_DEFAULT = 0.9


class ComplexityEstimate(Record):
    estimator_id: str
    n: int
    q: int
    bits: float

    @property
    def rate(self) -> float:
        """Bits per symbol, normalised by log2(q); 0 for the empty string."""
        if self.n == 0:
            return 0.0
        return self.bits / (self.n * math.log2(self.q))


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def _key(est: Estimator, symbols: bytes, q: int, period: int) -> tuple:
    """The store's key for symbols coded by est: by value, not identity
    (get_estimator builds a fresh instance on every call, and equal class
    and id give equal bits)."""
    return (type(est), est.estimator_id, q, period, len(symbols), _digest(symbols))


class EstimateStore:
    """Under one key (_key): each coded string's bits, and the resume points
    (estimators.ResumePoint) that encodes reached, the LIMIT most recently
    used and fewer if their footprints would pass BUDGET bytes. A point is
    kept under the string whose encode reached it and offered to the encode
    of any string that starts with that string. One estimate_k_cond keeps at
    most five points (subject, condition, concat and two woven strings), so
    a condition's point outlives the next two estimates.

    hits and misses count find() calls; resumed_symbols sums the symbols
    that the found points let encodes skip."""

    LIMIT = 16
    BUDGET = 1 << 24

    def __init__(self) -> None:
        self.bits: dict = {}
        self.points: OrderedDict = OrderedDict()
        self._bytes = 0
        self.hits = self.misses = self.resumed_symbols = 0

    def find(self, est: Estimator, symbols: bytes, q: int, period: int):
        """The point kept for the longest stored prefix of symbols, or None."""
        base = _key(est, b"", q, period)[:4]  # the estimator, q and period
        lengths = {key[4] for key in self.points if key[:4] == base and key[4] <= len(symbols)}
        for n in sorted(lengths, reverse=True):
            key = _key(est, symbols[:n], q, period)
            point = self.points.get(key)
            if point is not None:
                self.points.move_to_end(key)
                self.hits += 1
                self.resumed_symbols += point.i
                return point
        self.misses += 1
        return None

    def keep(self, est: Estimator, symbols: bytes, q: int, period: int, point) -> None:
        if point.footprint > self.BUDGET:
            return
        key = _key(est, symbols, q, period)
        old = self.points.pop(key, None)
        if old is not None:
            self._bytes -= old.footprint
        self.points[key] = point
        self._bytes += point.footprint
        while len(self.points) > self.LIMIT or self._bytes > self.BUDGET:
            self._bytes -= self.points.popitem(last=False)[1].footprint


def clear_cache() -> None:
    """Does nothing: each run makes its own EstimateStore. Kept only for
    perfbench's experiments ops, which call it before each op; it goes
    with ROADMAP item 11b."""


def _raw_bits(store: EstimateStore, s: SymbolString, est: Estimator, period: int = 1) -> int:
    key = _key(est, s.data, s.q, period)
    bits = store.bits.get(key)
    if bits is None:
        bits, _ = est.encode(s.data, s.q, period, resume=store)
        store.bits[key] = bits
    return bits


def _resolve(estimator) -> Estimator:
    """An Estimator is used as given; a string names a built-in one."""
    return estimator if isinstance(estimator, Estimator) else get_estimator(estimator)


def estimate_k(s: SymbolString, estimator, store=None) -> ComplexityEstimate:
    """Estimate of K(s); store (a fresh one when None) is the run's."""
    est = _resolve(estimator)
    bits = _raw_bits(EstimateStore() if store is None else store, s, est)
    return ComplexityEstimate(est.estimator_id, s.n, s.q, float(bits))


def _weave(conds: list[SymbolString], n: int, subject: SymbolString | None) -> SymbolString:
    # position i holds each condition's i-th block of c.n // n symbols, then
    # the subject's i-th symbol: the interleave of the conditions' phases
    phases = [
        SymbolString(c.q, c.data[k :: c.n // n]) for c in conds for k in range(c.n // n)
    ]
    if subject is not None:
        phases.append(subject)
    return interleave(*phases)


def estimate_k_cond(x: SymbolString, cond, estimator, store=None) -> ComplexityEstimate:
    """Estimate of K(x | cond), the cheapest candidate; cond is a
    SymbolString or a sequence of them. store (a fresh one when None) is
    the run's, so a lone call still resumes c||x from c."""
    est = _resolve(estimator)
    store = EstimateStore() if store is None else store
    if isinstance(cond, SymbolString):
        conds = [cond] if cond.n else []
    else:
        conds = [c for c in cond if c.n]
    candidates = [float(_raw_bits(store, x, est))]
    if conds and x.n:
        base = concat(*conds)
        k_base = _raw_bits(store, base, est)
        k_cat = _raw_bits(store, concat(*conds, x), est)
        candidates.append(float(k_cat - k_base))
        aligned = [c for c in conds if c.n % x.n == 0]
        if aligned:
            # the aligned conditions only: a chain-rule estimate over
            # them, not a description that a decoder given them inverts
            ratios = sum(c.n // x.n for c in aligned)
            woven_cond = _weave(aligned, x.n, None)
            woven_full = _weave(aligned, x.n, x)
            candidates.append(
                float(
                    _raw_bits(store, woven_full, est, ratios + 1)
                    - _raw_bits(store, woven_cond, est, max(1, ratios))
                )
            )
    bits = max(0.0, min(candidates)) + CANDIDATE_TAG_BITS
    return ComplexityEstimate(est.estimator_id, x.n, x.q, bits)


def classify_value(
    rate: float,
    theta_zero: float = THETA_ZERO_DEFAULT,
    theta_full: float = THETA_FULL_DEFAULT,
) -> str:
    if not 0 <= theta_zero < theta_full <= 1:
        raise ValueError("need 0 <= theta_zero < theta_full <= 1")
    if rate <= theta_zero:
        return "zero"
    if rate >= theta_full:
        return "full"
    return "intermediate"


def binary_entropy(p) -> float:
    """h(p) in bits, with h(0) = h(1) = 0 by continuity."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"
