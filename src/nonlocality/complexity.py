"""Upper-bound description-length estimates and derived quantities.

Conditional estimates are chain-rule differences between whole-string
estimates, a standard compression-distance heuristic rather than a true
conditional complexity. Three candidate descriptions are tried and the
cheapest counts (each is a real description of the subject given the
condition, so the minimum is still an upper bound):

  * separate   -- ignore the condition entirely;
  * concat     -- condition followed by subject, minus the condition alone;
  * interleave -- condition symbols woven in at each subject position
                  (only when lengths align), minus the woven condition.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

from .estimators import Estimator, get_estimator
from .strings import SymbolString, concat

# bits charged for selecting among the conditional candidate encodings
CANDIDATE_TAG_BITS = 2

THETA_ZERO_DEFAULT = 0.1
THETA_FULL_DEFAULT = 0.9


def overhead(n: int) -> float:
    """Header slack allowed on top of the literal length."""
    return 64.0 * math.log2(n + 2)


@dataclass(frozen=True)
class ComplexityEstimate:
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


_CACHE: dict = {}


def clear_cache() -> None:
    _CACHE.clear()


def _raw_bits(s: SymbolString, est: Estimator, period: int = 1) -> int:
    # keyed by value on what decides the bits: one id (external:NAME) may
    # name different commands in different registries, and a registry is
    # rebuilt on every get_estimator(name, None) call, so identity would miss
    key = (
        type(est),
        est.estimator_id,
        getattr(est, "cmd", None),
        s.q,
        period,
        hashlib.blake2b(s.data, digest_size=16).digest(),
    )
    bits = _CACHE.get(key)
    if bits is None:
        bits, _ = est.encode(s.data, s.q, period)
        _CACHE[key] = bits
    return bits


def _resolve(estimator) -> Estimator:
    """An Estimator is used as given; a string names a built-in one."""
    return estimator if isinstance(estimator, Estimator) else get_estimator(estimator)


def estimate_k(s: SymbolString, estimator) -> ComplexityEstimate:
    est = _resolve(estimator)
    return ComplexityEstimate(est.estimator_id, s.n, s.q, float(_raw_bits(s, est)))


def _weave(conds: list[SymbolString], n: int, subject: SymbolString | None) -> SymbolString:
    q = max(c.q for c in conds)
    if subject is not None:
        q = max(q, subject.q)
    # position i holds each condition's i-th block of c.n // n symbols, then
    # the subject's i-th symbol; each offset in that frame is one strided slice
    ratios = [c.n // n for c in conds]
    width = sum(ratios) + (subject is not None)
    out = bytearray(n * width)
    offset = 0
    for c, r in zip(conds, ratios):
        for k in range(r):
            out[offset + k :: width] = c.data[k : n * r : r]
        offset += r
    if subject is not None:
        out[offset::width] = subject.data
    return SymbolString(q, bytes(out))


def estimate_k_cond(x: SymbolString, cond, estimator) -> ComplexityEstimate:
    """Upper-bound estimate of K(x | cond); cond is a SymbolString or a
    sequence of them."""
    est = _resolve(estimator)
    if isinstance(cond, SymbolString):
        conds = [cond] if cond.n else []
    else:
        conds = [c for c in cond if c.n]
    candidates = [float(_raw_bits(x, est))]
    if conds and x.n:
        base = concat(*conds)
        k_base = _raw_bits(base, est)
        k_cat = _raw_bits(concat(*conds, x), est)
        candidates.append(float(k_cat - k_base))
        aligned = [c for c in conds if c.n % x.n == 0]
        if aligned:
            # conditioning on the aligned subset only is still a valid
            # upper bound for conditioning on everything
            ratios = sum(c.n // x.n for c in aligned)
            woven_cond = _weave(aligned, x.n, None)
            woven_full = _weave(aligned, x.n, x)
            candidates.append(
                float(
                    _raw_bits(woven_full, est, ratios + 1)
                    - _raw_bits(woven_cond, est, max(1, ratios))
                )
            )
    bits = max(0.0, min(candidates)) + CANDIDATE_TAG_BITS
    return ComplexityEstimate(est.estimator_id, x.n, x.q, bits)


def mutual_info_est(x: SymbolString, y: SymbolString, estimator) -> float:
    """I_K(x;y) upper-bound style estimate: K(x) - K(x|y), clamped at 0."""
    est = _resolve(estimator)
    return max(0.0, estimate_k(x, est).bits - estimate_k_cond(x, y, est).bits)


def cond_mutual_info_est(a: SymbolString, b: SymbolString, c: SymbolString, estimator) -> float:
    """I_K(a;b|c) = K(a|c) - K(a|bc), clamped at 0."""
    est = _resolve(estimator)
    k_a_c = estimate_k_cond(a, c, est).bits
    k_a_bc = estimate_k_cond(a, [b, c], est).bits
    return max(0.0, k_a_c - k_a_bc)


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


def log_binomial(n: int, k: int) -> float:
    """log2 C(n,k) from the exact big-integer binomial."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return math.log2(math.comb(n, k)) if n else 0.0


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"
