import math
import sys
from fractions import Fraction

import pytest

from nonlocality import complexity
from nonlocality.complexity import (
    CANDIDATE_TAG_BITS,
    binary_entropy,
    classify_value,
    clear_cache,
    cond_mutual_info_est,
    estimate_k,
    estimate_k_cond,
    frac_str,
    log_binomial,
    mutual_info_est,
    overhead,
)
from nonlocality.estimators import get_estimator, make_registry
from nonlocality.strings import Seed, SymbolString, gen_computable, gen_seeded_random


def test_rate_normalization_binary_and_larger_alphabets():
    seed = Seed.from_int(11)
    for q in (2, 4, 16):
        s = gen_seeded_random(4096, q, seed.derive(str(q)))
        e = estimate_k(s, "ctx_0")
        # incompressible strings sit near one per symbol-bit regardless of q
        assert 0.9 <= e.rate <= 1.1, q


def test_zero_rate_on_constant_string():
    e = estimate_k(gen_computable("zeros", 4096), "lz77")
    assert e.rate < 0.05
    assert classify_value(e.rate, 0.1, 0.9) == "zero"


def test_empty_string_rate_is_zero():
    e = estimate_k(SymbolString(2, b""), "lz78")
    assert e.rate == 0.0


def test_conditional_never_far_above_unconditional():
    seed = Seed.from_int(12)
    x = gen_seeded_random(2048, 2, seed.derive("x"))
    c = gen_seeded_random(2048, 2, seed.derive("c"))
    ku = estimate_k(x, "ctx_2").bits
    kc = estimate_k_cond(x, c, "ctx_2").bits
    # the separate-description candidate caps the conditional estimate
    assert kc <= ku + CANDIDATE_TAG_BITS


def test_conditioning_on_copy_collapses():
    x = gen_seeded_random(4096, 2, Seed.from_int(13))
    for est in ("lz77", "ctx_2"):
        kc = estimate_k_cond(x, x, est)
        assert kc.rate < 0.1, est


def test_conditioning_on_independent_string_changes_nothing_much():
    seed = Seed.from_int(14)
    x = gen_seeded_random(4096, 2, seed.derive("x"))
    c = gen_seeded_random(4096, 2, seed.derive("c"))
    for est in ("lz77", "ctx_2"):
        assert estimate_k_cond(x, c, est).rate > 0.8, est


def test_mutual_info_positive_for_copies_near_zero_for_independent():
    seed = Seed.from_int(15)
    x = gen_seeded_random(4096, 2, seed.derive("x"))
    c = gen_seeded_random(4096, 2, seed.derive("c"))
    assert mutual_info_est(x, x, "ctx_2") > 0.8 * 4096
    assert abs(mutual_info_est(x, c, "ctx_2")) < 0.15 * 4096


def test_cond_mutual_info_runs_and_is_bounded():
    seed = Seed.from_int(16)
    a = gen_seeded_random(1024, 2, seed.derive("a"))
    b = gen_seeded_random(1024, 2, seed.derive("b"))
    c = gen_seeded_random(1024, 2, seed.derive("c"))
    v = cond_mutual_info_est(a, b, c, "ctx_1")
    assert -1024 <= v <= 2 * 1024


def test_binary_entropy_values():
    assert binary_entropy(0) == 0.0
    assert binary_entropy(1) == 0.0
    assert binary_entropy(Fraction(1, 2)) == pytest.approx(1.0)
    assert binary_entropy(Fraction(1, 16)) == pytest.approx(0.33729, abs=1e-4)


def test_log_binomial_matches_math_comb_and_entropy_scaling():
    for n, k in ((10, 3), (100, 50), (64, 4)):
        assert log_binomial(n, k) == pytest.approx(math.log2(math.comb(n, k)))
    # log C(n, pn) ~ n h(p) for large n
    n = 20000
    assert log_binomial(n, n // 16) / n == pytest.approx(
        binary_entropy(Fraction(1, 16)), abs=0.01
    )


def test_overhead_is_logarithmic():
    assert overhead(2**15) < 1200
    assert overhead(2**20) > overhead(2**10)


def test_frac_str():
    assert frac_str(Fraction(3, 4)) == "3/4"
    assert frac_str(Fraction(1)) == "1/1"


def test_cache_is_transparent():
    x = gen_seeded_random(2048, 2, Seed.from_int(17))
    first = estimate_k(x, "lz78").bits
    second = estimate_k(x, "lz78").bits
    clear_cache()
    third = estimate_k(x, "lz78").bits
    assert first == second == third


def test_cache_tells_external_commands_apart():
    # one id, two commands: an estimate from one registry must never be
    # served for the other
    zeros = gen_computable("zeros", 4096)
    tiny = f"{sys.executable} -c 'import sys;sys.stdin.read();sys.stdout.write(\"ab\")'"
    cat = f"{sys.executable} -c 'import sys;sys.stdout.buffer.write(sys.stdin.buffer.read())'"
    def external(cmd):
        return get_estimator("external:z", make_registry({"z": cmd}))

    clear_cache()
    assert estimate_k(zeros, external(tiny)).bits == 8 * 2 + 32
    assert estimate_k(zeros, external(cat)).bits == 8 * 512 + 32
    # the key is by value: an equal command in a fresh registry is a hit
    assert estimate_k(zeros, external(tiny)).bits == 8 * 2 + 32
    assert len(complexity._CACHE) == 2


def _weave_reference(conds, n, subject):
    # the symbol-by-symbol loop _weave replaced, kept as the reference
    q = max([c.q for c in conds] + ([subject.q] if subject is not None else []))
    out = bytearray()
    ratios = [c.n // n for c in conds]
    for i in range(n):
        for c, r in zip(conds, ratios):
            out.extend(c.data[i * r : (i + 1) * r])
        if subject is not None:
            out.append(subject.data[i])
    return SymbolString(q, bytes(out))


@pytest.mark.parametrize("with_subject", (False, True))
def test_weave_matches_reference_loop(with_subject):
    seed = Seed.from_int(12)
    n = 37
    conds = [
        gen_seeded_random(n * r, q, seed.derive(f"{r}.{q}"))
        for r, q in ((1, 2), (3, 4), (2, 8))
    ]
    subject = gen_seeded_random(n, 3, seed.derive("x")) if with_subject else None
    for k in range(1, len(conds) + 1):
        got = complexity._weave(conds[:k], n, subject)
        assert got == _weave_reference(conds[:k], n, subject)
