import pytest
from hypothesis import given, settings, strategies as st

from nonlocality.strings import (
    FormatError,
    Seed,
    SymbolString,
    bits_per_symbol,
    chi_event,
    concat,
    gen_computable,
    gen_promise_inputs,
    gen_seeded_random,
    interleave,
    pack_symbols,
    pointwise_product,
    promise_ok,
    read_syms,
    round_bits,
    unpack_symbols,
    write_syms,
)


@given(
    q=st.sampled_from([2, 3, 4, 8, 16, 255]),
    n=st.sampled_from([0, 1, 7, 8, 9, 64, 1024]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_pack_unpack_roundtrip(q, n, data):
    syms = bytes(data.draw(st.integers(0, q - 1)) for _ in range(n))
    packed = pack_symbols(syms, q)
    assert unpack_symbols(packed, q, n) == syms
    assert len(packed) == (n * bits_per_symbol(q) + 7) // 8


def test_symbolstring_validation():
    with pytest.raises(ValueError):
        SymbolString(1, b"")
    with pytest.raises(ValueError):
        SymbolString(2, b"\x02")
    s = SymbolString(3, b"\x00\x02\x01")
    assert s.n == 3 and s[1] == 2 and list(s) == [0, 2, 1]


def test_seed_derivation_is_stable_and_distinct():
    s = Seed.from_int(42)
    assert s.derive("a").hex() == Seed.from_int(42).derive("a").hex()
    assert s.derive("a").hex() != s.derive("b").hex()
    assert len(bytes.fromhex(s.hex())) == 32


def test_round_bits_prf_is_order_free():
    s = Seed.from_int(7)
    forward = [round_bits(s, i, 8) for i in range(50)]
    backward = [round_bits(s, i, 8) for i in reversed(range(50))]
    assert forward == backward[::-1]
    assert all(0 <= v < 256 for v in forward)


def test_gen_seeded_random_deterministic_and_in_range():
    s = gen_seeded_random(5000, 5, Seed.from_int(1))
    t = gen_seeded_random(5000, 5, Seed.from_int(1))
    assert s.data == t.data
    assert set(s.data) == {0, 1, 2, 3, 4}
    u = gen_seeded_random(5000, 5, Seed.from_int(2))
    assert u.data != s.data


def test_gen_computable_kinds():
    assert gen_computable("zeros", 5).data == b"\x00" * 5
    assert gen_computable("alternating", 4).data == b"\x00\x01\x00\x01"
    tm = gen_computable("thue_morse", 8).data
    assert tm == b"\x00\x01\x01\x00\x01\x00\x00\x01"
    with pytest.raises(ValueError):
        gen_computable("nope", 4)


def test_promise_inputs_always_satisfy_promise():
    for m in (2, 3, 8):
        a, b = gen_promise_inputs(m, 2000, Seed.from_int(m))
        assert a.q == b.q == m
        assert all(promise_ok(m, a[i], b[i]) for i in range(2000))
        # both legs of the promise occur
        assert any(a[i] == b[i] for i in range(2000))
        assert any(b[i] == (a[i] + 1) % m for i in range(2000))


def test_promise_ok_matches_cyclic_definition():
    m = 5
    for a in range(m):
        for b in range(m):
            assert promise_ok(m, a, b) == (b == a or b == (a + 1) % m)


def test_chi_event_marks_only_wraparound_pair():
    m = 4
    a, b = gen_promise_inputs(m, 3000, Seed.from_int(9))
    chi = chi_event(a, b, m)
    for i in range(3000):
        assert chi[i] == (1 if (a[i] == m - 1 and b[i] == 0) else 0)


def test_pointwise_product_and_interleave_and_concat():
    a = SymbolString(2, b"\x01\x01\x00")
    b = SymbolString(2, b"\x01\x00\x01")
    assert pointwise_product(a, b).data == b"\x01\x00\x00"
    w = interleave(a, b)
    assert w.data == b"\x01\x01\x01\x00\x00\x01"
    c = concat(a, b)
    assert c.data == a.data + b.data
    mixed = interleave(a, SymbolString(3, b"\x02\x00\x01"))
    assert mixed.q == 3 and mixed.data == b"\x01\x02\x01\x00\x00\x01"


def test_syms_file_roundtrip(tmp_path):
    s = gen_seeded_random(999, 6, Seed.from_int(3))
    p = tmp_path / "x.syms"
    write_syms(p, s)
    t = read_syms(p)
    assert t.q == s.q and t.data == s.data
    header = p.read_bytes().split(b"\n", 1)[0]
    assert header == b"SYMS q=6 n=999"


def test_syms_rejects_trailing_and_bad_header(tmp_path):
    s = gen_seeded_random(10, 2, Seed.from_int(4))
    p = tmp_path / "x.syms"
    write_syms(p, s)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        read_syms(p)
    p.write_bytes(b"NOTSYMS\n")
    with pytest.raises(FormatError):
        read_syms(p)


@pytest.mark.parametrize("header", [b"SYMS q=1 n=0", b"SYMS q=300 n=1", b"SYMS q=2 n=-8"])
def test_syms_header_out_of_range_is_format_error(tmp_path, header):
    p = tmp_path / "x.syms"
    p.write_bytes(header + b"\n\xff")
    with pytest.raises(FormatError):
        read_syms(p)


def test_seed_from_hex_pads_short_and_rejects_long():
    assert Seed.from_hex("ab").value == b"\xab" + bytes(31)
    assert Seed.from_hex("cd" * 32).value == b"\xcd" * 32
    with pytest.raises(ValueError):
        Seed.from_hex("cd" * 33)
