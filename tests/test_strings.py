import copy
import pickle

import pytest
import reference_packing
from hypothesis import given, settings, strategies as st
from traced_peak import traced_peak

from nonlocality.experiments import SeedSet
from nonlocality.games import GameSpec, Quadruple
from nonlocality.strings import (
    FormatError,
    Seed,
    SymbolString,
    bits_per_symbol,
    concat,
    gen_computable,
    gen_promise_inputs,
    gen_seeded_random,
    interleave,
    pack_symbols,
    pointwise_product,
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
@settings(max_examples=60, deadline=None, derandomize=True)
def test_pack_unpack_roundtrip(q, n, data):
    syms = bytes(data.draw(st.integers(0, q - 1)) for _ in range(n))
    packed = pack_symbols(syms, q)
    assert unpack_symbols(packed, q, n) == syms
    assert len(packed) == (n * bits_per_symbol(q) + 7) // 8


def _unpack_verdict(unpack, payload: bytes, q: int, n: int):
    try:
        return unpack(payload, q, n)
    except FormatError:
        return FormatError


@given(q=st.integers(2, 256), data=st.data())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_packing_matches_the_accumulator_loop_reference(q, data):
    # a layout that only round-trips would pass test_pack_unpack_roundtrip;
    # here every width 1..8 is pinned to the reference's bytes and verdicts
    n = data.draw(st.integers(0, 200))
    syms = bytes(data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
    packed = pack_symbols(syms, q)
    assert packed == reference_packing.pack_symbols(syms, q)
    assert unpack_symbols(packed, q, n) == reference_packing.unpack_symbols(packed, q, n)
    payloads = [(packed + b"\0", n), (packed[:-1], n), (packed, n + 1)]
    top = 1 << bits_per_symbol(q)
    if n and q < top:
        # a symbol in [q, 2**bits) fits the width but not the alphabet
        bad = bytearray(syms)
        bad[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(q, top - 1))
        payloads.append((reference_packing.pack_symbols(bytes(bad), q), n))
    for payload, m in payloads:
        expect = _unpack_verdict(reference_packing.unpack_symbols, payload, q, m)
        assert _unpack_verdict(unpack_symbols, payload, q, m) == expect


def test_symbolstring_validation():
    with pytest.raises(ValueError):
        SymbolString(1, b"")
    with pytest.raises(ValueError):
        SymbolString(2, b"\x02")
    s = SymbolString(3, b"\x00\x02\x01")
    assert s.n == 3 and s[1] == 2 and list(s) == [0, 2, 1]


@pytest.mark.parametrize(
    "q, data, message",
    [
        (3, b"\x00\x05\x02\x09\x01\x03", "symbol 9 out of alphabet range 0..2"),
        (2, b"\x01\x00\xff", "symbol 255 out of alphabet range 0..1"),
        (255, bytes(range(256)), "symbol 255 out of alphabet range 0..254"),
    ],
)
def test_symbolstring_names_its_largest_bad_symbol(q, data, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SymbolString(q, data)
    SymbolString(256, data)  # every byte fits the largest alphabet


@pytest.mark.parametrize("at", [0, (1 << 14) - 1, 1 << 14, (1 << 20) - 1])
def test_a_bad_symbol_is_found_in_any_chunk(at):
    data = bytearray(1 << 20)
    data[at // 2] = 3
    data[at] = 7
    with pytest.raises(ValueError, match="^symbol 7 out of alphabet range 0..2$"):
        SymbolString(3, data)


def test_building_a_symbolstring_peaks_below_its_data_and_128_kib():
    n = 1 << 20
    source = bytearray(b"\x00\x01\x02" * (n // 3 + 1))[:n]
    s, peak = traced_peak(lambda: SymbolString(3, source))
    assert s.n == n
    # the copy of the bytearray is n; the alphabet check adds a bounded chunk
    assert peak < n + (128 << 10)


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
        assert set(zip(a.data, b.data)) <= set(GameSpec.chained(m).promise_pairs())
        # both legs of the promise occur
        assert any(a[i] == b[i] for i in range(2000))
        assert any(b[i] == (a[i] + 1) % m for i in range(2000))


def test_chained_promise_pairs_match_cyclic_definition():
    m = 5
    pairs = GameSpec.chained(m).promise_pairs()
    for a in range(m):
        for b in range(m):
            assert ((a, b) in pairs) == (b == a or b == (a + 1) % m)


_BITS = SymbolString(2, b"\x01\x01\x00")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Seed(bytes(31)), "seed must be 32 bytes, got 31"),
        (lambda: Seed(bytes(33)), "seed must be 32 bytes, got 33"),
        (
            lambda: pointwise_product(_BITS, SymbolString(3, b"\x02")),
            "pointwise_product requires binary strings",
        ),
        (lambda: pointwise_product(_BITS, SymbolString(2, b"\x01")), "length mismatch: 3 != 1"),
        (lambda: interleave(), "need at least one string"),
        (lambda: interleave(_BITS, SymbolString(2, b"\x01")), "interleave requires equal lengths"),
        (lambda: concat(), "need at least one string"),
    ],
    ids=[
        "seed_31_bytes", "seed_33_bytes", "product_not_binary", "product_lengths",
        "interleave_nothing", "interleave_lengths", "concat_nothing",
    ],
)
def test_values_and_pointwise_operations_refuse_bad_inputs(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_reprs_show_a_head_of_the_symbols_and_of_the_seed():
    assert repr(SymbolString(3, b"\x00\x02\x01")) == "SymbolString(q=3, n=3, [0,2,1])"
    long = SymbolString(2, b"\x01" * 17)
    assert repr(long) == "SymbolString(q=2, n=17, [" + "1," * 16 + "...])"
    assert repr(Seed.from_int(0xAB)) == "Seed(ab00000000000000...)"


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
    # a negative length whose packed size rounds to the empty body
    p.write_bytes(b"SYMS q=2 n=-1\n")
    with pytest.raises(FormatError):
        read_syms(p)


@pytest.mark.parametrize(
    "header",
    [
        b"SYMS q=1 n=0", b"SYMS q=300 n=1", b"SYMS q=2 n=-8",
        # int() reads each as q=2 n=8; write_syms writes none of them
        b"SYMS q=+2 n=8", b"SYMS q=2 n=0_8", b"SYMS q=2 n=8\r", b"SYMS q=02 n=8",
    ],
)
def test_syms_header_out_of_range_is_format_error(tmp_path, header):
    p = tmp_path / "x.syms"
    p.write_bytes(header + b"\n\xff")
    with pytest.raises(FormatError):
        read_syms(p)


def test_values_copy_pickle_and_hash():
    s = SymbolString(2, b"\0\1\1\0")
    seed = Seed.from_int(1)
    values = [s, seed, SeedSet.from_master(seed), Quadruple(GameSpec.pr(), s, s, s, s)]
    for v in values:
        for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert type(twin) is type(v) and twin == v and hash(twin) == hash(v)
    assert hash(Seed.from_int(1)) == hash(seed)
    with pytest.raises(AttributeError):
        s.q = 3
    with pytest.raises(AttributeError):
        seed.value = bytes(32)


def test_seed_from_hex_pads_short_and_rejects_long():
    assert Seed.from_hex("ab").value == b"\xab" + bytes(31)
    assert Seed.from_hex("cd" * 32).value == b"\xcd" * 32
    with pytest.raises(ValueError):
        Seed.from_hex("cd" * 33)
