import random

import pytest
from hypothesis import given, settings, strategies as st

from nonlocality.coding import (
    HALF,
    QUARTER,
    THREE_Q,
    TOP,
    BitReader,
    BitWriter,
    gamma_bits,
    read_uint,
    renormalise,
    shift_in,
    uint_len,
    write_uint,
)
# src runs the coder inline in the estimators' loops only; the coder objects
# and per-symbol model calls of the reference check the coding scheme itself
from reference_coders import AdaptiveModel, ArithmeticDecoder, ArithmeticEncoder


def test_bitwriter_reader_roundtrip():
    w = BitWriter()
    bits = [1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1]
    for b in bits:
        w.write_bit(b)
    assert w.bit_count == len(bits)
    r = BitReader(w.getvalue())
    assert [r.read_bit() for _ in range(len(bits))] == bits
    # reads past the end return zero padding
    assert r.read_bit() == 0


@given(values=st.lists(st.integers(0, 10**9), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_uint_roundtrip(values):
    w = BitWriter()
    for v in values:
        write_uint(w, v)
    assert w.bit_count == sum(uint_len(v) for v in values)
    r = BitReader(w.getvalue())
    assert [read_uint(r) for _ in values] == values


@given(
    data=st.binary(max_size=40),
    skip=st.integers(0, 40),
    n=st.integers(0, 40),
    k=st.integers(1, 8),
)
@settings(max_examples=200, deadline=None)
def test_read_fields_reads_like_read_bits(data, skip, n, k):
    # within the stream and into the zero padding past its end
    fields, single = BitReader(data), BitReader(data)
    fields.read_bits(skip)
    single.read_bits(skip)
    assert fields.read_fields(n, k) == bytes(single.read_bits(k) for _ in range(n))
    assert fields.pos == single.pos


@given(
    width=st.one_of(st.integers(1, 8), st.integers(1, TOP)),
    data=st.data(),
    bits=st.binary(min_size=64, max_size=64),
)
@settings(max_examples=300, deadline=None)
def test_renormalise_and_shift_in_move_in_step(width, data, bits):
    # the encoder and the decoder double the same range the same number
    # of times; the decoder reads one stream bit for each doubling, which
    # the encoder either wrote or holds back as pending
    low = data.draw(st.integers(0, TOP - width), label="low")
    high = low + width
    v = data.draw(st.integers(0, width), label="v")
    buf = bytes(48 | (b & 1) for b in bits)
    out = bytearray()
    enc_low, enc_high, pending = renormalise(out, low, high, 0)
    dec_low, dec_high, v, pos = shift_in(buf, 0, low, high, v)
    assert (dec_low, dec_high) == (enc_low, enc_high)
    assert pos == len(out) + pending
    assert 0 <= v <= dec_high - dec_low
    assert dec_low < HALF <= dec_high and not (QUARTER <= dec_low and dec_high < THREE_Q)


def _ac_roundtrip(symbols, q, contexts):
    w = BitWriter()
    enc = ArithmeticEncoder(w)
    model = AdaptiveModel(q)
    for ctx, s in zip(contexts, symbols):
        model.encode(enc, ctx, s)
    enc.finish()
    r = BitReader(w.getvalue())
    dec = ArithmeticDecoder(r)
    model = AdaptiveModel(q)
    return [model.decode(dec, ctx) for ctx in contexts]


def test_arithmetic_coder_roundtrip_uniform():
    rng = random.Random(1)
    for q in (2, 3, 17):
        symbols = [rng.randrange(q) for _ in range(2000)]
        contexts = [rng.randrange(4) for _ in range(2000)]
        assert _ac_roundtrip(symbols, q, contexts) == symbols


def test_arithmetic_coder_compresses_skewed_source():
    rng = random.Random(2)
    symbols = [0 if rng.random() < 0.95 else 1 for _ in range(5000)]
    w = BitWriter()
    enc = ArithmeticEncoder(w)
    model = AdaptiveModel(2)
    for s in symbols:
        model.encode(enc, 0, s)
    enc.finish()
    # entropy of Bernoulli(0.05) is ~0.29 bits; adaptive coding gets close
    assert w.bit_count < 0.45 * len(symbols)


def test_raw_bits_through_arithmetic_coder():
    rng = random.Random(3)
    bits = [rng.randrange(2) for _ in range(500)]
    w = BitWriter()
    enc = ArithmeticEncoder(w)
    for b in bits:
        enc.write_bit(b)
    enc.finish()
    r = BitReader(w.getvalue())
    dec = ArithmeticDecoder(r)
    assert [dec.read_bit() for _ in bits] == bits
    # raw bits cost one coded bit each, give or take the flush
    assert abs(w.bit_count - len(bits)) <= 64


def test_gamma_codes_through_arithmetic_coder():
    # gamma_bits is the layout lz77 codes bit by bit inside its coded stream;
    # the decoder exposes BitReader's read_bit, so read_uint reads it back
    values = [1, 2, 3, 17, 1000, 2**40 + 5]
    w = BitWriter()
    enc = ArithmeticEncoder(w)
    for v in values:
        for bit in gamma_bits(v):
            enc.write_bit(bit - 48)
    enc.finish()
    dec = ArithmeticDecoder(BitReader(w.getvalue()))
    assert [read_uint(dec) + 1 for _ in values] == values
