"""Bit-level plumbing shared by the estimators: bit I/O, Elias gamma codes,
and a 32-bit adaptive arithmetic coder."""
from __future__ import annotations


class BitWriter:
    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0
        self._nbits = 0
        self.bit_count = 0

    def write_bit(self, bit: int) -> None:
        self._acc |= (bit & 1) << self._nbits
        self._nbits += 1
        self.bit_count += 1
        if self._nbits == 8:
            self._buf.append(self._acc)
            self._acc = 0
            self._nbits = 0

    def write_bits(self, value: int, k: int) -> None:
        for i in range(k - 1, -1, -1):
            self.write_bit((value >> i) & 1)

    def getvalue(self) -> bytes:
        if self._nbits:
            return bytes(self._buf) + bytes([self._acc])
        return bytes(self._buf)


class BitReader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def read_bit(self) -> int:
        byte = self._pos >> 3
        if byte >= len(self._data):
            return 0  # zero padding past the end
        bit = (self._data[byte] >> (self._pos & 7)) & 1
        self._pos += 1
        return bit

    def read_bits(self, k: int) -> int:
        v = 0
        for _ in range(k):
            v = (v << 1) | self.read_bit()
        return v


def gamma_len(value: int) -> int:
    """Bit length of the Elias gamma code of value >= 1."""
    if value < 1:
        raise ValueError("gamma codes positive integers")
    return 2 * value.bit_length() - 1


def write_gamma(w: BitWriter, value: int) -> None:
    if value < 1:
        raise ValueError("gamma codes positive integers")
    nbits = value.bit_length()
    for _ in range(nbits - 1):
        w.write_bit(0)
    w.write_bits(value, nbits)


def read_gamma(r: BitReader) -> int:
    zeros = 0
    while r.read_bit() == 0:
        zeros += 1
        if zeros > 64:
            raise ValueError("malformed gamma code")
    value = 1
    for _ in range(zeros):
        value = (value << 1) | r.read_bit()
    return value


def write_uint(w: BitWriter, value: int) -> None:
    """Gamma-coded non-negative integer."""
    write_gamma(w, value + 1)


def read_uint(r: BitReader) -> int:
    return read_gamma(r) - 1


def uint_len(value: int) -> int:
    return gamma_len(value + 1)


# --- arithmetic coder --------------------------------------------------------

_TOP = (1 << 32) - 1
_HALF = 1 << 31
_QUARTER = 1 << 30
_THREE_Q = 3 << 30


class ArithmeticEncoder:
    def __init__(self, writer: BitWriter) -> None:
        self._w = writer
        self._low = 0
        self._high = _TOP
        self._pending = 0

    def _emit(self, bit: int) -> None:
        self._w.write_bit(bit)
        opp = bit ^ 1
        while self._pending:
            self._w.write_bit(opp)
            self._pending -= 1

    def encode(self, cum_lo: int, cum_hi: int, total: int) -> None:
        span = self._high - self._low + 1
        self._high = self._low + span * cum_hi // total - 1
        self._low = self._low + span * cum_lo // total
        while True:
            if self._high < _HALF:
                self._emit(0)
            elif self._low >= _HALF:
                self._emit(1)
                self._low -= _HALF
                self._high -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_Q:
                self._pending += 1
                self._low -= _QUARTER
                self._high -= _QUARTER
            else:
                break
            self._low <<= 1
            self._high = (self._high << 1) | 1

    def write_bit(self, bit: int) -> None:
        """A bit at fixed probability 1/2 (costs exactly one binary split).
        Named like BitWriter's, so write_gamma can code into this stream."""
        self.encode(bit, bit + 1, 2)

    def write_bits(self, value: int, k: int) -> None:
        for i in range(k - 1, -1, -1):
            self.write_bit((value >> i) & 1)

    def finish(self) -> None:
        self._pending += 1
        if self._low < _QUARTER:
            self._emit(0)
        else:
            self._emit(1)


class ArithmeticDecoder:
    def __init__(self, reader: BitReader) -> None:
        self._r = reader
        self._low = 0
        self._high = _TOP
        self._code = 0
        for _ in range(32):
            self._code = (self._code << 1) | reader.read_bit()

    def decode_target(self, total: int) -> int:
        span = self._high - self._low + 1
        return ((self._code - self._low + 1) * total - 1) // span

    def consume(self, cum_lo: int, cum_hi: int, total: int) -> None:
        span = self._high - self._low + 1
        self._high = self._low + span * cum_hi // total - 1
        self._low = self._low + span * cum_lo // total
        while True:
            if self._high < _HALF:
                pass
            elif self._low >= _HALF:
                self._low -= _HALF
                self._high -= _HALF
                self._code -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_Q:
                self._low -= _QUARTER
                self._high -= _QUARTER
                self._code -= _QUARTER
            else:
                break
            self._low <<= 1
            self._high = (self._high << 1) | 1
            self._code = (self._code << 1) | self._r.read_bit()

    def read_bit(self) -> int:
        """Inverse of ArithmeticEncoder.write_bit; named like BitReader's,
        so read_gamma can decode from this stream."""
        bit = self.decode_target(2)
        self.consume(bit, bit + 1, 2)
        return bit


class AdaptiveModel:
    """Per-context symbol frequencies with Laplace(1) initialisation.

    Contexts are arbitrary hashable keys; each holds counts over {0..q-1},
    rescaled when the total grows large so the coder's 32-bit range
    arithmetic stays exact.
    """

    RESCALE = 1 << 14

    def __init__(self, q: int) -> None:
        self.q = q
        self._tables: dict = {}

    def _counts(self, ctx) -> list:
        t = self._tables.get(ctx)
        if t is None:
            t = [1] * self.q
            self._tables[ctx] = t
        return t

    def encode(self, enc: ArithmeticEncoder, ctx, symbol: int) -> None:
        counts = self._counts(ctx)
        cum = 0
        for s in range(symbol):
            cum += counts[s]
        enc.encode(cum, cum + counts[symbol], sum(counts))
        self._update(counts, symbol)

    def decode(self, dec: ArithmeticDecoder, ctx) -> int:
        counts = self._counts(ctx)
        total = sum(counts)
        target = dec.decode_target(total)
        cum = 0
        symbol = 0
        while cum + counts[symbol] <= target:
            cum += counts[symbol]
            symbol += 1
        dec.consume(cum, cum + counts[symbol], total)
        self._update(counts, symbol)
        return symbol

    def _update(self, counts: list, symbol: int) -> None:
        counts[symbol] += 32
        if counts[symbol] >= self.RESCALE:
            for s in range(self.q):
                counts[s] = (counts[s] + 1) >> 1
