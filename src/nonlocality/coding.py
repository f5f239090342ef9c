"""Bit-level plumbing shared by the estimators: bit I/O, Elias gamma codes,
and a 32-bit adaptive arithmetic coder."""
from __future__ import annotations


class BitWriter:
    """Bits in stream order, buffered as ASCII '0'/'1' (one byte per bit) so
    runs append in one step, and packed once by getvalue: stream bit i is
    bit i % 8 of byte i // 8."""

    def __init__(self) -> None:
        self._bits = bytearray()

    @property
    def bit_count(self) -> int:
        return len(self._bits)

    def write_bit(self, bit: int) -> None:
        self._bits.append(49 if bit & 1 else 48)

    def write_bits(self, value: int, k: int) -> None:
        """The low k bits of value, most significant first."""
        if k > 0:
            self._bits += bin((value & ((1 << k) - 1)) | (1 << k))[3:].encode()

    def write_fields(self, values: bytes, k: int) -> None:
        """Each of values as write_bits(value, k) would write it, 1 <= k <= 8:
        one strided slice per bit position, no per-value work."""
        start = len(self._bits)
        self._bits += bytes(len(values) * k)
        for j in range(k):
            self._bits[start + j :: k] = values.translate(_BIT_ASCII[k - 1 - j])

    def getvalue(self) -> bytes:
        n = len(self._bits)
        if not n:
            return b""
        return int(self._bits[::-1], 2).to_bytes((n + 7) >> 3, "little")


# _BIT_ASCII[j] maps a byte to its bit j as ASCII '0'/'1'; _ASCII_BIT undoes that
_BIT_ASCII = [bytes(48 + ((v >> j) & 1) for v in range(256)) for j in range(8)]
_ASCII_BIT = bytes.maketrans(b"01", b"\x00\x01")


class BitReader:
    def __init__(self, data: bytes) -> None:
        # stream order, as ASCII '0'/'1'; see BitWriter
        bits = bytearray(8 * len(data))
        for j in range(8):
            bits[j::8] = data.translate(_BIT_ASCII[j])
        self._bits = bytes(bits)
        self._pos = 0

    def read_bit(self) -> int:
        pos = self._pos
        if pos >= len(self._bits):
            return 0  # zero padding past the end
        self._pos = pos + 1
        return self._bits[pos] - 48

    def read_bits(self, k: int) -> int:
        """k bits, most significant first; zero padding past the end."""
        if k <= 0:
            return 0
        pos = self._pos
        chunk = self._bits[pos : pos + k]
        self._pos = pos + k
        return int(chunk, 2) << (k - len(chunk)) if chunk else 0

    def read_fields(self, n: int, k: int) -> bytes:
        """n values of 1 <= k <= 8 bits, as read_bits(k) would read them."""
        pos = self._pos
        chunk = self._bits[pos : pos + n * k].ljust(n * k, b"0")
        self._pos = pos + n * k
        if k == 1:
            return chunk.translate(_ASCII_BIT)
        return bytes(int(chunk[i : i + k], 2) for i in range(0, n * k, k))


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
    """Witten-Neal-Cleary integer arithmetic coder over a 32-bit range.

    Output bits go straight into the writer's buffer. Underflow (pending)
    bits are held back until the next decided bit and then written with it
    as one run, so writer.bit_count never counts pending bits.
    """

    def __init__(self, writer: BitWriter) -> None:
        self._out = writer._bits
        self._low = 0
        self._high = _TOP
        self._pending = 0

    def encode(self, cum_lo: int, cum_hi: int, total: int) -> int:
        """Narrow the range to [cum_lo, cum_hi) of total; returns the
        writer's bit_count after the bits this decided."""
        low = self._low
        span = self._high - low + 1
        high = low + span * cum_hi // total - 1
        low += span * cum_lo // total
        pending = self._pending
        out = self._out
        while True:
            if high < _HALF:
                if pending:
                    out += b"0" + b"1" * pending
                    pending = 0
                else:
                    out.append(48)
            elif low >= _HALF:
                if pending:
                    out += b"1" + b"0" * pending
                    pending = 0
                else:
                    out.append(49)
                low -= _HALF
                high -= _HALF
            elif low >= _QUARTER and high < _THREE_Q:
                pending += 1
                low -= _QUARTER
                high -= _QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
        self._low = low
        self._high = high
        self._pending = pending
        return len(out)

    def write_bit(self, bit: int) -> None:
        """A bit at fixed probability 1/2 (costs exactly one binary split).
        Named like BitWriter's, so write_gamma can code into this stream."""
        self.encode(bit, bit + 1, 2)

    def write_bits(self, value: int, k: int) -> None:
        for i in range(k - 1, -1, -1):
            self.write_bit((value >> i) & 1)

    def finish(self) -> None:
        run = self._pending + 1
        self._out += b"0" + b"1" * run if self._low < _QUARTER else b"1" + b"0" * run
        self._pending = 0


class ArithmeticDecoder:
    def __init__(self, reader: BitReader) -> None:
        self._r = reader
        self._low = 0
        self._high = _TOP
        self._code = reader.read_bits(32)

    def decode_target(self, total: int) -> int:
        span = self._high - self._low + 1
        return ((self._code - self._low + 1) * total - 1) // span

    def consume(self, cum_lo: int, cum_hi: int, total: int) -> None:
        low = self._low
        span = self._high - low + 1
        high = low + span * cum_hi // total - 1
        low += span * cum_lo // total
        code = self._code
        shifts = 0
        while True:
            if high < _HALF:
                pass
            elif low >= _HALF:
                low -= _HALF
                high -= _HALF
                code -= _HALF
            elif low >= _QUARTER and high < _THREE_Q:
                low -= _QUARTER
                high -= _QUARTER
                code -= _QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
            code <<= 1
            shifts += 1
        self._low = low
        self._high = high
        # the bits shifted in are read as one run: code is only shifted and
        # offset inside the loop, so adding them afterwards is exact
        self._code = code | self._r.read_bits(shifts) if shifts else code

    def read_bit(self) -> int:
        """Inverse of ArithmeticEncoder.write_bit; named like BitReader's,
        so read_gamma can decode from this stream."""
        bit = self.decode_target(2)
        self.consume(bit, bit + 1, 2)
        return bit


class AdaptiveModel:
    """Per-context symbol frequencies with Laplace(1) initialisation.

    Contexts are arbitrary hashable keys; each table holds the counts over
    {0..q-1} followed by their total, and is rescaled when a count grows
    large so the coder's 32-bit range arithmetic stays exact. Hot loops may
    read `tables` directly and apply the same update inline.
    """

    STEP = 32
    RESCALE = 1 << 14

    def __init__(self, q: int) -> None:
        self.q = q
        self.tables: dict = {}

    def table(self, ctx) -> list:
        t = self.tables.get(ctx)
        if t is None:
            t = self.tables[ctx] = [1] * self.q + [self.q]
        return t

    def encode(self, enc: ArithmeticEncoder, ctx, symbol: int) -> None:
        t = self.table(ctx)
        cum = sum(t[:symbol])
        enc.encode(cum, cum + t[symbol], t[self.q])
        self.update(t, symbol)

    def decode(self, dec: ArithmeticDecoder, ctx) -> int:
        t = self.table(ctx)
        total = t[self.q]
        target = dec.decode_target(total)
        cum = 0
        symbol = 0
        while cum + t[symbol] <= target:
            cum += t[symbol]
            symbol += 1
        dec.consume(cum, cum + t[symbol], total)
        self.update(t, symbol)
        return symbol

    def update(self, t: list, symbol: int) -> None:
        t[symbol] += self.STEP
        t[self.q] += self.STEP
        if t[symbol] >= self.RESCALE:
            self.rescale(t)

    def rescale(self, t: list) -> None:
        q = self.q
        for s in range(q):
            t[s] = (t[s] + 1) >> 1
        t[q] = sum(t[:q])
